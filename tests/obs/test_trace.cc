/**
 * @file
 * Tests for the translation lifecycle tracer (src/obs), driven through the
 * lifecycle stream the machine emits into.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/lifecycle.hh"
#include "obs/trace.hh"
#include "prof/hostprof.hh"

using namespace sw;

namespace {

constexpr std::uint32_t kNoWhere = LifecycleEvent::kNoWhere;

/** A tracer fed through its own lifecycle stream, as the Gpu wires it. */
struct TracedStream
{
    explicit TracedStream(std::size_t capacity = 1 << 16) : tracer(capacity)
    {
        stream.observe(&tracer, nullptr, nullptr);
    }

    void
    emit(LifecyclePhase phase, Cycle cycle, std::uint64_t id, Vpn vpn,
         std::uint32_t where = kNoWhere, Asid asid = 0)
    {
        SW_LIFECYCLE(stream, phase, cycle, id, TranslationKey{asid, vpn},
                     where);
    }

    /** A WalkFill carrying its walk record, as the engine emits it. */
    void
    fill(Cycle cycle, std::uint64_t id, Vpn vpn, Cycle queue_delay,
         Cycle access_latency, std::uint32_t walker = kNoWhere,
         std::uint32_t pt_reads = 0, Asid asid = 0)
    {
        SW_LIFECYCLE(stream, LifecyclePhase::WalkFill, cycle, id,
                     TranslationKey{asid, vpn}, kNoWhere, false, queue_delay,
                     access_latency, walker, pt_reads);
    }

    TranslationTracer tracer;
    LifecycleStream stream;
};

TEST(TracePhaseName, CoversLifecycle)
{
    EXPECT_STREQ(toString(LifecyclePhase::L1Miss), "l1_miss");
    EXPECT_STREQ(toString(LifecyclePhase::WalkCreated), "walk_created");
    EXPECT_STREQ(toString(LifecyclePhase::WalkDispatch), "walk_dispatch");
    EXPECT_STREQ(toString(LifecyclePhase::PtRead), "pt_read");
    EXPECT_STREQ(toString(LifecyclePhase::WalkFill), "walk_fill");
    EXPECT_STREQ(toString(LifecyclePhase::Wakeup), "wakeup");
    EXPECT_STREQ(toString(LifecyclePhase::SmSched), "sm_sched");
}

TEST(Tracer, RecordsStampsInOrder)
{
    TracedStream traced;
    TranslationTracer &tracer = traced.tracer;
    traced.emit(LifecyclePhase::L1Miss, 10, 0, 0x100, 3);
    traced.emit(LifecyclePhase::L2Lookup, 12, 0, 0x100);
    EXPECT_EQ(tracer.stampsRecorded(), 2u);
    EXPECT_EQ(tracer.stampsDropped(), 0u);
    auto stamps = tracer.stamps();
    ASSERT_EQ(stamps.size(), 2u);
    EXPECT_EQ(stamps[0].phase, LifecyclePhase::L1Miss);
    EXPECT_EQ(stamps[0].cycle, 10u);
    EXPECT_EQ(stamps[0].where, 3u);
    EXPECT_EQ(stamps[1].phase, LifecyclePhase::L2Lookup);
    EXPECT_EQ(stamps[1].where, kNoWhere);
}

TEST(Tracer, RingOverwritesOldest)
{
    TracedStream traced(4);
    TranslationTracer &tracer = traced.tracer;
    for (Cycle c = 0; c < 6; ++c)
        traced.emit(LifecyclePhase::L1Miss, c, 0, c);
    EXPECT_EQ(tracer.stampsRecorded(), 6u);
    EXPECT_EQ(tracer.stampsDropped(), 2u);
    auto stamps = tracer.stamps();
    ASSERT_EQ(stamps.size(), 4u);
    // Oldest-first: cycles 2..5 survive.
    EXPECT_EQ(stamps.front().cycle, 2u);
    EXPECT_EQ(stamps.back().cycle, 5u);
}

TEST(Tracer, ReconstructsWalkSpanWithPhaseAttribution)
{
    TracedStream traced;
    TranslationTracer &tracer = traced.tracer;
    // The earlier phases are stamps only; the span is the fill's record.
    traced.emit(LifecyclePhase::WalkCreated, 100, 7, 0xabc);
    traced.emit(LifecyclePhase::BackendSubmit, 100, 7, 0xabc);
    traced.emit(LifecyclePhase::WalkDispatch, 130, 7, 0xabc, 2);
    traced.emit(LifecyclePhase::PtRead, 140, 7, 0xabc);
    traced.emit(LifecyclePhase::PtRead, 180, 7, 0xabc);
    EXPECT_EQ(tracer.spansCompleted(), 0u);
    traced.fill(230, 7, 0xabc, 30, 100, 2, 2);

    EXPECT_EQ(tracer.stampsRecorded(), 6u);
    EXPECT_EQ(tracer.spansCompleted(), 1u);
    auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].id, 7u);
    EXPECT_EQ(spans[0].vpn, 0xabcu);
    EXPECT_EQ(spans[0].created, 100u);
    EXPECT_EQ(spans[0].dispatched, 130u);
    EXPECT_EQ(spans[0].filled, 230u);
    EXPECT_EQ(spans[0].ptReads, 2u);
    EXPECT_EQ(spans[0].where, 2u);

    EXPECT_DOUBLE_EQ(tracer.queuePhase().mean(), 30.0);
    EXPECT_DOUBLE_EQ(tracer.walkPhase().mean(), 100.0);
    EXPECT_DOUBLE_EQ(tracer.totalPhase().mean(), 130.0);
    EXPECT_DOUBLE_EQ(tracer.ptReadsPerWalk().mean(), 2.0);
}

TEST(Tracer, ResetAttributionKeepsHistory)
{
    TracedStream traced;
    TranslationTracer &tracer = traced.tracer;
    traced.emit(LifecyclePhase::WalkCreated, 10, 1, 0x1);
    traced.fill(30, 1, 0x1, 5, 15, 0, 4);
    tracer.resetAttribution();
    EXPECT_EQ(tracer.totalPhase().count, 0u);
    // Raw history survives the warmup reset; only attribution is zeroed.
    EXPECT_EQ(tracer.stamps().size(), 2u);
    EXPECT_EQ(tracer.spans().size(), 1u);
}

TEST(Tracer, WriteTraceJsonEmitsEventArray)
{
    TracedStream traced;
    TranslationTracer &tracer = traced.tracer;
    traced.emit(LifecyclePhase::WalkCreated, 100, 7, 0xabc);
    traced.emit(LifecyclePhase::WalkDispatch, 130, 7, 0xabc, 2);
    traced.fill(230, 7, 0xabc, 30, 100, 2);

    std::ostringstream out;
    tracer.writeTraceJson(out);
    std::string json = out.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json[json.size() - 2], ']');  // trailing newline after ]
    // One "X" span pair per completed walk plus "i" instants per stamp.
    EXPECT_NE(json.find("\"name\":\"queue\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"walk\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"walk_dispatch\""), std::string::npos);
    EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
}

/**
 * The tracer's trace bytes: @p body is everything before the closing
 * bracket.  Hostprof builds append their host-side events after it.
 */
void
expectTraceJson(const TranslationTracer &tracer, const std::string &body)
{
    std::ostringstream out;
    tracer.writeTraceJson(out);
    const std::string json = out.str();
    if (prof::kHostProfCompiled) {
        ASSERT_GE(json.size(), body.size());
        EXPECT_EQ(json.substr(0, body.size()), body);
        EXPECT_EQ(json.substr(json.size() - 2), "]\n");
    } else {
        EXPECT_EQ(json, body + "]\n");
    }
}

TEST(Tracer, WriteTraceJsonOfAnEmptyTracer)
{
    TranslationTracer tracer;
    expectTraceJson(tracer, "[");
}

TEST(Tracer, WriteTraceJsonBytesAfterBothRingsWrap)
{
    TracedStream traced(4);
    TranslationTracer &tracer = traced.tracer;
    // Walk 1 is the span the span ring drops.
    traced.emit(LifecyclePhase::WalkCreated, 10, 1, 257);
    traced.emit(LifecyclePhase::WalkDispatch, 20, 1, 257, 1);
    traced.fill(30, 1, 257, 10, 10, 1);
    // Walk 2's record names no walker and no queue delay: all of it is
    // walk phase, tid 0.
    traced.emit(LifecyclePhase::WalkCreated, 40, 2, 258);
    traced.fill(70, 2, 258, 0, 30);
    traced.emit(LifecyclePhase::WalkCreated, 80, 3, 259);
    traced.emit(LifecyclePhase::WalkDispatch, 85, 3, 259, 7);
    traced.emit(LifecyclePhase::PtRead, 90, 3, 259);
    traced.emit(LifecyclePhase::PtRead, 95, 3, 259);
    traced.fill(120, 3, 259, 5, 35, 7, 2);
    traced.emit(LifecyclePhase::WalkCreated, 130, 4, 260, kNoWhere, 3);
    traced.emit(LifecyclePhase::WalkDispatch, 131, 4, 260, 0, 3);
    traced.fill(140, 4, 260, 1, 9, 0, 0, 3);
    traced.emit(LifecyclePhase::WalkCreated, 150, 5, 261);
    traced.emit(LifecyclePhase::WalkDispatch, 160, 5, 261, kNoWhere - 1);
    traced.fill(200, 5, 261, 10, 40, kNoWhere - 1);
    traced.emit(LifecyclePhase::L1Miss, 210, 0, 262, 5);
    traced.emit(LifecyclePhase::Wakeup, 220, 0, 262);

    EXPECT_EQ(tracer.stampsRecorded(), 18u);
    EXPECT_EQ(tracer.stampsDropped(), 14u);
    EXPECT_EQ(tracer.spansCompleted(), 5u);
    EXPECT_EQ(tracer.spansDropped(), 1u);
    expectTraceJson(
        tracer,
        "[{\"name\":\"queue\",\"cat\":\"walk\",\"ph\":\"X\",\"ts\":40,"
        "\"dur\":0,\"pid\":0,\"tid\":0,"
        "\"args\":{\"id\":2,\"vpn\":258,\"asid\":0}},\n"
        "{\"name\":\"walk\",\"cat\":\"walk\",\"ph\":\"X\",\"ts\":40,"
        "\"dur\":30,\"pid\":0,\"tid\":0,"
        "\"args\":{\"id\":2,\"vpn\":258,\"asid\":0,\"pt_reads\":0}},\n"
        "{\"name\":\"queue\",\"cat\":\"walk\",\"ph\":\"X\",\"ts\":80,"
        "\"dur\":5,\"pid\":0,\"tid\":7,"
        "\"args\":{\"id\":3,\"vpn\":259,\"asid\":0}},\n"
        "{\"name\":\"walk\",\"cat\":\"walk\",\"ph\":\"X\",\"ts\":85,"
        "\"dur\":35,\"pid\":0,\"tid\":7,"
        "\"args\":{\"id\":3,\"vpn\":259,\"asid\":0,\"pt_reads\":2}},\n"
        "{\"name\":\"queue\",\"cat\":\"walk\",\"ph\":\"X\",\"ts\":130,"
        "\"dur\":1,\"pid\":0,\"tid\":0,"
        "\"args\":{\"id\":4,\"vpn\":260,\"asid\":3}},\n"
        "{\"name\":\"walk\",\"cat\":\"walk\",\"ph\":\"X\",\"ts\":131,"
        "\"dur\":9,\"pid\":0,\"tid\":0,"
        "\"args\":{\"id\":4,\"vpn\":260,\"asid\":3,\"pt_reads\":0}},\n"
        "{\"name\":\"queue\",\"cat\":\"walk\",\"ph\":\"X\",\"ts\":150,"
        "\"dur\":10,\"pid\":0,\"tid\":4294967294,"
        "\"args\":{\"id\":5,\"vpn\":261,\"asid\":0}},\n"
        "{\"name\":\"walk\",\"cat\":\"walk\",\"ph\":\"X\",\"ts\":160,"
        "\"dur\":40,\"pid\":0,\"tid\":4294967294,"
        "\"args\":{\"id\":5,\"vpn\":261,\"asid\":0,\"pt_reads\":0}},\n"
        "{\"name\":\"walk_dispatch\",\"cat\":\"phase\",\"ph\":\"i\","
        "\"s\":\"t\",\"ts\":160,\"pid\":0,\"tid\":4294967294,"
        "\"args\":{\"id\":5,\"vpn\":261,\"asid\":0}},\n"
        "{\"name\":\"walk_fill\",\"cat\":\"phase\",\"ph\":\"i\","
        "\"s\":\"t\",\"ts\":200,\"pid\":0,\"tid\":0,"
        "\"args\":{\"id\":5,\"vpn\":261,\"asid\":0}},\n"
        "{\"name\":\"l1_miss\",\"cat\":\"phase\",\"ph\":\"i\","
        "\"s\":\"t\",\"ts\":210,\"pid\":0,\"tid\":5,"
        "\"args\":{\"id\":0,\"vpn\":262,\"asid\":0}},\n"
        "{\"name\":\"wakeup\",\"cat\":\"phase\",\"ph\":\"i\","
        "\"s\":\"t\",\"ts\":220,\"pid\":0,\"tid\":0,"
        "\"args\":{\"id\":0,\"vpn\":262,\"asid\":0}}");
}

TEST(Tracer, IgnoresLedgerOnlyPhases)
{
    TracedStream traced;
    traced.emit(LifecyclePhase::L1Hit, 1, 0, 0x1, 0);
    traced.emit(LifecyclePhase::SmSched, 2, 0, 0, 0);
    traced.emit(LifecyclePhase::PwReserve, 3, 0, 0, 0);
    EXPECT_EQ(traced.tracer.stampsRecorded(), 0u);
}

TEST(Tracer, MacroSkipsNullTracer)
{
    LifecycleStream stream;
    EXPECT_FALSE(stream.observed());
    // Must not crash: with no consumer the event is never built.
    SW_LIFECYCLE(stream, LifecyclePhase::L1Miss, 1, 0, {0, 0x1});
    TranslationTracer real;
    stream.observe(&real, nullptr, nullptr);
    EXPECT_TRUE(stream.observed());
    SW_LIFECYCLE(stream, LifecyclePhase::L1Miss, 1, 0, {0, 0x1});
    EXPECT_EQ(real.stampsRecorded(), 1u);
    stream.observe(nullptr, nullptr, nullptr);
    EXPECT_FALSE(stream.observed());
}

} // namespace
