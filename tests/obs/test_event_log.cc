/**
 * @file
 * Tests for the NDJSON event log (src/obs/event_log), driven through the
 * lifecycle stream the machine emits into: the exact bytes of every
 * record shape (meta, walk on both walk paths, fault, sample with all
 * eleven ledger categories, reset), arrival order, and size().
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "obs/cycle_ledger.hh"
#include "obs/event_log.hh"
#include "obs/lifecycle.hh"

using namespace sw;

namespace {

constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
constexpr Asid kMaxAsid = std::numeric_limits<Asid>::max();

const std::string kMeta =
    "{\"type\":\"meta\",\"schema\":\"softwalker.events/1\"}\n";

/** An event log fed through its own lifecycle stream, as the Gpu wires it. */
struct LoggedStream
{
    LoggedStream() { stream.observe(nullptr, nullptr, &log); }

    void
    emit(LifecyclePhase phase, Cycle cycle, std::uint64_t id,
         TranslationKey key, bool software, Cycle a = 0, Cycle b = 0)
    {
        SW_LIFECYCLE(stream, phase, cycle, id, key, 3, software, a, b);
    }

    std::string
    written() const
    {
        std::ostringstream out;
        log.write(out);
        return out.str();
    }

    EventLog log;
    LifecycleStream stream;
};

TEST(EventLog, FreshLogHoldsOnlyTheMetaRecord)
{
    LoggedStream logged;
    EXPECT_EQ(logged.log.size(), 1u);
    EXPECT_EQ(logged.written(), kMeta);
}

TEST(EventLog, WalkRecordsOnBothWalkPaths)
{
    LoggedStream logged;
    logged.emit(LifecyclePhase::WalkFill, 1234, 7, {2, 0xabcdef}, true, 40,
                310);
    logged.emit(LifecyclePhase::WalkFill, kMax64, kMax64, {kMaxAsid, kMax64},
                false, 0, kMax64);
    EXPECT_EQ(logged.log.size(), 3u);
    EXPECT_EQ(logged.written(),
              kMeta +
                  "{\"type\":\"walk\",\"cycle\":1234,\"id\":7,\"asid\":2,"
                  "\"vpn\":11259375,\"sw\":true,\"queue_delay\":40,"
                  "\"access_latency\":310}\n"
                  "{\"type\":\"walk\",\"cycle\":18446744073709551615,"
                  "\"id\":18446744073709551615,\"asid\":4294967295,"
                  "\"vpn\":18446744073709551615,\"sw\":false,"
                  "\"queue_delay\":0,"
                  "\"access_latency\":18446744073709551615}\n");
}

TEST(EventLog, FaultRecordsOnBothWalkPaths)
{
    LoggedStream logged;
    logged.emit(LifecyclePhase::Fault, 90, 12, {1, 0x40}, true);
    logged.emit(LifecyclePhase::Fault, 0, 1, {0, 0}, false);
    EXPECT_EQ(logged.log.size(), 3u);
    EXPECT_EQ(logged.written(),
              kMeta +
                  "{\"type\":\"fault\",\"cycle\":90,\"id\":12,\"asid\":1,"
                  "\"vpn\":64,\"sw\":true}\n"
                  "{\"type\":\"fault\",\"cycle\":0,\"id\":1,\"asid\":0,"
                  "\"vpn\":0,\"sw\":false}\n");
}

TEST(EventLog, SampleRecordCarriesEveryLedgerCategory)
{
    LoggedStream logged;
    std::array<Cycle, kNumLedgerCategories> deltas{};
    for (std::size_t cat = 0; cat < kNumLedgerCategories; ++cat)
        deltas[cat] = 100 * cat + 1;
    deltas[kNumLedgerCategories - 1] = kMax64;
    logged.log.sample(5000, deltas);
    EXPECT_EQ(logged.log.size(), 2u);
    EXPECT_EQ(logged.written(),
              kMeta +
                  "{\"type\":\"sample\",\"cycle\":5000,\"ledger\":{"
                  "\"idle\":1,\"issue_execute\":101,\"mem_wait\":201,"
                  "\"trans_l1_miss\":301,\"trans_l2_queue\":401,"
                  "\"trans_intlb_mshr\":501,\"trans_walk_dispatch\":601,"
                  "\"trans_pw_exec\":701,\"trans_ptw_exec\":801,"
                  "\"trans_fault\":901,"
                  "\"pw_occupancy\":18446744073709551615}}\n");
}

TEST(EventLog, ResetRecord)
{
    LoggedStream logged;
    logged.log.resetMark(2500);
    EXPECT_EQ(logged.log.size(), 2u);
    EXPECT_EQ(logged.written(),
              kMeta + "{\"type\":\"reset\",\"cycle\":2500}\n");
}

TEST(EventLog, RecordsKeepArrivalOrderAndSkipOtherPhases)
{
    LoggedStream logged;
    std::array<Cycle, kNumLedgerCategories> first{};
    first[0] = 10;
    std::array<Cycle, kNumLedgerCategories> second{};
    second[1] = 20;
    // Phases other than WalkFill and Fault leave no record.
    logged.emit(LifecyclePhase::L1Miss, 1, 0, {0, 5}, false);
    logged.emit(LifecyclePhase::WalkCreated, 2, 4, {0, 5}, false);
    logged.emit(LifecyclePhase::WalkDispatch, 3, 4, {0, 5}, false);
    logged.emit(LifecyclePhase::FaultReplay, 4, 4, {0, 5}, false, 1);
    logged.emit(LifecyclePhase::SmSched, 5, 0, {}, false, 1, 1);
    logged.log.sample(100, first);
    logged.emit(LifecyclePhase::WalkFill, 150, 4, {0, 5}, false, 2, 148);
    logged.log.resetMark(200);
    logged.emit(LifecyclePhase::Fault, 250, 9, {1, 6}, true);
    logged.log.sample(300, second);
    EXPECT_EQ(logged.log.size(), 6u);
    const std::string expected =
        kMeta +
        "{\"type\":\"sample\",\"cycle\":100,\"ledger\":{\"idle\":10,"
        "\"issue_execute\":0,\"mem_wait\":0,\"trans_l1_miss\":0,"
        "\"trans_l2_queue\":0,\"trans_intlb_mshr\":0,"
        "\"trans_walk_dispatch\":0,\"trans_pw_exec\":0,"
        "\"trans_ptw_exec\":0,\"trans_fault\":0,\"pw_occupancy\":0}}\n"
        "{\"type\":\"walk\",\"cycle\":150,\"id\":4,\"asid\":0,\"vpn\":5,"
        "\"sw\":false,\"queue_delay\":2,\"access_latency\":148}\n"
        "{\"type\":\"reset\",\"cycle\":200}\n"
        "{\"type\":\"fault\",\"cycle\":250,\"id\":9,\"asid\":1,\"vpn\":6,"
        "\"sw\":true}\n"
        "{\"type\":\"sample\",\"cycle\":300,\"ledger\":{\"idle\":0,"
        "\"issue_execute\":20,\"mem_wait\":0,\"trans_l1_miss\":0,"
        "\"trans_l2_queue\":0,\"trans_intlb_mshr\":0,"
        "\"trans_walk_dispatch\":0,\"trans_pw_exec\":0,"
        "\"trans_ptw_exec\":0,\"trans_fault\":0,\"pw_occupancy\":0}}\n";
    EXPECT_EQ(logged.written(), expected);
    // Writing renders the records again; it does not consume them.
    EXPECT_EQ(logged.written(), expected);
}

} // namespace
