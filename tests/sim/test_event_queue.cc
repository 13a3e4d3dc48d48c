/** @file Unit tests for the event queue kernel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "mem/request.hh"
#include "sim/event_queue.hh"

using namespace sw;

TEST(EventQueue, StartsAtCycleZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RunOneAdvancesClock)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(42, [&]() { fired = true; });
    EXPECT_TRUE(eq.runOne());
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.now(), 42u);
}

TEST(EventQueue, RunOneOnEmptyReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, EventsExecuteInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameCycleEventsExecuteInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Cycle seen = 0;
    eq.schedule(100, [&]() {
        eq.scheduleIn(50, [&]() { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, SchedulingAtCurrentCycleIsAllowed)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&]() {
        eq.schedule(10, [&]() { ++count; });
    });
    eq.run();
    EXPECT_EQ(count, 1);
}

TEST(EventQueue, RunHonoursCycleLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    eq.schedule(30, [&]() { ++fired; });
    eq.run(/*cycle_limit=*/20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, EventsExecutedCounts)
{
    EventQueue eq;
    for (Cycle c = 1; c <= 5; ++c)
        eq.schedule(c, []() {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 5u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 100)
            eq.scheduleIn(1, [&chain]() { chain(); });
    };
    eq.schedule(0, [&chain]() { chain(); });
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 99u);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.runOne();
    eq.schedule(20, []() {});
    eq.reset();
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.eventsExecuted(), 0u);
}

/**
 * Regression: reset() used to leave periodic-check subscriptions behind,
 * so a recycled queue kept firing hooks owned by the previous simulation.
 */
TEST(EventQueue, ResetDropsPeriodicCheckSubscriptions)
{
    EventQueue eq;
    int stale = 0;
    eq.addPeriodicCheck(1, [&](Cycle) { ++stale; });
    std::uint64_t old_id = eq.addPeriodicCheck(1, [&](Cycle) { ++stale; });
    EXPECT_EQ(eq.numPeriodicChecks(), 2u);

    eq.reset();
    EXPECT_EQ(eq.numPeriodicChecks(), 0u);

    // A handle from before the reset never names a later subscription.
    int fired = 0;
    eq.addPeriodicCheck(1, [&](Cycle) { ++fired; });
    eq.removePeriodicCheck(old_id);
    EXPECT_EQ(eq.numPeriodicChecks(), 1u);

    for (Cycle c = 1; c <= 10; ++c)
        eq.schedule(c, []() {});
    eq.run();
    EXPECT_EQ(stale, 0) << "stale sweep hooks fired after reset()";
    EXPECT_EQ(fired, 10);
}

TEST(EventQueue, ResetRecyclesSlabSlots)
{
    EventQueue eq;
    for (int round = 0; round < 3; ++round) {
        int n = 0;
        for (Cycle c = 1; c <= 100; ++c)
            eq.schedule(c, [&]() { ++n; });
        eq.run();
        EXPECT_EQ(n, 100);
        eq.reset();
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.now(), 0u);
    }
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, []() {});
    eq.runOne();
    EXPECT_DEATH(eq.schedule(50, []() {}), "scheduled in the past");
}

/** Dense stress: interleaved schedules keep strict ordering. */
TEST(EventQueue, StressOrderingInvariant)
{
    EventQueue eq;
    struct
    {
        Cycle last = 0;
        bool monotonic = true;
    } seen;
    for (int i = 0; i < 1000; ++i) {
        Cycle when = Cycle((i * 7919) % 997);
        eq.schedule(when, [&eq, &seen, when]() {
            if (eq.now() < seen.last)
                seen.monotonic = false;
            seen.last = eq.now();
            EXPECT_EQ(eq.now(), when);
        });
    }
    eq.run();
    EXPECT_TRUE(seen.monotonic);
    EXPECT_EQ(eq.eventsExecuted(), 1000u);
}

namespace {

constexpr Cycle kSpan = EventQueue::kWheelSpan;

/**
 * A self-extending event program: every event records (id, cycle) and
 * schedules up to two children at random delays from 0 to 4 spans,
 * weighted towards zero delays and the wheel's span boundary.  Choices are
 * drawn in execution order, so two queues agree on the whole trace only
 * if they ran every event in the same order.
 */
class Program
{
  public:
    using Trace = std::vector<std::pair<std::uint64_t, Cycle>>;

    /** @p schedule(when, id) enqueues event @p id at cycle @p when. */
    template <typename Schedule>
    void
    start(Schedule schedule)
    {
        for (std::uint64_t i = 0; i < 64; ++i)
            schedule(Cycle(rng() % (4 * kSpan)), nextId++);
    }

    template <typename Schedule>
    void
    fire(std::uint64_t id, Cycle now, Schedule schedule)
    {
        trace.emplace_back(id, now);
        // 1.125 children on average: the program grows to its budget.
        unsigned children = 0;
        if (nextId < kBudget) {
            std::uint64_t roll = rng() % 8;
            children = roll == 0 ? 0 : roll < 6 ? 1 : 2;
        }
        for (unsigned c = 0; c < children; ++c)
            schedule(now + delay(), nextId++);
    }

    Trace trace;

  private:
    static constexpr std::uint64_t kBudget = 20000;

    Cycle
    delay()
    {
        switch (rng() % 8) {
          case 0:
          case 1:
            return 0;                              // same cycle
          case 2:
            return kSpan - 1 + rng() % 3;          // span boundary
          case 3:
            return rng() % 4;                      // next few cycles
          default:
            return rng() % (4 * kSpan + 1);        // anywhere
        }
    }

    std::mt19937_64 rng{12345};
    std::uint64_t nextId = 0;
};

/** The order contract, stated directly: a binary heap on (when, seq). */
Program::Trace
referenceTrace()
{
    struct Entry
    {
        Cycle when;
        std::uint64_t seq;
        std::uint64_t id;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::uint64_t seq = 0;
    auto schedule = [&](Cycle when, std::uint64_t id) {
        heap.push(Entry{when, seq++, id});
    };
    Program program;
    program.start(schedule);
    while (!heap.empty()) {
        Entry top = heap.top();
        heap.pop();
        program.fire(top.id, top.when, schedule);
    }
    return program.trace;
}

} // namespace

/**
 * Differential test of both tiers against the reference order, with
 * delays up to four spans, zero-delay self-scheduling and events on
 * either side of the span boundary.  Events with and without a record
 * pointer interleave: a third name none, a third a live request record
 * and a third a freed one.  The pointer is a prefetch hint, so none of
 * them may change the order.
 */
TEST(EventQueue, MatchesReferenceOrderAcrossBothTiers)
{
    EventQueue eq;
    Program program;
    RequestPool records;
    std::vector<RequestId> live(64);
    for (RequestId &id : live)
        id = records.alloc({});
    std::vector<RequestId> freed(live.end() - 32, live.end());
    live.resize(32);
    for (RequestId id : freed)
        records.free(id);
    auto record = [&](std::uint64_t id) -> const void * {
        switch (id % 3) {
          case 0:
            return nullptr;
          case 1:
            return &records[live[id / 3 % live.size()]];
          default:
            return &records[freed[id / 3 % freed.size()]];
        }
    };
    std::function<void(Cycle, std::uint64_t)> schedule;
    auto fire = [&](std::uint64_t id) { program.fire(id, eq.now(), schedule); };
    schedule = [&](Cycle when, std::uint64_t id) {
        eq.schedule(when, [&fire, id]() { fire(id); }, record(id));
    };
    program.start(schedule);
    std::size_t peak = eq.pending();
    while (eq.runOne())
        peak = std::max(peak, eq.pending());

    Program::Trace expected = referenceTrace();
    ASSERT_GT(expected.size(), 10000u);
    EXPECT_EQ(program.trace, expected);
    EXPECT_EQ(eq.eventsExecuted(), expected.size());
    EXPECT_GT(peak, 64u);
}

/**
 * An event scheduled a span or more ahead waits in the far heap; a later
 * event for the same cycle scheduled from closer by waits in the wheel.
 * The far one was scheduled first, so it must run first.
 */
TEST(EventQueue, FarEventRunsBeforeNearEventOfTheSameCycle)
{
    EventQueue eq;
    const Cycle target = kSpan + 10;
    std::vector<int> order;
    eq.schedule(target, [&]() { order.push_back(1); });        // far
    eq.schedule(20, [&]() {
        eq.schedule(target, [&]() { order.push_back(2); });    // near
    });
    eq.schedule(target, [&]() { order.push_back(3); });        // far
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
    EXPECT_EQ(eq.now(), target);
}

/** The span boundary itself: exactly one span ahead is far, one less is
 * near, and both still run in (cycle, insertion) order. */
TEST(EventQueue, SpanBoundaryKeepsInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(kSpan, [&]() { order.push_back(1); });         // far
    eq.schedule(kSpan - 1, [&]() { order.push_back(0); });     // near
    eq.schedule(1, [&]() {
        eq.schedule(kSpan, [&]() { order.push_back(2); });     // near
    });
    eq.schedule(kSpan, [&]() { order.push_back(3); });         // far
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 2}));
}

TEST(EventQueue, RunLimitWithOnlyFarEventsPending)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(3 * kSpan, [&]() { ++fired; });
    eq.schedule(5 * kSpan, [&]() { ++fired; });
    EXPECT_EQ(eq.run(/*cycle_limit=*/4 * kSpan), 3 * kSpan);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);

    // Nothing due at or before the limit: the clock stays put.
    EXPECT_EQ(eq.run(/*cycle_limit=*/4 * kSpan), 3 * kSpan);
    EXPECT_EQ(fired, 1);

    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5 * kSpan);
    EXPECT_TRUE(eq.empty());
}

/** reset() and the destructor drop pending handlers of both tiers
 * without running them, and a reset queue runs like a new one. */
TEST(EventQueue, ResetAndDestructionDropBothTiers)
{
    int fired = 0;
    {
        EventQueue eq;
        for (Cycle when : {Cycle(5), Cycle(5), kSpan - 1, kSpan, 9 * kSpan})
            eq.schedule(when, [&fired]() { ++fired; });
        EXPECT_EQ(eq.pending(), 5u);
        eq.runOne();
        EXPECT_EQ(fired, 1);

        eq.reset();
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.now(), 0u);
        EXPECT_EQ(eq.run(), 0u);
        EXPECT_EQ(fired, 1) << "reset() ran a dropped handler";

        // The dropped handlers' slots are reused by the new events.
        std::vector<Cycle> seen;
        for (Cycle when : {2 * kSpan, Cycle(7), Cycle(7)})
            eq.schedule(when, [&eq, &seen]() { seen.push_back(eq.now()); });
        eq.run();
        EXPECT_EQ(seen, (std::vector<Cycle>{7, 7, 2 * kSpan}));
        EXPECT_EQ(eq.eventsExecuted(), 3u);

        eq.schedule(eq.now() + 1, [&fired]() { ++fired; });
        eq.schedule(eq.now() + 3 * kSpan, [&fired]() { ++fired; });
        EXPECT_EQ(eq.pending(), 2u);
    }
    EXPECT_EQ(fired, 1) << "the destructor ran a dropped handler";
}

/** A wrapped wheel: the next event lies in a bucket before now's. */
TEST(EventQueue, WheelWrapsAroundTheSpan)
{
    EventQueue eq;
    std::vector<Cycle> seen;
    auto record = [&]() { seen.push_back(eq.now()); };
    eq.schedule(kSpan - 2, [&]() {
        record();
        eq.scheduleIn(5, record);            // bucket 3 of the next lap
        eq.scheduleIn(kSpan - 1, record);    // bucket kSpan - 3
        eq.scheduleIn(1, record);            // bucket kSpan - 1
    });
    eq.run();
    EXPECT_EQ(seen, (std::vector<Cycle>{kSpan - 2, kSpan - 1, kSpan + 3,
                                        2 * kSpan - 3}));
}
