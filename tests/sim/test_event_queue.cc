/** @file Unit tests for the event queue kernel. */

#include <gtest/gtest.h>

#include <vector>

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

TEST(EventQueue, RunHonoursPredicate)
{
    EventQueue eq;
    int fired = 0;
    for (Cycle c = 1; c <= 10; ++c)
        eq.schedule(c, [&]() { ++fired; });
    eq.run(kCycleMax, [&]() { return fired >= 4; });
    EXPECT_EQ(fired, 4);
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
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
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
    Cycle last = 0;
    bool monotonic = true;
    for (int i = 0; i < 1000; ++i) {
        Cycle when = Cycle((i * 7919) % 997);
        eq.schedule(when, [&, when]() {
            if (eq.now() < last)
                monotonic = false;
            last = eq.now();
            EXPECT_EQ(eq.now(), when);
        });
    }
    eq.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(eq.eventsExecuted(), 1000u);
}
