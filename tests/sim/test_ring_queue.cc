/** @file Tests for RingQueue, the growing FIFO ring (src/sim). */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <vector>

#include "sim/ring_queue.hh"
#include "sim/rng.hh"

using namespace sw;

namespace {

TEST(RingQueue, StartsEmptyWithoutStorage)
{
    RingQueue<int> queue;
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(queue.capacity(), 0u);
}

TEST(RingQueue, GrowsOnlyWhenFullAndKeepsOrderAcrossTheWrap)
{
    RingQueue<int> queue;
    for (int i = 0; i < 8; ++i)
        queue.pushBack(i);
    EXPECT_EQ(queue.capacity(), 8u);
    // Slide: the head moves past the array's end and the tail wraps.
    for (int i = 8; i < 13; ++i) {
        queue.popFront();
        queue.pushBack(i);
    }
    EXPECT_EQ(queue.capacity(), 8u);
    EXPECT_EQ(queue.front(), 5);
    EXPECT_EQ(queue.back(), 12);
    // Full and wrapped: the next push doubles and unwraps the ring.
    queue.pushBack(13);
    EXPECT_EQ(queue.capacity(), 16u);
    for (int expect = 5; expect <= 13; ++expect) {
        ASSERT_FALSE(queue.empty());
        EXPECT_EQ(queue.front(), expect);
        queue.popFront();
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.capacity(), 16u);
}

TEST(RingQueue, BackIsWritable)
{
    RingQueue<int> queue;
    queue.pushBack(1);
    queue.pushBack(2);
    queue.back() = 7;
    queue.front() = 6;
    EXPECT_EQ(queue.front(), 6);
    queue.popFront();
    EXPECT_EQ(queue.front(), 7);
}

TEST(RingQueue, MatchesDequeUnderRandomTraffic)
{
    RingQueue<std::uint64_t> queue;
    std::deque<std::uint64_t> model;
    std::size_t peak = 0;
    Rng rng(7);
    for (std::uint64_t step = 0; step < 20000; ++step) {
        if (model.empty() || rng.range(2) != 0) {
            queue.pushBack(step);
            model.push_back(step);
        } else {
            ASSERT_EQ(queue.front(), model.front());
            queue.popFront();
            model.pop_front();
        }
        ASSERT_EQ(queue.size(), model.size());
        if (!model.empty()) {
            ASSERT_EQ(queue.back(), model.back());
        }
        peak = std::max(peak, model.size());
    }
    // It grew only when full: to the first power of two holding the peak.
    EXPECT_EQ(queue.capacity(), std::max<std::size_t>(8, std::bit_ceil(peak)));
}

TEST(RingQueue, RemoveIfKeepsTheRestInOrderAcrossTheWrap)
{
    RingQueue<int> queue;
    for (int i = 0; i < 8; ++i)
        queue.pushBack(i);
    for (int i = 8; i < 13; ++i) {
        queue.popFront();
        queue.pushBack(i);   // wrapped: 5..12 over the array's end
    }
    std::vector<int> seen;
    queue.removeIf([&seen](int value) {
        seen.push_back(value);
        return value % 3 == 0;
    });
    EXPECT_EQ(seen, (std::vector<int>{5, 6, 7, 8, 9, 10, 11, 12}));
    EXPECT_EQ(queue.size(), 5u);
    EXPECT_EQ(queue.capacity(), 8u);
    for (int expect : {5, 7, 8, 10, 11}) {
        EXPECT_EQ(queue.front(), expect);
        queue.popFront();
    }
    EXPECT_TRUE(queue.empty());

    queue.pushBack(1);
    queue.removeIf([](int) { return true; });
    EXPECT_TRUE(queue.empty());
}

TEST(RingQueue, IndexReadsOldestFirstAndClearKeepsTheArray)
{
    RingQueue<int> queue;
    for (int i = 0; i < 8; ++i)
        queue.pushBack(i);
    for (int i = 8; i < 13; ++i) {
        queue.popFront();
        queue.pushBack(i);   // wrapped: 5..12 over the array's end
    }
    for (std::size_t i = 0; i < queue.size(); ++i)
        EXPECT_EQ(queue[i], int(5 + i));

    queue.clear();
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.capacity(), 8u);
    queue.pushBack(42);
    EXPECT_EQ(queue[0], 42);
    EXPECT_EQ(queue.front(), 42);
}

TEST(RingQueueDeathTest, PopFromEmptyPanics)
{
    RingQueue<int> queue;
    EXPECT_DEATH(queue.popFront(), "pop from an empty queue");
}

TEST(RingQueueDeathTest, IndexPastSizePanics)
{
    RingQueue<int> queue;
    queue.pushBack(1);
    EXPECT_DEATH((void)queue[1], "index 1 past size 1");
}

} // namespace
