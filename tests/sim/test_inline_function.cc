/** @file Unit tests for InlineFunction and its slab pool. */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/inline_function.hh"

using namespace sw;

namespace {

using Fn48 = InlineFunction<int(), 48>;

/** Counts live instances so destruction/move balance can be asserted. */
struct Tracked
{
    static int live;
    static int destroyed;

    Tracked() { ++live; }
    Tracked(const Tracked &) { ++live; }
    Tracked(Tracked &&) noexcept { ++live; }
    ~Tracked()
    {
        --live;
        ++destroyed;
    }

    static void
    resetCounters()
    {
        live = 0;
        destroyed = 0;
    }
};

int Tracked::live = 0;
int Tracked::destroyed = 0;

/** Counts how often a capture is moved or copied. */
struct MoveCount
{
    static int moves;
    static int copies;

    MoveCount() = default;
    MoveCount(const MoveCount &) noexcept { ++copies; }
    MoveCount(MoveCount &&) noexcept { ++moves; }

    static void
    resetCounters()
    {
        moves = 0;
        copies = 0;
    }
};

int MoveCount::moves = 0;
int MoveCount::copies = 0;

} // namespace

TEST(InlineFunction, DefaultConstructedIsEmpty)
{
    Fn48 fn;
    EXPECT_FALSE(fn);
    EXPECT_FALSE(fn.onHeap());
    Fn48 null_fn(nullptr);
    EXPECT_FALSE(null_fn);
}

TEST(InlineFunction, SmallCaptureStaysInline)
{
    int x = 41;
    Fn48 fn = [x]() { return x + 1; };
    static_assert(Fn48::fitsInline<decltype([x]() { return x; })>());
    ASSERT_TRUE(fn);
    EXPECT_FALSE(fn.onHeap());
    EXPECT_EQ(fn(), 42);
}

TEST(InlineFunction, CaptureAtExactCapacityStaysInline)
{
    std::array<std::uint8_t, 48> blob{};
    blob[0] = 7;
    auto lam = [blob]() { return int(blob[0]); };
    static_assert(sizeof(lam) == 48);
    static_assert(Fn48::fitsInline<decltype(lam)>());
    Fn48 fn = lam;
    EXPECT_FALSE(fn.onHeap());
    EXPECT_EQ(fn(), 7);
}

TEST(InlineFunction, OversizedCaptureSpillsToSlab)
{
    std::array<std::uint8_t, 64> blob{};
    blob[5] = 9;
    auto lam = [blob]() { return int(blob[5]); };
    static_assert(!Fn48::fitsInline<decltype(lam)>());
    Fn48 fn = lam;
    ASSERT_TRUE(fn);
    EXPECT_TRUE(fn.onHeap());
    EXPECT_EQ(fn(), 9);
}

TEST(InlineFunction, EventFnCapacityMatchesHotPathCaptures)
{
    // The event queue's inline budget must keep covering the largest
    // hot-path capture shape: this + a 64-byte WalkRequest-sized payload.
    struct FakeReq
    {
        std::uint8_t bytes[64];
    };
    void *self = nullptr;
    FakeReq req{};
    auto hop = [self, req]() { (void)self; };
    static_assert(
        InlineFunction<void(), 80>::fitsInline<decltype(hop)>(),
        "80-byte inline budget no longer fits this+WalkRequest captures");
}

TEST(InlineFunction, MoveOnlyCallable)
{
    auto ptr = std::make_unique<int>(99);
    Fn48 fn = [p = std::move(ptr)]() { return *p; };
    ASSERT_TRUE(fn);
    EXPECT_EQ(fn(), 99);

    Fn48 moved = std::move(fn);
    EXPECT_FALSE(fn);
    EXPECT_EQ(moved(), 99);
}

TEST(InlineFunction, MoveTransfersInlineCapture)
{
    Tracked::resetCounters();
    {
        Tracked t;
        Fn48 a = [t]() { return Tracked::live; };
        Fn48 b = std::move(a);
        EXPECT_FALSE(a);
        ASSERT_TRUE(b);
        b();
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFunction, MoveOfHeapCaptureOnlyMovesThePointer)
{
    Tracked::resetCounters();
    {
        std::array<std::uint8_t, 100> pad{};
        Tracked t;
        Fn48 a = [t, pad]() { return int(pad[0]); };
        ASSERT_TRUE(a.onHeap());
        int live_before_move = Tracked::live;
        Fn48 b = std::move(a);
        // A slab-resident capture changes hands by pointer: no Tracked
        // instance is constructed or destroyed by the move itself.
        EXPECT_EQ(Tracked::live, live_before_move);
        EXPECT_TRUE(b.onHeap());
        b();
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFunction, DestructionBalancesForBothStorageKinds)
{
    Tracked::resetCounters();
    {
        Tracked t;
        Fn48 inline_fn = [t]() { return 0; };
        std::array<std::uint8_t, 100> pad{};
        Fn48 heap_fn = [t, pad]() { return int(pad[0]); };
        EXPECT_FALSE(inline_fn.onHeap());
        EXPECT_TRUE(heap_fn.onHeap());
    }
    EXPECT_EQ(Tracked::live, 0) << "a capture leaked";
}

TEST(InlineFunction, MoveAssignmentDestroysPreviousTarget)
{
    Tracked::resetCounters();
    {
        Tracked t;
        Fn48 a = [t]() { return 1; };
        Fn48 b = [t]() { return 2; };
        int destroyed_before = Tracked::destroyed;
        b = std::move(a);
        EXPECT_GT(Tracked::destroyed, destroyed_before)
            << "move-assign must destroy the old capture";
        EXPECT_EQ(b(), 1);
        EXPECT_FALSE(a);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFunction, SelfMoveAssignIsHarmless)
{
    int x = 5;
    Fn48 fn = [x]() { return x; };
    Fn48 &alias = fn;
    fn = std::move(alias);
    ASSERT_TRUE(fn);
    EXPECT_EQ(fn(), 5);
}

TEST(InlineFunction, ArgumentsAndReturnForwarding)
{
    InlineFunction<int(int, int), 48> add = [](int a, int b) {
        return a + b;
    };
    EXPECT_EQ(add(20, 22), 42);

    InlineFunction<std::unique_ptr<int>(int), 48> box = [](int v) {
        return std::make_unique<int>(v);
    };
    EXPECT_EQ(*box(7), 7);
}

TEST(InlineFunctionDeath, InvokingEmptyPanics)
{
    Fn48 fn;
    EXPECT_DEATH(fn(), "empty InlineFunction invoked");
}

TEST(SlabPool, RecyclesBlocksThroughTheFreelist)
{
    std::size_t base = detail::SlabPool::freeBlocks();
    void *block = detail::SlabPool::allocate(100);
    ASSERT_NE(block, nullptr);
    detail::SlabPool::deallocate(block, 100);
    EXPECT_EQ(detail::SlabPool::freeBlocks(), base + 1);

    // Same size class: the freelist block is handed straight back.
    void *again = detail::SlabPool::allocate(120);
    EXPECT_EQ(again, block);
    EXPECT_EQ(detail::SlabPool::freeBlocks(), base);
    detail::SlabPool::deallocate(again, 120);
}

TEST(SlabPool, OversizedRequestsBypassTheFreelists)
{
    std::size_t base = detail::SlabPool::freeBlocks();
    void *big = detail::SlabPool::allocate(4096);
    ASSERT_NE(big, nullptr);
    detail::SlabPool::deallocate(big, 4096);
    EXPECT_EQ(detail::SlabPool::freeBlocks(), base);
}

TEST(SlabPool, DistinctSizeClassesDoNotMix)
{
    std::size_t base = detail::SlabPool::freeBlocks();
    void *small = detail::SlabPool::allocate(64);
    void *large = detail::SlabPool::allocate(512);
    detail::SlabPool::deallocate(small, 64);
    detail::SlabPool::deallocate(large, 512);
    EXPECT_EQ(detail::SlabPool::freeBlocks(), base + 2);

    // A 512-class request must not be satisfied by the 64-byte block.
    void *again = detail::SlabPool::allocate(400);
    EXPECT_EQ(again, large);
    detail::SlabPool::deallocate(again, 400);
}

/**
 * The event queue builds each handler in its slab slot straight from the
 * scheduled callable and runs it there: one move of the capture in all,
 * and none when the event runs.
 */
TEST(InlineFunction, EventQueueBuildsHandlersInPlace)
{
    MoveCount::resetCounters();
    Tracked::resetCounters();
    EventQueue eq;
    int ran = 0;
    auto handler = [&ran, count = MoveCount{}, tracked = Tracked{}]() {
        ++ran;
    };
    static_assert(EventFn::fitsInline<decltype(handler)>());
    eq.schedule(10, std::move(handler));
    EXPECT_EQ(MoveCount::moves, 1);
    EXPECT_EQ(MoveCount::copies, 0);
    EXPECT_EQ(Tracked::live, 2);   // the slot's copy + the moved-from one

    eq.run();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(MoveCount::moves, 1) << "dispatch moved the handler";
    EXPECT_EQ(MoveCount::copies, 0);
    EXPECT_EQ(Tracked::live, 1) << "the slot's handler was not destroyed";
}

/**
 * A capture too large for the slot is built once in a slab-pool block,
 * runs from there, and its block goes back to the pool's freelist.
 */
TEST(InlineFunction, EventQueueBuildsSpilledHandlersInPlace)
{
    std::array<std::uint8_t, 2 * kEventInlineBytes> blob{};
    blob[3] = 7;
    MoveCount::resetCounters();
    Tracked::resetCounters();
    auto handler = [blob, count = MoveCount{}, tracked = Tracked{}]() {
        EXPECT_EQ(blob[3], 7);
    };
    static_assert(!EventFn::fitsInline<decltype(handler)>());

    // Park one block of the handler's size class on the freelist.
    detail::SlabPool::deallocate(
        detail::SlabPool::allocate(sizeof(handler)), sizeof(handler));
    std::size_t parked = detail::SlabPool::freeBlocks();

    {
        EventQueue eq;
        eq.schedule(3, std::move(handler));
        EXPECT_EQ(detail::SlabPool::freeBlocks(), parked - 1);
        EXPECT_EQ(MoveCount::moves, 1);
        EXPECT_EQ(Tracked::live, 2);

        eq.run();
        EXPECT_EQ(eq.eventsExecuted(), 1u);
        EXPECT_EQ(MoveCount::moves, 1) << "dispatch moved the handler";
        EXPECT_EQ(MoveCount::copies, 0);
        EXPECT_EQ(Tracked::live, 1);
        EXPECT_EQ(detail::SlabPool::freeBlocks(), parked);
    }
}
