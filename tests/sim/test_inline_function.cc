/** @file Unit tests for EventFn, the event queue's inline handler. */

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/event_queue.hh"

using namespace sw;

namespace {

/** Counts live instances so destruction balance can be asserted. */
struct Tracked
{
    static int live;

    Tracked() { ++live; }
    Tracked(const Tracked &) { ++live; }
    Tracked(Tracked &&) noexcept { ++live; }
    ~Tracked() { --live; }
};

int Tracked::live = 0;

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

TEST(InlineFunction, SmallCaptureStaysInline)
{
    int x = 41;
    int out = 0;
    EventFn fn([x, &out]() { out = x + 1; });
    static_assert(sizeof(EventFn) == kEventInlineBytes + 2 * sizeof(void *),
                  "an EventFn is its capture plus two function pointers");
    fn();
    EXPECT_EQ(out, 42);
}

TEST(InlineFunction, CaptureAtExactCapacityStaysInline)
{
    std::array<std::uint8_t, kEventInlineBytes - sizeof(int *)> blob{};
    blob[0] = 7;
    int out = 0;
    auto lam = [blob, out_ptr = &out]() { *out_ptr = blob[0]; };
    static_assert(sizeof(lam) == kEventInlineBytes);

    EventQueue eq;
    eq.schedule(4, lam);
    eq.run();
    EXPECT_EQ(out, 7);
    EXPECT_EQ(eq.eventsExecuted(), 1u);
}

/**
 * The closure rule is a compile error, not a fallback: a capture one
 * word past the slot, or one that needs more alignment than the slot
 * gives, cannot make an EventFn, and an EventFn never moves.
 */
TEST(InlineFunction, OnlyFittingCapturesMakeHandlers)
{
    std::array<std::uint8_t, kEventInlineBytes + 8> blob{};
    auto oversized = [blob]() { (void)blob; };
    static_assert(!std::is_constructible_v<EventFn, decltype(oversized)>);
    static_assert(!EventHandler<decltype(oversized)>);

    struct alignas(2 * alignof(std::max_align_t)) OverAligned
    {
        int value;
    };
    auto over_aligned = [v = OverAligned{}]() { (void)v; };
    static_assert(sizeof(over_aligned) <= kEventInlineBytes);
    static_assert(!std::is_constructible_v<EventFn, decltype(over_aligned)>);

    static_assert(!std::is_move_constructible_v<EventFn>);
    static_assert(!std::is_copy_constructible_v<EventFn>);
    static_assert(!std::is_default_constructible_v<EventFn>);
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
        std::is_constructible_v<EventFn, decltype(hop)>,
        "80-byte inline budget no longer fits this+WalkRequest captures");
}

TEST(InlineFunction, MoveOnlyCallable)
{
    auto ptr = std::make_unique<int>(99);
    int out = 0;
    EventFn fn([p = std::move(ptr), &out]() { out = *p; });
    fn();
    EXPECT_EQ(out, 99);
}

TEST(InlineFunction, DestructionBalancesForBothStorageKinds)
{
    Tracked::live = 0;
    {
        Tracked t;
        EventFn fn([t]() {});
        EXPECT_EQ(Tracked::live, 2);
    }
    EXPECT_EQ(Tracked::live, 0) << "a capture leaked";
}

/**
 * The event queue builds each handler in its slab slot straight from the
 * scheduled callable and runs it there: one move of the capture in all,
 * and none when the event runs.
 */
TEST(InlineFunction, EventQueueBuildsHandlersInPlace)
{
    MoveCount::resetCounters();
    Tracked::live = 0;
    EventQueue eq;
    int ran = 0;
    auto handler = [&ran, count = MoveCount{}, tracked = Tracked{}]() {
        ++ran;
    };
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
