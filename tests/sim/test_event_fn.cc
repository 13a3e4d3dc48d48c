/** @file Unit tests for EventFn, the event queue's inline handler. */

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "vm/address.hh"

using namespace sw;

namespace {

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

/** A component building the handler shapes the simulator schedules. */
struct Component
{
    /** A request's next stage (caches, TLBs, SM issue). */
    auto
    requestHandler(RequestId id)
    {
        return [this, id]() { lastId = id; };
    }

    /** A translation's next stage (the fault replay). */
    auto
    keyHandler(TranslationKey key)
    {
        return [this, key]() { lastKey = key; };
    }

    /** A PW Warp lane's LDPT issue. */
    auto
    laneHandler(std::uint32_t lane, PhysAddr addr)
    {
        return [this, lane, addr]() {
            lastLane = lane;
            lastAddr = addr;
        };
    }

    RequestId lastId = 0;
    TranslationKey lastKey;
    std::uint32_t lastLane = 0;
    PhysAddr lastAddr = 0;
};

} // namespace

TEST(EventFn, SmallCaptureStaysInline)
{
    int x = 41;
    int out = 0;
    EventFn fn([x, &out]() { out = x + 1; });
    static_assert(sizeof(EventFn) == 32,
                  "an EventFn is a 24-byte capture plus one invoke pointer");
    static_assert(std::is_trivially_destructible_v<EventFn>);
    fn();
    EXPECT_EQ(out, 42);
}

TEST(EventFn, CaptureAtExactCapacityStaysInline)
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
 * The budget covers the hot-path shapes, [this, RequestId],
 * [this, TranslationKey] and [this, std::uint32_t, PhysAddr], and each
 * runs from the queue as built.
 */
TEST(EventFn, EventFnCapacityMatchesHotPathCaptures)
{
    Component component;
    using RequestShape =
        decltype(component.requestHandler(std::declval<RequestId>()));
    using KeyShape =
        decltype(component.keyHandler(std::declval<TranslationKey>()));
    using LaneShape = decltype(component.laneHandler(
        std::declval<std::uint32_t>(), std::declval<PhysAddr>()));
    static_assert(EventHandler<RequestShape>);
    static_assert(EventHandler<KeyShape>);
    static_assert(EventHandler<LaneShape>);
    static_assert(sizeof(KeyShape) == kEventInlineBytes);
    static_assert(sizeof(LaneShape) == kEventInlineBytes);

    EventQueue eq;
    eq.schedule(1, component.requestHandler(17));
    eq.schedule(2, component.keyHandler(TranslationKey{3, 0x1234}));
    eq.schedule(3, component.laneHandler(31, 0xabc000));
    eq.run();
    EXPECT_EQ(component.lastId, 17u);
    EXPECT_EQ(component.lastKey, (TranslationKey{3, 0x1234}));
    EXPECT_EQ(component.lastLane, 31u);
    EXPECT_EQ(component.lastAddr, 0xabc000u);
}

/**
 * The closure rule is a compile error, not a fallback: a capture one
 * word past the slot, or one that needs more alignment than the slot
 * gives, cannot make an EventFn, and an EventFn never moves.
 */
TEST(EventFn, OnlyFittingCapturesMakeHandlers)
{
    // 32 bytes: the PWC hop's old [this, key, created] capture.
    Component *self = nullptr;
    TranslationKey key;
    Cycle created = 0;
    auto oversized = [self, key, created]() {
        (void)self;
        (void)key;
        (void)created;
    };
    static_assert(sizeof(oversized) == kEventInlineBytes + 8);
    static_assert(!std::is_constructible_v<EventFn, decltype(oversized)>);
    static_assert(!EventHandler<decltype(oversized)>);

    // Over-aligned: 32-byte alignment also means at least 32 bytes.
    struct alignas(2 * alignof(std::max_align_t)) OverAligned
    {
        int value;
    };
    auto over_aligned = [v = OverAligned{}]() { (void)v; };
    static_assert(!std::is_constructible_v<EventFn, decltype(over_aligned)>);

    static_assert(!std::is_move_constructible_v<EventFn>);
    static_assert(!std::is_copy_constructible_v<EventFn>);
    static_assert(!std::is_default_constructible_v<EventFn>);
}

/** Nothing that owns memory rides in a capture, however small. */
TEST(EventFn, OwningCapturesAreNotHandlers)
{
    auto unique = [p = std::make_unique<int>(1)]() { (void)p; };
    auto shared = [p = std::make_shared<int>(1)]() { (void)p; };
    auto function = [f = std::function<void()>()]() { (void)f; };
    static_assert(sizeof(unique) < kEventInlineBytes);
    static_assert(sizeof(shared) < kEventInlineBytes);
    static_assert(!EventHandler<decltype(unique)>);
    static_assert(!EventHandler<decltype(shared)>);
    static_assert(!EventHandler<decltype(function)>);
    static_assert(!EventHandler<std::function<void()>>);
    static_assert(!std::is_constructible_v<EventFn, decltype(unique)>);
    static_assert(!std::is_constructible_v<EventFn, decltype(shared)>);
}

/**
 * The event queue builds each handler in its slab slot straight from the
 * scheduled callable and runs it there: one move of the capture in all,
 * and none when the event runs.
 */
TEST(EventFn, EventQueueBuildsHandlersInPlace)
{
    MoveCount::resetCounters();
    EventQueue eq;
    int ran = 0;
    auto handler = [&ran, count = MoveCount{}]() { ++ran; };
    eq.schedule(10, std::move(handler));
    EXPECT_EQ(MoveCount::moves, 1);
    EXPECT_EQ(MoveCount::copies, 0);

    eq.run();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(MoveCount::moves, 1) << "dispatch moved the handler";
    EXPECT_EQ(MoveCount::copies, 0);
}
