/** @file Unit tests for the SoftPWB and its status bitmap semantics. */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "core/soft_pwb.hh"

using namespace sw;

namespace {

/** The walk records the tests' SoftPWB slots name. */
WalkPool walks;

WalkId
req(Vpn vpn, std::uint64_t id)
{
    return walks.alloc({.key = {0, vpn}, .id = id});
}

TEST(SoftPwb, StartsEmpty)
{
    SoftPwb pwb(8);
    EXPECT_EQ(pwb.freeSlots(), 8u);
    EXPECT_EQ(pwb.validCount(), 0u);
    EXPECT_EQ(pwb.size(), 8u);
}

TEST(SoftPwb, InsertMakesSlotValid)
{
    SoftPwb pwb(8);
    std::uint32_t slot = pwb.insert(req(1, 10), 100);
    EXPECT_EQ(pwb.validCount(), 1u);
    EXPECT_EQ(pwb.freeSlots(), 7u);
    EXPECT_EQ(pwb.slot(slot).state, SoftPwb::SlotState::Valid);
    EXPECT_EQ(walks[pwb.slot(slot).walk].key.vpn, 1u);
    EXPECT_EQ(pwb.slot(slot).arrived, 100u);
}

TEST(SoftPwb, CollectMarksProcessing)
{
    SoftPwb pwb(8);
    pwb.insert(req(1, 1), 0);
    pwb.insert(req(2, 2), 0);
    pwb.insert(req(3, 3), 0);
    std::array<std::uint32_t, 2> picked{};
    EXPECT_EQ(pwb.collectValid(picked), 2u);
    EXPECT_EQ(pwb.validCount(), 1u);
    for (auto idx : picked)
        EXPECT_EQ(pwb.slot(idx).state, SoftPwb::SlotState::Processing);
}

TEST(SoftPwb, CollectAllWhenFewerThanMax)
{
    SoftPwb pwb(8);
    pwb.insert(req(1, 1), 0);
    std::array<std::uint32_t, 32> picked{};
    EXPECT_EQ(pwb.collectValid(picked), 1u);
}

TEST(SoftPwb, ReleaseReturnsSlotToInvalid)
{
    SoftPwb pwb(4);
    std::uint32_t slot = pwb.insert(req(7, 7), 0);
    std::array<std::uint32_t, 4> picked{};
    pwb.collectValid(picked);
    pwb.release(slot);
    EXPECT_EQ(pwb.freeSlots(), 4u);
    EXPECT_EQ(pwb.slot(slot).state, SoftPwb::SlotState::Invalid);
}

TEST(SoftPwb, TracksPeakOccupancy)
{
    SoftPwb pwb(4);
    pwb.insert(req(1, 1), 0);
    pwb.insert(req(2, 2), 0);
    EXPECT_EQ(pwb.stats().peakOccupancy, 2u);
    EXPECT_EQ(pwb.stats().inserts, 2u);
}

TEST(SoftPwb, SlotsReusedAfterRelease)
{
    SoftPwb pwb(2);
    std::uint32_t a = pwb.insert(req(1, 1), 0);
    pwb.insert(req(2, 2), 0);
    std::array<std::uint32_t, 2> picked{};
    pwb.collectValid(picked);
    pwb.release(a);
    std::uint32_t c = pwb.insert(req(3, 3), 0);
    EXPECT_EQ(c, a);
}

TEST(SoftPwbDeath, OverflowPanics)
{
    SoftPwb pwb(1);
    pwb.insert(req(1, 1), 0);
    EXPECT_DEATH(pwb.insert(req(2, 2), 0), "overflow");
}

TEST(SoftPwbDeath, ReleasingNonProcessingSlotPanics)
{
    SoftPwb pwb(2);
    std::uint32_t slot = pwb.insert(req(1, 1), 0);
    EXPECT_DEATH(pwb.release(slot), "non-processing");
}

} // namespace
