/** @file Unit tests for the GDDR6 DRAM channel model. */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "mem/dram.hh"

using namespace sw;

namespace {

Dram::Params
smallParams()
{
    Dram::Params params;
    params.channels = 4;
    params.accessLatency = 100;
    params.cyclesPerSector = 2;
    params.channelShift = 5;
    return params;
}

TEST(Dram, SingleAccessTakesDeviceLatency)
{
    EventQueue eq;
    Dram dram(eq, smallParams());
    EXPECT_EQ(dram.access(0, false), 100u);
    EXPECT_EQ(dram.stats().accesses, 1u);
}

TEST(Dram, SameChannelAccessesQueue)
{
    EventQueue eq;
    Dram dram(eq, smallParams());
    std::vector<Cycle> done;
    // Same channel: addresses differ by channels*32 B.
    for (int i = 0; i < 3; ++i)
        done.push_back(dram.access(PhysAddr(i) * 4 * 32, false));
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0], 100u);
    EXPECT_EQ(done[1], 102u);
    EXPECT_EQ(done[2], 104u);
    EXPECT_GT(dram.stats().queueDelay.sum, 0u);
}

TEST(Dram, DifferentChannelsDontQueue)
{
    EventQueue eq;
    Dram dram(eq, smallParams());
    std::vector<Cycle> done;
    for (int i = 0; i < 4; ++i)
        done.push_back(dram.access(PhysAddr(i) * 32, false));
    for (Cycle c : done)
        EXPECT_EQ(c, 100u);
    EXPECT_EQ(dram.stats().queueDelay.sum, 0u);
}

TEST(Dram, ChannelSelectionBits)
{
    EventQueue eq;
    Dram dram(eq, smallParams());
    // Address bits below channelShift do not change the channel: two
    // accesses within one sector of the same channel serialise.
    std::vector<Cycle> done;
    done.push_back(dram.access(0, false));
    done.push_back(dram.access(16, false));
    EXPECT_EQ(done[0], 100u);
    EXPECT_EQ(done[1], 102u);
}

/** Twelve channels are not a power of two: the pick takes the divide.
 *  Every access must queue on channel (addr >> channelShift) % 12. */
TEST(Dram, TwelveChannelsPickTheSectorModulo)
{
    EventQueue eq;
    Dram::Params params = smallParams();
    params.channels = 12;
    Dram dram(eq, params);
    std::vector<Cycle> channel_free(12, 0);
    std::mt19937_64 rng(12);
    for (int i = 0; i < 20000; ++i) {
        PhysAddr addr = rng() & ((PhysAddr(1) << 47) - 1);
        Cycle &free_at = channel_free[(addr >> 5) % 12];
        ASSERT_EQ(dram.access(addr, false), free_at + 100) << "access " << i;
        free_at += 2;
    }
    // Sectors 12 apart share a channel; neighbours do not.
    Dram fresh(eq, params);
    EXPECT_EQ(fresh.access(0, false), 100u);
    EXPECT_EQ(fresh.access(11 * 32, false), 100u);
    EXPECT_EQ(fresh.access(12 * 32, false), 102u);
}

TEST(Dram, UtilisationGrowsWithTraffic)
{
    EventQueue eq;
    Dram dram(eq, smallParams());
    Cycle last = 0;
    for (int i = 0; i < 50; ++i)
        last = dram.access(0, false);
    eq.schedule(last, []() {});   // advance the clock to the last one
    eq.run();
    EXPECT_GT(dram.utilisation(), 0.5);
}

TEST(Dram, ResetStatsClearsCountersAndWindow)
{
    EventQueue eq;
    Dram dram(eq, smallParams());
    Cycle last = 0;
    for (int i = 0; i < 10; ++i)
        last = dram.access(0, false);
    eq.schedule(last, []() {});
    eq.run();
    dram.resetStats();
    EXPECT_EQ(dram.stats().accesses, 0u);
    EXPECT_DOUBLE_EQ(dram.utilisation(), 0.0);
}

TEST(Dram, WritesShareTiming)
{
    EventQueue eq;
    Dram dram(eq, smallParams());
    EXPECT_EQ(dram.access(64, true), 100u);
}

/** Bandwidth property: N back-to-back accesses on one channel take
 *  N * cyclesPerSector of channel time. */
class DramBandwidth : public ::testing::TestWithParam<int>
{
};

TEST_P(DramBandwidth, ChannelOccupancyScalesLinearly)
{
    int n = GetParam();
    EventQueue eq;
    Dram::Params params = smallParams();
    Dram dram(eq, params);
    Cycle last = 0;
    for (int i = 0; i < n; ++i)
        last = dram.access(0, false);
    EXPECT_EQ(last, params.accessLatency +
                    Cycle(n - 1) * params.cyclesPerSector);
}

INSTANTIATE_TEST_SUITE_P(Loads, DramBandwidth,
                         ::testing::Values(1, 2, 8, 32, 128));

} // namespace
