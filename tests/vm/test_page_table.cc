/** @file Unit & property tests for the radix page table. */

#include <gtest/gtest.h>

#include <set>

#include "sim/rng.hh"
#include "vm/page_table.hh"

using namespace sw;

namespace {

class RadixPageTableTest : public ::testing::Test
{
  protected:
    RadixPageTableTest()
        : geom(64 * 1024), alloc(64 * 1024), pt(geom, alloc)
    {
    }

    PageGeometry geom;
    FrameAllocator alloc;
    RadixPageTable pt;
};

TEST_F(RadixPageTableTest, FourLevelsFor64KPages)
{
    EXPECT_EQ(pt.topLevel(), 4);
    // 33 VPN bits split {9,8,8,8} top..leaf.
    EXPECT_EQ(pt.bitsBelow(4), 24u);
    EXPECT_EQ(pt.bitsBelow(1), 0u);
}

TEST_F(RadixPageTableTest, ThreeLevelsFor2MPages)
{
    PageGeometry big(2ull * 1024 * 1024);
    FrameAllocator big_alloc(2ull * 1024 * 1024);
    RadixPageTable big_pt(big, big_alloc);
    EXPECT_EQ(big_pt.topLevel(), 3);
}

TEST_F(RadixPageTableTest, EnsureMappedIsIdempotent)
{
    Pfn first = pt.ensureMapped(0x1234);
    Pfn second = pt.ensureMapped(0x1234);
    EXPECT_EQ(first, second);
}

TEST_F(RadixPageTableTest, DistinctVpnsGetDistinctFrames)
{
    std::set<Pfn> frames;
    for (Vpn vpn = 0; vpn < 100; ++vpn)
        frames.insert(pt.ensureMapped(vpn * 977));
    EXPECT_EQ(frames.size(), 100u);
}

TEST_F(RadixPageTableTest, IsMappedReflectsState)
{
    EXPECT_FALSE(pt.isMapped(42));
    pt.ensureMapped(42);
    EXPECT_TRUE(pt.isMapped(42));
    EXPECT_FALSE(pt.isMapped(43));
}

TEST_F(RadixPageTableTest, TranslateMatchesEnsureMapped)
{
    Pfn pfn = pt.ensureMapped(0xABCDE);
    EXPECT_EQ(pt.translate(0xABCDE), pfn);
}

TEST_F(RadixPageTableTest, WalkReachesLeaf)
{
    Pfn pfn = pt.ensureMapped(0x777);
    WalkCursor cur = pt.startWalk();
    EXPECT_EQ(cur.level, 4);
    int steps = 0;
    while (!cur.done) {
        PhysAddr addr = pt.pteAddr(cur, 0x777);
        EXPECT_GT(addr, 0u);
        pt.advance(cur, 0x777);
        ++steps;
    }
    EXPECT_EQ(steps, 4);
    EXPECT_FALSE(cur.fault);
    EXPECT_EQ(cur.pfn, pfn);
}

TEST_F(RadixPageTableTest, WalkOnUnmappedFaults)
{
    WalkCursor cur = pt.startWalk();
    while (!cur.done)
        pt.advance(cur, 0xDEAD);
    EXPECT_TRUE(cur.fault);
}

TEST_F(RadixPageTableTest, PartialMappingFaultsAtTheRightLevel)
{
    // Map a VPN so upper levels exist, then walk a sibling sharing the
    // top three levels but with an unmapped leaf entry.
    pt.ensureMapped(0x1000);
    WalkCursor cur = pt.startWalk();
    int steps = 0;
    while (!cur.done) {
        pt.advance(cur, 0x1001);
        ++steps;
    }
    EXPECT_TRUE(cur.fault);
    EXPECT_EQ(steps, 4) << "fault detected at the leaf level";
}

TEST_F(RadixPageTableTest, ResumeWalkSkipsLevels)
{
    Pfn pfn = pt.ensureMapped(0x2000);
    // Walk fully once, recording the level-1 table base.
    WalkCursor full = pt.startWalk();
    PhysAddr leaf_base = 0;
    while (!full.done) {
        if (full.level == 1)
            leaf_base = full.tableBase;
        pt.advance(full, 0x2000);
    }
    ASSERT_NE(leaf_base, 0u);

    WalkCursor resumed = pt.resumeWalk(1, leaf_base);
    pt.advance(resumed, 0x2000);
    EXPECT_TRUE(resumed.done);
    EXPECT_EQ(resumed.pfn, pfn);
}

TEST_F(RadixPageTableTest, PteAddressesWithinOneLeafTableAreContiguous)
{
    pt.ensureMapped(0x3000);
    pt.ensureMapped(0x3001);
    WalkCursor a = pt.startWalk();
    WalkCursor b = pt.startWalk();
    while (a.level > 1)
        pt.advance(a, 0x3000);
    while (b.level > 1)
        pt.advance(b, 0x3001);
    EXPECT_EQ(pt.pteAddr(b, 0x3001), pt.pteAddr(a, 0x3000) + kPteBytes);
}

TEST_F(RadixPageTableTest, PwcPrefixSharedWithinSameTable)
{
    // Adjacent VPNs share all upper-level tables.
    EXPECT_EQ(pt.pwcPrefix(1, 0x3000), pt.pwcPrefix(1, 0x3001));
    // VPNs differing in level-2 index differ in the level-1 prefix.
    Vpn far = 0x3000 + (1ull << pt.bitsBelow(2));
    EXPECT_NE(pt.pwcPrefix(1, 0x3000), pt.pwcPrefix(1, far));
}

TEST_F(RadixPageTableTest, WalkReadsEqualsTopLevel)
{
    EXPECT_EQ(pt.walkReads(0x1), 4);
}

TEST_F(RadixPageTableTest, UsesPwc)
{
    EXPECT_TRUE(pt.usesPwc());
}

TEST(FrameAllocator, DataFramesAreDistinctAndAligned)
{
    FrameAllocator alloc(64 * 1024);
    Pfn a = alloc.allocDataFrame();
    Pfn b = alloc.allocDataFrame();
    EXPECT_NE(a, b);
    EXPECT_EQ(alloc.dataFramesAllocated(), 2u);
}

TEST(FrameAllocator, TableRegionDisjointFromDataRegion)
{
    FrameAllocator alloc(64 * 1024);
    PhysAddr table = alloc.allocTable(2048);
    Pfn frame = alloc.allocDataFrame();
    EXPECT_LT(table, frame * 64 * 1024);
}

TEST(FrameAllocator, TablesAre256ByteAligned)
{
    FrameAllocator alloc(64 * 1024);
    alloc.allocTable(100);
    PhysAddr second = alloc.allocTable(100);
    EXPECT_EQ(second % 256, 0u);
}

/** Property: translate() agrees with a full walk for random VPNs. */
class RadixWalkProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RadixWalkProperty, WalkMatchesTranslate)
{
    PageGeometry geom(64 * 1024);
    FrameAllocator alloc(64 * 1024);
    RadixPageTable pt(geom, alloc);
    Rng rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        Vpn vpn = rng.range(1ull << 33);
        Pfn pfn = pt.ensureMapped(vpn);
        WalkCursor cur = pt.startWalk();
        while (!cur.done)
            pt.advance(cur, vpn);
        ASSERT_FALSE(cur.fault);
        EXPECT_EQ(cur.pfn, pfn);
        EXPECT_EQ(pt.translate(vpn), pfn);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixWalkProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

} // namespace
