/** @file Unit & property tests for the FS-HPT hashed page table. */

#include <gtest/gtest.h>

#include <set>

#include "sim/rng.hh"
#include "vm/hashed_page_table.hh"

using namespace sw;

namespace {

class HashedPageTableTest : public ::testing::Test
{
  protected:
    HashedPageTableTest()
        : geom(64 * 1024), alloc(64 * 1024),
          pt(geom, alloc, /*slots=*/1 << 12)
    {
    }

    PageGeometry geom;
    FrameAllocator alloc;
    HashedPageTable pt;
};

TEST_F(HashedPageTableTest, SingleLevel)
{
    EXPECT_EQ(pt.topLevel(), 1);
    EXPECT_FALSE(pt.usesPwc());
}

TEST_F(HashedPageTableTest, EnsureMappedIdempotent)
{
    Pfn a = pt.ensureMapped(99);
    EXPECT_EQ(pt.ensureMapped(99), a);
}

TEST_F(HashedPageTableTest, TranslateAfterMap)
{
    Pfn pfn = pt.ensureMapped(0x55);
    EXPECT_EQ(pt.translate(0x55), pfn);
    EXPECT_TRUE(pt.isMapped(0x55));
    EXPECT_FALSE(pt.isMapped(0x56));
}

TEST_F(HashedPageTableTest, DirectHitWalkIsOneRead)
{
    Pfn pfn = pt.ensureMapped(0x1000);
    WalkCursor cur = pt.startWalk();
    int steps = 0;
    while (!cur.done) {
        pt.advance(cur, 0x1000);
        ++steps;
    }
    // Could be >1 only on a collision chain; with a near-empty table the
    // direct slot hits.
    EXPECT_EQ(steps, pt.walkReads(0x1000));
    EXPECT_FALSE(cur.fault);
    EXPECT_EQ(cur.pfn, pfn);
}

TEST_F(HashedPageTableTest, UnmappedWalkFaults)
{
    WalkCursor cur = pt.startWalk();
    while (!cur.done)
        pt.advance(cur, 0xBEEF);
    EXPECT_TRUE(cur.fault);
}

TEST_F(HashedPageTableTest, CollisionsResolveViaProbing)
{
    // Fill enough entries that collisions occur, then verify all resolve.
    Rng rng(3);
    std::vector<std::pair<Vpn, Pfn>> mapped;
    for (int i = 0; i < 1000; ++i) {
        Vpn vpn = rng.range(1ull << 30);
        mapped.emplace_back(vpn, pt.ensureMapped(vpn));
    }
    for (auto [vpn, pfn] : mapped) {
        WalkCursor cur = pt.startWalk();
        while (!cur.done)
            pt.advance(cur, vpn);
        ASSERT_FALSE(cur.fault);
        EXPECT_EQ(cur.pfn, pfn);
    }
}

TEST_F(HashedPageTableTest, LoadFactorTracksInsertions)
{
    EXPECT_DOUBLE_EQ(pt.loadFactor(), 0.0);
    for (Vpn vpn = 0; vpn < 1024; ++vpn)
        pt.ensureMapped(vpn * 31);
    EXPECT_NEAR(pt.loadFactor(), 1024.0 / 4096.0, 1e-9);
}

TEST_F(HashedPageTableTest, WalkReadsGrowWithCollisions)
{
    // At low load, the average probe chain stays near 1 — the low hash
    // collision rate FS-HPT exploits on GPUs.
    Rng rng(7);
    std::uint64_t total_reads = 0;
    constexpr int n = 800;
    for (int i = 0; i < n; ++i) {
        Vpn vpn = rng.range(1ull << 28);
        pt.ensureMapped(vpn);
        total_reads += std::uint64_t(pt.walkReads(vpn));
    }
    EXPECT_LT(double(total_reads) / n, 1.3);
}

TEST_F(HashedPageTableTest, ResumeWalkRestarts)
{
    pt.ensureMapped(5);
    WalkCursor cur = pt.resumeWalk(3, 0x1234);
    EXPECT_EQ(cur.level, 1);
    pt.advance(cur, 5);
    EXPECT_TRUE(cur.done);
}

/** Property: hashed and radix tables give consistent OS-level semantics. */
class PageTableContract : public ::testing::TestWithParam<bool>
{
  public:
    std::unique_ptr<PageTableBase>
    make(PageGeometry &geom, FrameAllocator &alloc)
    {
        if (GetParam())
            return std::make_unique<HashedPageTable>(geom, alloc, 1 << 14);
        return std::make_unique<RadixPageTable>(geom, alloc);
    }
};

TEST_P(PageTableContract, MapTranslateWalkAgree)
{
    PageGeometry geom(64 * 1024);
    FrameAllocator alloc(64 * 1024);
    auto pt = make(geom, alloc);
    Rng rng(11);
    for (int i = 0; i < 300; ++i) {
        Vpn vpn = rng.range(1ull << 32);
        Pfn pfn = pt->ensureMapped(vpn);
        EXPECT_TRUE(pt->isMapped(vpn));
        EXPECT_EQ(pt->translate(vpn), pfn);
        WalkCursor cur = pt->startWalk();
        int guard = 0;
        while (!cur.done && guard++ < 64)
            pt->advance(cur, vpn);
        ASSERT_TRUE(cur.done);
        ASSERT_FALSE(cur.fault);
        EXPECT_EQ(cur.pfn, pfn);
    }
}

INSTANTIATE_TEST_SUITE_P(BothKinds, PageTableContract,
                         ::testing::Values(false, true));

} // namespace
