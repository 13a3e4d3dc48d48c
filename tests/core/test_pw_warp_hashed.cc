/** @file PW Warp over the hashed page table (FS-HPT + SoftWalker combo). */

#include <gtest/gtest.h>

#include "core/pw_warp.hh"
#include "sim/config.hh"
#include "test_util.hh"
#include "vm/hashed_page_table.hh"

using namespace sw;

namespace {

/** These legacy tests are single-tenant: everything is tagged ASID 0. */
constexpr TranslationKey
K(Vpn vpn)
{
    return {0, vpn};
}

class PwWarpHashedTest : public ::testing::Test
{
  protected:
    /** The SM the warp under test runs on. */
    static constexpr std::uint32_t kSm = 3;

    PwWarpHashedTest()
        : geom(64 * 1024), alloc(64 * 1024), spaces(spacesConfig(), alloc),
          pt(static_cast<HashedPageTable &>(spaces.tableFor(0))), pwb(8)
    {
    }

    static GpuConfig
    spacesConfig()
    {
        GpuConfig cfg = makeDefaultConfig();
        cfg.pageBytes = 64 * 1024;
        cfg.pageTableKind = PageTableKind::Hashed;
        return cfg;
    }

    std::unique_ptr<PwWarp>
    makeWarp()
    {
        PwWarp::Hooks hooks;
        hooks.reserveIssue = [this](std::uint32_t slots, Asid) {
            return eq.now() + slots;
        };
        reader = std::make_unique<test::FixedLatencyReader>(eq, 40,
                                                             memReads);
        hooks.ptReader = reader.get();
        hooks.walker = kSm;
        hooks.complete = [this](WalkId walk) {
            results.push_back(test::completeWalk(walks, walk, eq.now()));
        };
        auto warp = std::make_unique<PwWarp>(eq, spaces, pwc, pwb, walks,
                                             std::move(hooks),
                                             PwWarpCodeTiming{}, 8, 40,
                                             lifecycle);
        PwWarp *raw = warp.get();
        reader->answer = [raw](std::uint32_t, std::uint32_t lane) {
            raw->ptReadDone(lane);
        };
        return warp;
    }

    EventQueue eq;
    PageGeometry geom;
    FrameAllocator alloc;
    AddressSpaceManager spaces;
    HashedPageTable &pt;
    PageWalkCache pwc;
    SoftPwb pwb;
    WalkPool walks;
    LifecycleStream lifecycle;
    int memReads = 0;
    std::vector<test::WalkOutcome> results;
    std::unique_ptr<test::FixedLatencyReader> reader;
};

TEST_F(PwWarpHashedTest, SingleProbeWalk)
{
    pt.ensureMapped(0x99);
    pwb.insert(walks.alloc(
                   {.key = K(0x99), .cursor = pt.startWalk(), .id = 1}),
               eq.now());
    auto warp = makeWarp();
    warp->notifyWork();
    eq.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].pfn, pt.translate(0x99));
    EXPECT_EQ(memReads, pt.walkReads(0x99));
    EXPECT_EQ(pwc.stats().fills, 0u) << "hashed tables never fill the PWC";
    EXPECT_EQ(warp->stats().fpwcIssued, 0u);
}

TEST_F(PwWarpHashedTest, BatchOverHashedTable)
{
    auto warp = makeWarp();
    for (std::uint64_t i = 0; i < 6; ++i) {
        Vpn vpn = 100 + i * 977;
        pt.ensureMapped(vpn);
        pwb.insert(walks.alloc(
                       {.key = K(vpn), .cursor = pt.startWalk(), .id = i}),
                   eq.now());
    }
    warp->notifyWork();
    eq.run();
    ASSERT_EQ(results.size(), 6u);
    for (const auto &result : results) {
        EXPECT_FALSE(result.fault);
        EXPECT_EQ(result.pfn, pt.translate(result.key.vpn));
        EXPECT_EQ(result.ptReads, pt.walkReads(result.key.vpn));
        EXPECT_EQ(result.walker, kSm);
    }
}

TEST_F(PwWarpHashedTest, UnmappedVpnFaults)
{
    pwb.insert(walks.alloc({.key = K(0xF00D),
                            .cursor = pt.startWalk(),
                            .id = 7}),
               eq.now());
    auto warp = makeWarp();
    warp->notifyWork();
    eq.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].fault);
    EXPECT_EQ(warp->stats().ffbIssued, 1u);
}

} // namespace
