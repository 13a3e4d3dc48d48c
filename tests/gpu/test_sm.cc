/** @file Unit tests for the SM model (issue, coalescing, stalls). */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "gpu/sm.hh"
#include "workload/generators.hh"

using namespace sw;

namespace {

/** A scripted workload emitting a fixed per-instruction address set. */
class ScriptedWorkload : public Workload
{
  public:
    WarpInstr
    next(SmId, WarpId, Rng &) override
    {
        ++calls;
        return instr;
    }

    std::uint64_t footprintBytes() const override { return 1 << 30; }
    std::string name() const override { return "scripted"; }
    bool irregular() const override { return false; }

    WarpInstr instr;
    int calls = 0;
};

/**
 * Fake machine behind one SM: translation returns PFN = VPN + 1000 and
 * data completes after fixed latencies; both record what they saw.
 */
class SmTest : public ::testing::Test, public SmPort, public RequestSink
{
  protected:
    SmTest()
    {
        pool.setSink(Done::Translation, this);
        pool.setSink(Done::SmAccess, this);
    }

    void
    translate(RequestId id) override
    {
        translations.push_back(pool[id].addr);
        eq.scheduleIn(translateLatency, [this, id]() {
            pool[id].addr += 1000;   // fake PFN
            pool.complete(id);
        });
    }

    void
    access(RequestId id) override
    {
        dataAccesses.push_back({pool[id].addr, pool[id].write});
        eq.scheduleIn(dataLatency, [this, id]() { pool.complete(id); });
    }

    void
    requestDone(RequestId id) override
    {
        if (pool[id].done == Done::Translation)
            sm->translated(id);
        else
            sm->accessDone(id);
    }

    Sm::Params
    params()
    {
        Sm::Params p;
        p.id = 0;
        p.numWarps = 4;
        p.warpSize = 32;
        p.pageBytes = 64 * 1024;
        p.sectorBytes = 32;
        return p;
    }

    Sm *
    makeSm(Workload &wl, Cycle translate_latency = 20,
           Cycle data_latency = 30)
    {
        translateLatency = translate_latency;
        dataLatency = data_latency;
        sm = std::make_unique<Sm>(eq, params(), wl, pool, *this, lifecycle);
        return sm.get();
    }

    EventQueue eq;
    RequestPool pool;
    LifecycleStream lifecycle;
    std::unique_ptr<Sm> sm;
    Cycle translateLatency = 20;
    Cycle dataLatency = 30;
    std::vector<Vpn> translations;
    std::vector<std::pair<PhysAddr, bool>> dataAccesses;
};

TEST_F(SmTest, CoalescesLanesInOnePageToOneTranslation)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 32;
    for (std::uint32_t lane = 0; lane < 32; ++lane)
        wl.instr.addrs[lane] = 0x10000 + lane * 4;   // one page, one sector+
    std::uint64_t quota = 1;
    Sm *sm = makeSm(wl);
    sm->start(&quota, 1);
    eq.run();
    EXPECT_EQ(translations.size(), 1u);
    EXPECT_EQ(sm->stats().translationsRequested, 1u);
}

TEST_F(SmTest, CoalescesToUniqueSectors)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 32;
    for (std::uint32_t lane = 0; lane < 32; ++lane)
        wl.instr.addrs[lane] = 0x10000 + lane * 4;   // 128 B span: 4 sectors
    std::uint64_t quota = 1;
    Sm *sm = makeSm(wl);
    sm->start(&quota, 1);
    eq.run();
    EXPECT_EQ(dataAccesses.size(), 4u);
    EXPECT_EQ(sm->stats().dataAccesses, 4u);
    EXPECT_EQ(pool.live(), 0u) << "every request record was freed";
}

TEST_F(SmTest, DivergentLanesGetPerPageTranslations)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 8;
    for (std::uint32_t lane = 0; lane < 8; ++lane)
        wl.instr.addrs[lane] = VirtAddr(lane) * (64 * 1024) + 64;
    std::uint64_t quota = 1;
    Sm *sm = makeSm(wl);
    sm->start(&quota, 1);
    eq.run();
    EXPECT_EQ(translations.size(), 8u);
    EXPECT_EQ(dataAccesses.size(), 8u);
    EXPECT_EQ(pool.live(), 0u) << "every request record was freed";
}

/**
 * Lanes touch pages A, B, A, ... with A's sectors in scrambled lane order
 * and repeats: issue makes one record per page, and A's translation makes
 * A's sector records, issued in first-touch lane order.
 */
TEST_F(SmTest, SectorRecordsAreMadeWhenTheirTranslationLands)
{
    constexpr VirtAddr kPageA = 0x30000;   // VPN 3
    constexpr VirtAddr kPageB = 0x70000;   // VPN 7
    ScriptedWorkload wl;
    const VirtAddr lanes[] = {kPageA + 0x60, kPageB + 0x24, kPageA + 0x08,
                              kPageA + 0x7c, kPageA + 0x40, kPageB + 0x20,
                              kPageA + 0x20, kPageA + 0x00};
    wl.instr.activeLanes = std::size(lanes);
    std::copy(std::begin(lanes), std::end(lanes), wl.instr.addrs.begin());
    std::uint64_t quota = 1;
    Sm *sm = makeSm(wl, /*translate=*/20, /*data=*/30);
    sm->start(&quota, 1);

    eq.run(10);   // issued, no translation back yet
    EXPECT_EQ(translations, (std::vector<Vpn>{3, 7}));
    EXPECT_EQ(pool.live(), 2u) << "one record per unique page";
    EXPECT_TRUE(dataAccesses.empty());

    eq.run(25);   // both translations landed at cycle 20
    auto pa = [](Vpn vpn, std::uint64_t offset) {
        return PhysAddr((vpn + 1000) << 16 | offset);
    };
    std::vector<PhysAddr> issued;
    for (const auto &[addr, write] : dataAccesses)
        issued.push_back(addr);
    EXPECT_EQ(issued, (std::vector<PhysAddr>{pa(3, 0x60), pa(3, 0x00),
                                             pa(3, 0x40), pa(3, 0x20),
                                             pa(7, 0x20)}));
    EXPECT_EQ(pool.live(), 5u) << "the translations made five sectors";

    eq.run();
    EXPECT_EQ(sm->stats().dataAccesses, 5u);
    EXPECT_EQ(sm->stats().translationsRequested, 2u);
    EXPECT_EQ(pool.live(), 0u) << "every request record was freed";
}

TEST_F(SmTest, PhysicalAddressComposedFromPfn)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x12345678;
    std::uint64_t quota = 1;
    Sm *sm = makeSm(wl);
    sm->start(&quota, 1);
    eq.run();
    ASSERT_EQ(dataAccesses.size(), 1u);
    Vpn vpn = 0x12345678ull >> 16;
    PhysAddr expect = ((vpn + 1000) << 16) | (0x5678ull & ~31ull);
    EXPECT_EQ(dataAccesses[0].first, expect);
}

TEST_F(SmTest, WritesPropagate)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.write = true;
    wl.instr.addrs[0] = 0x9999;
    std::uint64_t quota = 1;
    Sm *sm = makeSm(wl);
    sm->start(&quota, 1);
    eq.run();
    ASSERT_EQ(dataAccesses.size(), 1u);
    EXPECT_TRUE(dataAccesses[0].second);
}

TEST_F(SmTest, QuotaStopsIssue)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 10;
    Sm *sm = makeSm(wl);
    sm->start(&quota, 4);
    eq.run();
    EXPECT_EQ(sm->stats().warpInstrs, 10u);
    EXPECT_EQ(quota, 0u);
    EXPECT_EQ(sm->activeWarps(), 0u) << "all warps retired";
}

TEST_F(SmTest, ComputeGapDelaysIssue)
{
    ScriptedWorkload wl;
    wl.instr.computeGap = 500;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 1;
    Sm *sm = makeSm(wl, 1, 1);
    sm->start(&quota, 1);
    eq.run();
    EXPECT_GE(eq.now(), 500u);
    EXPECT_EQ(sm->stats().computeCycles, 500u);
}

TEST_F(SmTest, IssuePortSerialisesWarps)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 4;
    Sm *sm = makeSm(wl);
    sm->start(&quota, 4);
    eq.run();
    // 4 warps each issued one instruction through the single port.
    EXPECT_EQ(sm->stats().issueSlotCycles, 4u);
}

TEST_F(SmTest, MemStallAccountedWhenAllWarpsBlocked)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 2;
    Sm *sm = makeSm(wl, /*translate=*/1000, /*data=*/1000);
    sm->start(&quota, 2);
    eq.run();
    EXPECT_GT(sm->stats().memStallCycles, 1000u);
}

TEST_F(SmTest, NoStallWhenWarpsStaggered)
{
    ScriptedWorkload wl;
    wl.instr.computeGap = 1;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 40;
    Sm *sm = makeSm(wl, 1, 1);   // memory faster than issue
    sm->start(&quota, 4);
    eq.run();
    EXPECT_LT(sm->stats().memStallCycles, eq.now() / 2);
}

TEST_F(SmTest, ReservePwIssueHasPriority)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 0;   // no user work
    Sm *sm = makeSm(wl);
    sm->start(&quota, 0);
    Cycle end = sm->reservePwIssue(5, 0);
    EXPECT_EQ(end, eq.now() + 5);
    EXPECT_EQ(sm->stats().pwIssueCycles, 5u);
    Cycle next = sm->reservePwIssue(2, 0);
    EXPECT_EQ(next, end + 2);
}

TEST_F(SmTest, WarpMemLatencyMeasured)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 1;
    Sm *sm = makeSm(wl, 100, 200);
    sm->start(&quota, 1);
    eq.run();
    EXPECT_EQ(sm->stats().warpMemLatency.count, 1u);
    EXPECT_GE(sm->stats().warpMemLatency.minv, 300u);
}

TEST_F(SmTest, AccessLatencyMeasuredFromIssue)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 1;
    Sm *sm = makeSm(wl, 100, 200);
    sm->start(&quota, 1);
    eq.run();
    EXPECT_EQ(sm->stats().accessLatency.count, 1u);
    EXPECT_GE(sm->stats().accessLatency.minv, 300u);
}

TEST_F(SmTest, ResetStatsMidRunKeepsConsistency)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 20;
    Sm *sm = makeSm(wl);
    sm->start(&quota, 2);
    eq.run(50);
    sm->resetStats();
    eq.run();
    sm->finalizeStats();
    EXPECT_LT(sm->stats().warpInstrs, 20u);
    EXPECT_GT(sm->stats().warpInstrs, 0u);
}

TEST_F(SmTest, OnWarpRetiredFires)
{
    ScriptedWorkload wl;
    wl.instr.activeLanes = 1;
    wl.instr.addrs[0] = 0x1000;
    std::uint64_t quota = 3;
    Sm *sm = makeSm(wl);
    sm->start(&quota, 3);
    EXPECT_EQ(sm->activeWarps(), 3u);
    // Each warp retires when it finds the quota spent.
    eq.run();
    EXPECT_EQ(sm->activeWarps(), 0u);
}

/** A lane's sector offset is a mask, so the sector size must be a power
 *  of two (GpuConfig::validate() refuses any other). */
TEST_F(SmTest, SectorSizeMustBeAPowerOfTwo)
{
    ScriptedWorkload wl;
    Sm::Params p = params();
    p.sectorBytes = 24;
    EXPECT_DEATH({ Sm bad(eq, p, wl, pool, *this, lifecycle); },
                 "sector size 24 is not a power of two");
}

} // namespace
