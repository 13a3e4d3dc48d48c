/** @file Integration tests for the translation engine. */

#include <gtest/gtest.h>

#include <vector>

#include "mem/memory_system.hh"
#include "test_util.hh"
#include "vm/ptw.hh"
#include "vm/translation.hh"

using namespace sw;

namespace {

/** These legacy tests are single-tenant: everything is tagged ASID 0. */
constexpr TranslationKey
K(Vpn vpn)
{
    return {0, vpn};
}

/** Standalone rig wiring engine + memory + address space + hardware pool. */
struct EngineRig
{
    explicit EngineRig(const GpuConfig &config)
        : cfg(config), geom(cfg.pageBytes), alloc(cfg.pageBytes),
          spaces(cfg, alloc), pt(spaces.tableFor(0)), mem(eq, cfg, requests),
          engine(eq, cfg, mem, spaces, lifecycle),
          client(requests, {Done::Translation})
    {
        HardwarePtwPool::Params pool;
        pool.numWalkers = cfg.numPtws;
        pool.pwbEntries = cfg.pwbEntries;
        pool.pwbPorts = cfg.pwbPorts;
        engine.setBackend(std::make_unique<HardwarePtwPool>(
            eq, pool, spaces, engine.pwc(), engine.walks(), engine,
            engine.completionFn(), lifecycle));
    }

    GpuConfig cfg;
    EventQueue eq;
    PageGeometry geom;
    FrameAllocator alloc;
    AddressSpaceManager spaces;
    PageTableBase &pt;
    RequestPool requests;
    MemorySystem mem;
    LifecycleStream lifecycle;
    TranslationEngine engine;
    test::RequestClient client;
};

/** Fixture wiring engine + memory + address space + hardware pool. */
class TranslationTest : public ::testing::Test
{
  protected:
    TranslationTest() : TranslationTest(sw::test::smallConfig()) {}

    explicit TranslationTest(const GpuConfig &config)
        : cfg(config), geom(cfg.pageBytes), alloc(cfg.pageBytes),
          spaces(cfg, alloc), pt(spaces.tableFor(0)), mem(eq, cfg, requests),
          engine(eq, cfg, mem, spaces, lifecycle),
          client(requests, {Done::Translation})
    {
        installPool();
    }

    void
    installPool()
    {
        HardwarePtwPool::Params pool;
        pool.numWalkers = cfg.numPtws;
        pool.pwbEntries = cfg.pwbEntries;
        pool.pwbPorts = cfg.pwbPorts;
        engine.setBackend(std::make_unique<HardwarePtwPool>(
            eq, pool, spaces, engine.pwc(), engine.walks(), engine,
            engine.completionFn(), lifecycle));
    }

    /** Translate and wait; returns (pfn, latency). */
    std::pair<Pfn, Cycle>
    translateAndWait(SmId sm, Vpn vpn)
    {
        Cycle start = eq.now();
        Pfn got = 0;
        bool done = false;
        engine.translate(client.translation(sm, K(vpn), [&](Pfn pfn) {
            got = pfn;
            done = true;
        }));
        eq.run();
        EXPECT_TRUE(done);
        return {got, eq.now() - start};
    }

    GpuConfig cfg;
    EventQueue eq;
    PageGeometry geom;
    FrameAllocator alloc;
    AddressSpaceManager spaces;
    PageTableBase &pt;
    RequestPool requests;
    MemorySystem mem;
    LifecycleStream lifecycle;
    TranslationEngine engine;
    test::RequestClient client;
};

TEST_F(TranslationTest, ColdTranslationWalksAndMapsOnDemand)
{
    auto [pfn, latency] = translateAndWait(0, 0x42);
    EXPECT_TRUE(pt.isMapped(0x42));
    EXPECT_EQ(pfn, pt.translate(0x42));
    EXPECT_GE(latency, cfg.l1TlbLatency + cfg.l2TlbLatency);
    EXPECT_EQ(engine.stats().walksCompleted, 1u);
}

TEST_F(TranslationTest, L1HitIsFast)
{
    translateAndWait(0, 0x42);
    auto [pfn, latency] = translateAndWait(0, 0x42);
    EXPECT_EQ(pfn, pt.translate(0x42));
    EXPECT_EQ(latency, cfg.l1TlbLatency);
    EXPECT_EQ(engine.stats().l1Hits, 1u);
}

TEST_F(TranslationTest, L2HitFromAnotherSm)
{
    translateAndWait(0, 0x42);
    auto [pfn, latency] = translateAndWait(1, 0x42);
    EXPECT_EQ(pfn, pt.translate(0x42));
    EXPECT_EQ(latency, cfg.l1TlbLatency + cfg.l2TlbLatency);
    EXPECT_EQ(engine.stats().l2Hits, 1u);
    EXPECT_EQ(engine.stats().walksCompleted, 1u) << "no second walk";
}

TEST_F(TranslationTest, ConcurrentSameVpnMergesAtL1)
{
    int done = 0;
    for (int i = 0; i < 5; ++i)
        engine.translate(
            client.translation(0, K(0x99), [&](Pfn) { ++done; }));
    eq.run();
    EXPECT_EQ(done, 5);
    EXPECT_EQ(engine.stats().l1MshrMerges, 4u);
    EXPECT_EQ(engine.stats().walksCompleted, 1u);
}

TEST_F(TranslationTest, ConcurrentSameVpnAcrossSmsMergesAtL2)
{
    int done = 0;
    for (SmId sm = 0; sm < 4; ++sm)
        engine.translate(
            client.translation(sm, K(0x99), [&](Pfn) { ++done; }));
    eq.run();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(engine.stats().l2MshrMerges, 3u);
    EXPECT_EQ(engine.stats().walksCompleted, 1u);
}

TEST_F(TranslationTest, PwcAcceleratesNeighbourWalks)
{
    translateAndWait(0, 0x100);
    std::uint64_t reads_before = engine.stats().ptReadLatency.count;
    translateAndWait(0, 0x101);   // same leaf table
    std::uint64_t reads = engine.stats().ptReadLatency.count - reads_before;
    EXPECT_EQ(reads, 1u) << "PWC hit lets the walk start at the leaf";
}

TEST_F(TranslationTest, L1MshrFileFullParksAndRecovers)
{
    // More distinct VPNs than L1 MSHRs (8 in the small config).
    int done = 0;
    for (Vpn vpn = 0; vpn < 20; ++vpn)
        engine.translate(client.translation(0, K(0x1000 + vpn * 64),
                                            [&](Pfn) { ++done; }));
    eq.run();
    EXPECT_EQ(done, 20);
    EXPECT_GT(engine.stats().l1MshrFailures, 0u);
}

TEST_F(TranslationTest, L2MshrSaturationCountsFailures)
{
    // 16 L2 MSHRs in the small config; no In-TLB MSHR in baseline.
    int done = 0;
    for (Vpn vpn = 0; vpn < 120; ++vpn) {
        SmId sm = SmId(vpn % cfg.numSms);
        engine.translate(client.translation(sm, K(0x5000 + vpn * 8),
                                            [&](Pfn) { ++done; }));
    }
    eq.run();
    EXPECT_EQ(done, 120);
    EXPECT_GT(engine.stats().l2MshrFailures, 0u);
}

TEST_F(TranslationTest, QueueDelayIncludesMshrWait)
{
    for (Vpn vpn = 0; vpn < 120; ++vpn)
        engine.translate(client.translation(SmId(vpn % cfg.numSms),
                                            K(0x9000 + vpn * 8), [](Pfn) {}));
    eq.run();
    // The last walks waited for MSHR capacity: queueing delay must show it.
    EXPECT_GT(engine.stats().walkQueueDelay.maxv,
              engine.stats().walkAccessLatency.mean());
}

TEST_F(TranslationTest, FaultPathReplaysAfterOsMapping)
{
    engine.setMapOnDemand(false);
    Pfn got = 0;
    bool done = false;
    engine.translate(client.translation(0, K(0x77), [&](Pfn pfn) {
        got = pfn;
        done = true;
    }));
    // The walk faults (page unmapped, logged to the fault buffer); the
    // UVM-style driver maps the page and the walk replays (§5.5).
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(engine.stats().faults, 1u);
    EXPECT_TRUE(pt.isMapped(0x77));
    EXPECT_EQ(got, pt.translate(0x77));
    EXPECT_EQ(engine.faultBuffer().stats().recorded, 1u);
}

TEST_F(TranslationTest, TranslationLatencyStatCoversAllRequests)
{
    translateAndWait(0, 1);
    translateAndWait(0, 1);
    EXPECT_EQ(engine.stats().translationLatency.count, 2u);
}

TEST_F(TranslationTest, ResetStatsClearsEngineAndArrays)
{
    translateAndWait(0, 0x42);
    engine.resetStats();
    EXPECT_EQ(engine.stats().requests, 0u);
    EXPECT_EQ(engine.stats().walksCompleted, 0u);
    EXPECT_EQ(engine.l2Tlb().stats().lookups, 0u);
    // Contents survive: next lookup hits.
    auto [pfn, latency] = translateAndWait(0, 0x42);
    (void)pfn;
    EXPECT_EQ(latency, cfg.l1TlbLatency);
}

TEST_F(TranslationTest, ShootdownForcesRetranslation)
{
    translateAndWait(0, 0x42);
    translateAndWait(1, 0x42);
    std::uint64_t walks_before = engine.stats().walksCompleted;

    engine.shootdown(K(0x42));

    // Both SMs must re-walk (the translation is gone at both levels).
    auto [pfn0, lat0] = translateAndWait(0, 0x42);
    EXPECT_GT(lat0, cfg.l1TlbLatency + cfg.l2TlbLatency);
    EXPECT_EQ(pfn0, pt.translate(0x42));
    EXPECT_EQ(engine.stats().walksCompleted, walks_before + 1);

    auto [pfn1, lat1] = translateAndWait(1, 0x42);
    EXPECT_EQ(pfn1, pt.translate(0x42));
    EXPECT_EQ(lat1, cfg.l1TlbLatency + cfg.l2TlbLatency)
        << "second SM hits the refilled L2";
}

TEST_F(TranslationTest, ShootdownOfUnknownVpnIsHarmless)
{
    engine.shootdown(K(0xDEADBEEF));
    auto [pfn, lat] = translateAndWait(0, 0x5);
    (void)lat;
    EXPECT_EQ(pfn, pt.translate(0x5));
}

TEST_F(TranslationTest, FixedPtLatencyOverride)
{
    // An engine with the Fig 23 fixed-latency override, on its own
    // memory system (a request pool has one page-table-read sink).
    GpuConfig fixed_cfg = cfg;
    fixed_cfg.fixedPtAccessLatency = 123;
    EngineRig rig(fixed_cfg);
    bool done = false;
    rig.engine.translate(
        rig.client.translation(0, K(0x8), [&](Pfn) { done = true; }));
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.engine.stats().ptReadLatency.minv, 123u);
    EXPECT_EQ(rig.engine.stats().ptReadLatency.maxv, 123u);
}

/**
 * Ideal mode has no MSHR or merge cap at either TLB level, so its MSHR
 * tables must grow past any fixed size: 200 pages x 4 SMs x 3 asks, all in
 * the same cycle, against caps of 8 L1 MSHRs, 2 L1 merges, 16 L2 MSHRs and
 * 1 L2 merge.
 */
TEST(TranslationIdeal, UncappedTablesOutgrowEveryFixedCapacity)
{
    GpuConfig cfg = sw::test::smallConfig();
    cfg.mode = TranslationMode::Ideal;
    cfg.l1TlbMergesPerMshr = 2;
    cfg.l2TlbMergesPerMshr = 1;
    EngineRig rig(cfg);
    constexpr std::uint64_t kPages = 200;
    constexpr std::uint64_t kAsks = 3;
    std::uint64_t done = 0;
    for (Vpn vpn = 0; vpn < kPages; ++vpn) {
        for (SmId sm = 0; sm < cfg.numSms; ++sm) {
            for (std::uint64_t ask = 0; ask < kAsks; ++ask) {
                rig.engine.translate(rig.client.translation(
                    sm, K(0x7000 + vpn * 8), [&](Pfn) { ++done; }));
            }
        }
    }
    rig.eq.run();

    const TranslationEngine::Stats &stats = rig.engine.stats();
    EXPECT_EQ(done, kPages * cfg.numSms * kAsks);
    EXPECT_EQ(stats.l1MshrFailures, 0u);
    EXPECT_EQ(stats.l2MshrFailures, 0u);
    EXPECT_EQ(stats.l1MshrMerges, kPages * cfg.numSms * (kAsks - 1));
    EXPECT_EQ(stats.l2MshrMerges, kPages * (cfg.numSms - 1));
    EXPECT_EQ(stats.walksCompleted, kPages);
    EXPECT_EQ(stats.regularMshrPeak, kPages);
    EXPECT_EQ(rig.engine.outstandingWalks(), 0u);
    EXPECT_EQ(rig.requests.live(), 0u);
}

// ---- In-TLB MSHR at the engine level ------------------------------------

class InTlbEngineTest : public TranslationTest
{
  protected:
    InTlbEngineTest() : TranslationTest(configWithInTlb()) {}

    static GpuConfig
    configWithInTlb()
    {
        GpuConfig cfg = sw::test::smallConfig();
        cfg.inTlbMshrMax = 32;
        return cfg;
    }
};

TEST_F(InTlbEngineTest, OverflowUsesInTlbSlots)
{
    int done = 0;
    // Enough distinct VPNs to exhaust the 16 regular MSHRs.
    for (Vpn vpn = 0; vpn < 40; ++vpn)
        engine.translate(client.translation(SmId(vpn % cfg.numSms),
                                            K(0x3000 + vpn * 8),
                                            [&](Pfn) { ++done; }));
    eq.run();
    EXPECT_EQ(done, 40);
    EXPECT_GT(engine.stats().inTlbMshrAllocs, 0u);
    EXPECT_EQ(engine.l2Tlb().pendingCount(), 0u) << "all cleared at the end";
}

TEST_F(InTlbEngineTest, InTlbReducesFailuresVsBaseline)
{
    int done = 0;
    for (Vpn vpn = 0; vpn < 48; ++vpn)
        engine.translate(client.translation(SmId(vpn % cfg.numSms),
                                            K(0x4000 + vpn * 8),
                                            [&](Pfn) { ++done; }));
    eq.run();
    std::uint64_t with_intlb = engine.stats().l2MshrFailures;

    // Baseline comparison.
    EngineRig baseline(sw::test::smallConfig());
    int base_done = 0;
    for (Vpn vpn = 0; vpn < 48; ++vpn)
        baseline.engine.translate(baseline.client.translation(
            SmId(vpn % baseline.cfg.numSms), K(0x4000 + vpn * 8),
            [&](Pfn) { ++base_done; }));
    baseline.eq.run();
    EXPECT_EQ(done, 48);
    EXPECT_EQ(base_done, 48);
    EXPECT_LT(with_intlb, baseline.engine.stats().l2MshrFailures);
}

TEST_F(InTlbEngineTest, CapRespected)
{
    for (Vpn vpn = 0; vpn < 200; ++vpn)
        engine.translate(client.translation(SmId(vpn % cfg.numSms),
                                            K(0x9000 + vpn * 8), [](Pfn) {}));
    eq.run();
    EXPECT_LE(engine.stats().inTlbMshrPeak, 32u);
}

} // namespace
