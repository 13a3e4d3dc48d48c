/**
 * @file
 * Failure injection: drive the translation machinery into its rare paths
 * — sustained page faults, fault-buffer overflow, pathologically small
 * structures, saturated In-TLB sets — and verify the system degrades
 * gracefully instead of deadlocking or corrupting state.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "core/softwalker.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "test_util.hh"
#include "workload/generators.hh"

using namespace sw;

namespace {

TEST(FailureInjection, SustainedFaultStormResolves)
{
    // Every page is initially unmapped and map-on-demand is off: every
    // first-touch walk faults, gets logged (FFB), and replays after the
    // driver maps the page.
    GpuConfig cfg = test::smallSoftWalkerConfig();
    Gpu gpu(cfg, std::make_unique<RandomAccessWorkload>("faulty",
                                                        64ull << 20, 5,
                                                        1.0));
    installWalkBackend(gpu);
    gpu.engine().setMapOnDemand(false);
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 150;
    limits.maxCycles = 20000000;
    gpu.run(limits);

    const TranslationEngine::Stats &stats = gpu.engine().stats();
    EXPECT_EQ(gpu.instructionsIssued(), 150u);
    EXPECT_GT(stats.faults, 0u);
    EXPECT_EQ(stats.walksCreated, stats.walksCompleted);
    EXPECT_TRUE(gpu.eventQueue().empty());
}

TEST(FailureInjection, FaultBufferOverflowIsCountedNotFatal)
{
    GpuConfig cfg = test::smallConfig();
    Gpu gpu(cfg, std::make_unique<RandomAccessWorkload>("faulty",
                                                        64ull << 20, 5,
                                                        1.0));
    gpu.engine().setMapOnDemand(false);
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 200;
    limits.maxCycles = 20000000;
    gpu.run(limits);
    const FaultBuffer::Stats &fb = gpu.engine().faultBuffer().stats();
    // A random 32-lane workload faults far faster than the 64-entry
    // buffer drains; overflows are recorded and the run still completes.
    EXPECT_GT(fb.recorded + fb.overflows, 64u);
    EXPECT_EQ(gpu.instructionsIssued(), 200u);
}

TEST(FailureInjection, OneMshrOneWalkerStillCompletes)
{
    GpuConfig cfg = test::smallConfig();
    cfg.numPtws = 1;
    cfg.pwbEntries = 1;
    cfg.l2TlbMshrs = 1;
    cfg.l1TlbMshrs = 1;
    Gpu gpu(cfg, std::make_unique<RandomAccessWorkload>("hostile",
                                                        128ull << 20, 5,
                                                        1.0));
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 60;
    limits.maxCycles = 60000000;
    gpu.run(limits);
    EXPECT_EQ(gpu.instructionsIssued(), 60u);
    EXPECT_GT(gpu.engine().stats().l2MshrFailures, 0u);
    EXPECT_GT(gpu.engine().stats().l1MshrFailures, 0u);
    EXPECT_TRUE(gpu.eventQueue().empty());
}

TEST(FailureInjection, SingleLaneSoftWalkerSurvivesPressure)
{
    GpuConfig cfg = test::smallSoftWalkerConfig();
    cfg.pwWarpThreads = 1;
    cfg.softPwbEntries = 1;
    GraphWorkload::Params params;
    params.pagesPerInstr = 1.5;
    params.windowPages = 8;
    Gpu gpu(cfg, std::make_unique<GraphWorkload>("pressure", 256ull << 20,
                                                 true, 5, params));
    installWalkBackend(gpu);
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 300;
    limits.maxCycles = 60000000;
    gpu.run(limits);
    EXPECT_EQ(gpu.instructionsIssued(), 300u);
    SoftWalkerBackend *backend = softWalkerOf(gpu);
    // With 4 lanes total GPU-wide, the distributor queue must have been
    // exercised — and fully drained.
    EXPECT_GT(backend->stats().queuedNoCapacity, 0u);
    EXPECT_EQ(backend->inFlight(), 0u);
    EXPECT_EQ(backend->distributor().totalCredits(), 0u);
}

TEST(FailureInjection, InTlbSetSaturationDoesNotDeadlock)
{
    // Gathers confined to one L2 TLB set: pending slots saturate that set
    // and further misses must wait for completions, never deadlock.
    GpuConfig cfg = test::smallSoftWalkerConfig();
    cfg.l2TlbMshrs = 2;
    SparseWorkload::Params params;
    params.gatherFraction = 1.0;
    params.setStridePages = cfg.l2TlbEntries / cfg.l2TlbWays; // one set
    params.pagesPerInstr = 0.0;
    Gpu gpu(cfg, std::make_unique<SparseWorkload>("oneset", 512ull << 20,
                                                  5, params));
    installWalkBackend(gpu);
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 300;
    limits.maxCycles = 60000000;
    gpu.run(limits);
    EXPECT_EQ(gpu.instructionsIssued(), 300u);
    const TlbArray::Stats &l2 = gpu.engine().l2Tlb().stats();
    EXPECT_GT(l2.pendingAllocFailures, 0u)
        << "the saturated set must have rejected pending allocations";
    EXPECT_EQ(gpu.engine().l2Tlb().pendingCount(), 0u);
}

TEST(FailureInjection, ZeroComputeGapBackToBackIssue)
{
    GpuConfig cfg = test::smallConfig();
    StreamingWorkload::Params params;
    Gpu gpu(cfg, std::make_unique<StreamingWorkload>("b2b", 64ull << 20,
                                                     false, 0, params));
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 500;
    gpu.run(limits);
    EXPECT_EQ(gpu.instructionsIssued(), 500u);
}

TEST(FailureInjection, TinyFootprintSaturatesTlbsHarmlessly)
{
    GpuConfig cfg = test::smallSoftWalkerConfig();
    StreamingWorkload::Params params;
    // One page of footprint: everything hits after the first walk.
    Gpu gpu(cfg, std::make_unique<StreamingWorkload>("tiny", 64 * 1024,
                                                     false, 5, params));
    installWalkBackend(gpu);
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 400;
    gpu.run(limits);
    EXPECT_EQ(gpu.instructionsIssued(), 400u);
    EXPECT_LE(gpu.engine().stats().walksCompleted, 4u);
}

/** FNV-1a 64 of a result's %a fingerprint. */
std::uint64_t
fingerprintDigest(const RunResult &result)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : fingerprint(result)) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * Golden run whose events land far ahead: every page-table read takes
 * 10,000 cycles and every first touch faults and replays 2,000 cycles
 * later.  No benchmark workload schedules that far out, so this pins
 * the event order of long delays on its own.
 */
TEST(LongDelayGolden, SoftWalkerFingerprintIsPinned)
{
    GpuConfig cfg = test::smallSoftWalkerConfig();
    cfg.fixedPtAccessLatency = 10000;
    Gpu gpu(cfg, std::make_unique<RandomAccessWorkload>("long-delay",
                                                        64ull << 20, 5,
                                                        1.0));
    installWalkBackend(gpu);
    gpu.engine().setMapOnDemand(false);
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 300;
    limits.maxCycles = 20000000;
    gpu.run(limits);

    EXPECT_EQ(gpu.instructionsIssued(), 300u);
    EXPECT_GT(gpu.engine().stats().faults, 0u);
    EXPECT_TRUE(gpu.eventQueue().empty());
    EXPECT_EQ(fingerprintDigest(collectResult(gpu, "long-delay")),
              0xac24f061c40fb410ull);
}

} // namespace
