/**
 * @file
 * Co-run harness tests (harness/corun.hh): solo-baseline machine shaping,
 * per-tenant attribution, metric arithmetic, and the determinism contract
 * the CI co-run gate compares fingerprints under.
 */

#include <gtest/gtest.h>

#include "harness/corun.hh"

#include "../test_util.hh"

using namespace sw;

namespace {

/** Tiny two-tenant SoftWalker machine that runs in milliseconds. */
CoRunSpec
tinySpec()
{
    CoRunSpec spec;
    spec.cfg = test::smallSoftWalkerConfig();
    spec.cfg.migPartitioning = true;
    spec.tenants.push_back({"gups", 0.05});
    spec.tenants.push_back({"gemm", 0.05});
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 600;
    limits.warmupInstrs = 200;
    limits.maxCycles = 2000000;
    spec.limits = limits;
    return spec;
}

TEST(SoloConfig, ShrinksToTheTenantSlice)
{
    GpuConfig cfg = test::smallConfig();
    cfg.numTenants = 2;
    GpuConfig solo = soloConfigFor(cfg, 1);
    EXPECT_EQ(solo.numSms, 2u) << "half of the 4 SMs";
    EXPECT_EQ(solo.numTenants, 1u);
    EXPECT_FALSE(solo.migPartitioning);
    EXPECT_EQ(solo.l2TlbEntries, cfg.l2TlbEntries)
        << "without MIG the co-run shares the whole L2 TLB";
}

TEST(SoloConfig, MigScalesTheL2TlbToTheWayShare)
{
    GpuConfig cfg = test::smallConfig();   // 64 entries, 8 ways
    cfg.numTenants = 2;
    cfg.migPartitioning = true;
    GpuConfig solo = soloConfigFor(cfg, 0);
    EXPECT_EQ(solo.l2TlbWays, 4u);
    EXPECT_EQ(solo.l2TlbEntries, 32u)
        << "entries follow the way share (8 sets preserved)";
    solo.validate();   // the scaled machine must still be constructible
}

TEST(CoRun, BothTenantsProgressAndMetricsAgree)
{
    CoRunResult result = runCoRun(tinySpec());
    ASSERT_EQ(result.tenants.size(), 2u);
    EXPECT_GT(result.cycles, 0u);
    for (const TenantOutcome &outcome : result.tenants) {
        EXPECT_GT(outcome.warpInstrs, 0u)
            << "tenant " << outcome.asid << " starved";
        EXPECT_GT(outcome.perf, 0.0);
        EXPECT_GT(outcome.soloPerf, 0.0);
        EXPECT_DOUBLE_EQ(outcome.weightedSpeedup,
                         outcome.perf / outcome.soloPerf);
        EXPECT_DOUBLE_EQ(outcome.slowdown,
                         outcome.soloPerf / outcome.perf);
    }
    double stp = result.tenants[0].weightedSpeedup +
                 result.tenants[1].weightedSpeedup;
    EXPECT_DOUBLE_EQ(result.systemThroughput, stp);
    double lo = std::min(result.tenants[0].weightedSpeedup,
                         result.tenants[1].weightedSpeedup);
    double hi = std::max(result.tenants[0].weightedSpeedup,
                         result.tenants[1].weightedSpeedup);
    EXPECT_DOUBLE_EQ(result.fairness, lo / hi);
    EXPECT_LE(result.fairness, 1.0);
}

TEST(CoRun, SkippingSoloBaselinesLeavesDerivedFieldsZero)
{
    CoRunSpec spec = tinySpec();
    spec.soloBaselines = false;
    CoRunResult result = runCoRun(spec);
    EXPECT_EQ(result.systemThroughput, 0.0);
    EXPECT_EQ(result.fairness, 0.0);
    for (const TenantOutcome &outcome : result.tenants) {
        EXPECT_GT(outcome.perf, 0.0);
        EXPECT_EQ(outcome.soloPerf, 0.0);
        EXPECT_EQ(outcome.weightedSpeedup, 0.0);
    }
}

TEST(CoRun, FingerprintIsDeterministic)
{
    // The CI co-run gate's contract: same spec, bit-identical outcome.
    std::string a = corunFingerprint(runCoRun(tinySpec()));
    std::string b = corunFingerprint(runCoRun(tinySpec()));
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("tenant1.weightedSpeedup="), std::string::npos);
}

TEST(CoRun, RegimeChangesTheOutcome)
{
    // Shared vs. MIG-partitioned machines must not silently coincide —
    // the partitioning knobs have to reach the translation path.
    CoRunSpec shared = tinySpec();
    shared.cfg.migPartitioning = false;
    std::string a = corunFingerprint(runCoRun(shared));
    std::string b = corunFingerprint(runCoRun(tinySpec()));
    EXPECT_NE(a, b);
}

TEST(CoRunDeath, EmptySpecIsFatal)
{
    EXPECT_DEATH(runCoRun(CoRunSpec{}), "no tenants");
}

TEST(CoRunDeath, UnknownTenantIsFatal)
{
    // A tenant names a Table 4 benchmark; anything else ends in the fatal
    // that lists the valid names, before any machine is built.
    CoRunSpec spec = tinySpec();
    spec.tenants[1].workload = "trace:run.swtrace";
    EXPECT_DEATH(runCoRun(spec),
                 "unknown benchmark 'trace:run.swtrace' \\(valid: bc, ");
}

} // namespace
