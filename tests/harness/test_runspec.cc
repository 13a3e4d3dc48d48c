/**
 * @file
 * Tests for the unified RunSpec entry point: source selection, limits
 * resolution, and the exactly-one-source contract.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "test_util.hh"
#include "workload/benchmarks.hh"
#include "workload/generators.hh"

using namespace sw;

namespace {

Gpu::RunLimits
tinyLimits()
{
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 300;
    limits.maxCycles = 2000000;
    return limits;
}

std::unique_ptr<Workload>
tinyWorkload()
{
    GraphWorkload::Params params;
    params.pagesPerInstr = 0.5;
    return std::make_unique<GraphWorkload>("tiny", 128ull << 20, true, 10,
                                           params);
}

TEST(RunSpec, NamedBenchmarkGetsBenchmarkLimits)
{
    // With no explicit limits, a benchmark source resolves
    // limitsFor(info) — observable through the larger regular quota
    // (vs. the irregular default).
    setenv("SW_QUOTA", "100", 1);
    setenv("SW_QUOTA_REG", "150", 1);
    setenv("SW_WARMUP", "0", 1);
    setenv("SW_WARMUP_REG", "0", 1);

    RunSpec spec;
    spec.cfg = test::smallConfig();
    spec.benchmark = &findBenchmark("gemm");   // regular benchmark
    RunResult result = run(std::move(spec));
    EXPECT_EQ(result.warpInstrs, 150u)
        << "named benchmark must pick up limitsFor(), not defaultLimits()";

    unsetenv("SW_QUOTA");
    unsetenv("SW_QUOTA_REG");
    unsetenv("SW_WARMUP");
    unsetenv("SW_WARMUP_REG");
}

TEST(RunSpec, ExplicitLimitsBeatBenchmarkDefaults)
{
    RunSpec spec;
    spec.cfg = test::smallConfig();
    spec.benchmark = &findBenchmark("gemm");   // regular: big defaults
    spec.limits = tinyLimits();
    RunResult result = run(std::move(spec));
    EXPECT_EQ(result.warpInstrs, 300u);
}

/**
 * The settings next to the ones GpuConfig::validate() rejects: each of
 * these validates and runs a small bfs to its quota (in audit builds,
 * with every end-of-run audit clean).
 */
TEST(RunSpec, NeighboursOfRejectedConfigsRun)
{
    using Mode = TranslationMode;
    struct Case
    {
        const char *name;
        Mode mode;
        void (*edit)(GpuConfig &);
    };
    const Case cases[] = {
        {"no L2 TLB MSHRs", Mode::SoftWalker,
         [](GpuConfig &c) { c.l2TlbMshrs = 0; }},
        {"In-TLB MSHRs only", Mode::HardwarePtw,
         [](GpuConfig &c) {
             c.l2TlbMshrs = 0;
             c.inTlbMshrMax = 64;
         }},
        {"no TLB MSHRs", Mode::Ideal,
         [](GpuConfig &c) {
             c.l1TlbMshrs = 0;
             c.l2TlbMshrs = 0;
         }},
        {"no walkers or PWB ports", Mode::Ideal,
         [](GpuConfig &c) {
             c.numPtws = 0;
             c.pwbPorts = 0;
         }},
        {"no walkers or PWB ports", Mode::SoftWalker,
         [](GpuConfig &c) {
             c.numPtws = 0;
             c.pwbPorts = 0;
         }},
        {"no PWB entries", Mode::HardwarePtw,
         [](GpuConfig &c) { c.pwbEntries = 0; }},
        {"no PWB entries", Mode::Hybrid,
         [](GpuConfig &c) { c.pwbEntries = 0; }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(toString(c.mode)) + ", " + c.name);
        RunSpec spec;
        spec.cfg = c.mode == Mode::SoftWalker || c.mode == Mode::Hybrid
                       ? makeSoftWalkerConfig(c.mode)
                       : makeDefaultConfig();
        spec.cfg.mode = c.mode;
        c.edit(spec.cfg);
        spec.cfg.validate();
        spec.benchmark = &findBenchmark("bfs");
        spec.limits = tinyLimits();
        EXPECT_EQ(run(std::move(spec)).warpInstrs, 300u);
    }
}

TEST(RunSpecDeath, NoSourceIsFatal)
{
    RunSpec spec;
    spec.cfg = test::smallConfig();
    EXPECT_DEATH(run(std::move(spec)), "exactly one workload source");
}

TEST(RunSpecDeath, TwoSourcesAreFatal)
{
    RunSpec spec;
    spec.cfg = test::smallConfig();
    spec.benchmark = &findBenchmark("gups");
    spec.workload = tinyWorkload();
    EXPECT_DEATH(run(std::move(spec)), "exactly one workload source");
}

TEST(RunSpecDeath, WorkloadPlusReplayIsFatal)
{
    RunSpec spec;
    spec.cfg = test::smallConfig();
    spec.workload = tinyWorkload();
    spec.replayPath = "whatever.swtrace";
    EXPECT_DEATH(run(std::move(spec)), "exactly one workload source");
}

TEST(RunSpecDeath, CheckpointOutWithoutABarrierIsFatal)
{
    // With no checkpointAtInstrs the run would never write the file.
    RunSpec spec;
    spec.cfg = test::smallConfig();
    spec.workload = tinyWorkload();
    spec.limits = tinyLimits();
    spec.checkpointOut = "never-written.swckpt";
    EXPECT_DEATH(run(std::move(spec)), "without a checkpointAtInstrs");
}

} // namespace
