/** @file Tests for the experiment harness. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "harness/experiment.hh"
#include "sim/logging.hh"
#include "test_util.hh"
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

/** run() an ad-hoc workload instance through a RunSpec. */
RunResult
runTiny(const GpuConfig &cfg, std::unique_ptr<Workload> workload,
        const Gpu::RunLimits &limits)
{
    RunSpec spec;
    spec.cfg = cfg;
    spec.workload = std::move(workload);
    spec.limits = limits;
    return run(std::move(spec));
}

TEST(Experiment, RunWorkloadProducesPopulatedResult)
{
    RunResult result = runTiny(test::smallConfig(), tinyWorkload(),
                               tinyLimits());
    EXPECT_EQ(result.benchmark, "tiny");
    EXPECT_EQ(result.mode, TranslationMode::HardwarePtw);
    EXPECT_EQ(result.warpInstrs, 300u);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.perf, 0.0);
    EXPECT_GT(result.walks, 0u);
    EXPECT_GT(result.l2TlbMpki, 0.0);
    EXPECT_GT(result.avgWalkTotalLatency, 0.0);
    EXPECT_EQ(result.faults, 0u);
}

TEST(Experiment, SoftWalkerResultCarriesBackendStats)
{
    RunResult result = runTiny(test::smallSoftWalkerConfig(),
                               tinyWorkload(), tinyLimits());
    EXPECT_EQ(result.mode, TranslationMode::SoftWalker);
    EXPECT_GT(result.swToSoftware, 0u);
    EXPECT_GT(result.swBatches, 0u);
    EXPECT_GT(result.swInstructions, 0u);
}

TEST(Experiment, HardwareResultHasNoSoftwalkerStats)
{
    RunResult result = runTiny(test::smallConfig(), tinyWorkload(),
                               tinyLimits());
    EXPECT_EQ(result.swToSoftware, 0u);
    EXPECT_EQ(result.swBatches, 0u);
}

TEST(Experiment, SpeedupIsPerfRatio)
{
    RunResult base;
    base.perf = 0.5;
    RunResult opt;
    opt.perf = 1.5;
    EXPECT_DOUBLE_EQ(speedup(base, opt), 3.0);
}

TEST(Experiment, SpeedupsVectorised)
{
    RunResult a1, a2, b1, b2;
    a1.perf = 1.0;
    a2.perf = 2.0;
    b1.perf = 2.0;
    b2.perf = 2.0;
    auto result = speedups({a1, a2}, {b1, b2});
    ASSERT_EQ(result.size(), 2u);
    EXPECT_DOUBLE_EQ(result[0], 2.0);
    EXPECT_DOUBLE_EQ(result[1], 1.0);
}

TEST(Experiment, BenchmarkSourceUsesRegistry)
{
    RunSpec spec;
    spec.cfg = test::smallConfig();
    spec.benchmark = &findBenchmark("gemm");
    spec.limits = tinyLimits();
    RunResult result = run(std::move(spec));
    EXPECT_EQ(result.benchmark, "gemm");
    EXPECT_EQ(result.warpInstrs, 300u);
}

TEST(Experiment, DefaultLimitsReadEnvironment)
{
    setenv("SW_QUOTA", "777", 1);
    setenv("SW_WARMUP", "111", 1);
    Gpu::RunLimits limits = defaultLimits();
    EXPECT_EQ(limits.warpInstrQuota, 777u);
    EXPECT_EQ(limits.warmupInstrs, 111u);
    unsetenv("SW_QUOTA");
    unsetenv("SW_WARMUP");
}

TEST(Experiment, WarmupsMayBeZero)
{
    setenv("SW_WARMUP", "0", 1);
    setenv("SW_WARMUP_REG", "0", 1);
    EXPECT_EQ(defaultLimits().warmupInstrs, 0u);
    EXPECT_EQ(limitsFor(findBenchmark("2dc")).warmupInstrs, 0u);
    unsetenv("SW_WARMUP");
    unsetenv("SW_WARMUP_REG");
}

TEST(ExperimentDeath, RejectsMalformedLimitsEnvironment)
{
    // Each value used to run silently: 1e4 as a quota of 1, -1 as 2^64-1,
    // a zero quota as a table of zeros, a zero cycle cap as a panic.
    const struct
    {
        const char *name;
        const char *value;
    } bad[] = {{"SW_QUOTA", "1e4"},
               {"SW_QUOTA", "-1"},
               {"SW_QUOTA", "0"},
               {"SW_QUOTA", " 12"},
               {"SW_QUOTA", "18446744073709551616"},
               {"SW_WARMUP", "5k"},
               {"SW_MAXCYCLES", "0"},
               {"SW_QUOTA_REG", "0"},
               {"SW_WARMUP_REG", "+3"}};
    for (const auto &entry : bad) {
        SCOPED_TRACE(std::string(entry.name) + "=" + entry.value);
        setenv(entry.name, entry.value, 1);
        EXPECT_DEATH(limitsFor(findBenchmark("2dc")),
                     std::string("environment variable ") + entry.name +
                         "='");
        unsetenv(entry.name);
    }
}

TEST(Experiment, LimitsForRegularAreLarger)
{
    Gpu::RunLimits regular = limitsFor(findBenchmark("2dc"));
    Gpu::RunLimits irregular = limitsFor(findBenchmark("bfs"));
    EXPECT_GT(regular.warmupInstrs, irregular.warmupInstrs);
}

TEST(Experiment, StallFractionNormalised)
{
    RunResult result;
    result.cycles = 1000;
    result.memStallCycles = 2000;
    EXPECT_DOUBLE_EQ(result.stallFraction(4), 0.5);
}

TEST(ExperimentDeath, SpeedupWithZeroBaselinePanics)
{
    RunResult base, opt;
    opt.perf = 1.0;
    EXPECT_DEATH(speedup(base, opt), "no progress");
}

/** A baseline the cycle cap stopped during warmup names itself. */
TEST(ExperimentDeath, StalledBaselineNamesItsBenchmarkAndTheCycleCap)
{
    RunResult base, opt;
    base.benchmark = "gups";
    opt.perf = 1.0;
    EXPECT_DEATH(speedup(base, opt),
                 "fatal: speedup: the baseline run of gups made no "
                 "progress.*cycle cap \\(SW_MAXCYCLES\\)");
}

/** run() warns when the cycle cap, not the quota, ended the run. */
TEST(Experiment, CappedRunWarnsThatItsResultsArePartial)
{
    LogLevel level = logLevel();
    setLogLevel(LogLevel::Warn);
    Gpu::RunLimits capped = tinyLimits();
    capped.maxCycles = 2000;
    ::testing::internal::CaptureStderr();
    RunResult partial = runTiny(test::smallConfig(), tinyWorkload(), capped);
    std::string capped_err = ::testing::internal::GetCapturedStderr();
    ::testing::internal::CaptureStderr();
    RunResult whole = runTiny(test::smallConfig(), tinyWorkload(),
                              tinyLimits());
    std::string whole_err = ::testing::internal::GetCapturedStderr();
    setLogLevel(level);

    EXPECT_LT(partial.warpInstrs, 300u);
    EXPECT_NE(capped_err.find(
                  "warn: tiny (hw-ptw) stopped at the cycle cap of 2000 "
                  "cycles with " + std::to_string(partial.warpInstrs) +
                  " of its 300-instruction quota issued"),
              std::string::npos)
        << capped_err;
    EXPECT_EQ(whole.warpInstrs, 300u);
    EXPECT_EQ(whole_err.find("cycle cap"), std::string::npos) << whole_err;
}

/**
 * The warmup ends at a 200-cycle poll; a quota and warmup the machine's
 * warps fetch at once all issue before it, and the run measures nothing.
 * It says so; a run that measures instructions does not.
 */
TEST(Experiment, EmptyMeasuredRegionWarns)
{
    LogLevel level = logLevel();
    setLogLevel(LogLevel::Warn);
    Gpu::RunLimits tiny = tinyLimits();
    tiny.warpInstrQuota = 10;
    tiny.warmupInstrs = 10;
    ::testing::internal::CaptureStderr();
    RunResult empty = runTiny(test::smallConfig(), tinyWorkload(), tiny);
    std::string empty_err = ::testing::internal::GetCapturedStderr();
    Gpu::RunLimits warmed = tinyLimits();
    warmed.warmupInstrs = 100;
    ::testing::internal::CaptureStderr();
    RunResult measured = runTiny(test::smallConfig(), tinyWorkload(), warmed);
    std::string measured_err = ::testing::internal::GetCapturedStderr();
    setLogLevel(level);

    EXPECT_EQ(empty.warpInstrs, 0u);
    EXPECT_EQ(empty.perf, 0.0);
    EXPECT_NE(empty_err.find(
                  "warn: tiny (hw-ptw) measured no warp instruction: its "
                  "10-instruction quota and 10-instruction warmup all "
                  "issued before the warmup ended"),
              std::string::npos)
        << empty_err;
    EXPECT_GT(measured.warpInstrs, 0u);
    EXPECT_EQ(measured_err.find("measured no warp instruction"),
              std::string::npos)
        << measured_err;
}

} // namespace
