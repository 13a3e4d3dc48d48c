/**
 * @file
 * Phase sampling: the clustering pass separates synthetic phases, the
 * plan is deterministic and well-formed, and the end-to-end sampled run
 * reconstructs metrics from a fraction of the detailed instructions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/sampling.hh"
#include "harness/experiment.hh"
#include "harness/sampled.hh"
#include "trace/trace_format.hh"
#include "workload/benchmarks.hh"

#include "../test_util.hh"

using namespace sw;

namespace {

WarpInstr
instrAt(std::uint64_t base, std::uint64_t step)
{
    WarpInstr instr;
    instr.activeLanes = 4;
    for (std::uint32_t lane = 0; lane < instr.activeLanes; ++lane)
        instr.addrs[lane] = base + step * lane;
    return instr;
}

/**
 * A single-stream trace with two blatantly different phases: the first
 * 100 instructions walk pages near 256 MiB, the next 100 near 1 GiB.
 */
TraceFile
twoPhaseTrace()
{
    TraceFile trace;
    trace.header.name = "two-phase";
    TraceStream stream;
    stream.sm = 0;
    stream.warp = 0;
    for (std::uint64_t i = 0; i < 100; ++i)
        stream.instrs.push_back(instrAt(0x10000000 + i * 64, 4096));
    for (std::uint64_t i = 0; i < 100; ++i)
        stream.instrs.push_back(instrAt(0x40000000 + i * 64, 4096));
    trace.streams.push_back(std::move(stream));
    return trace;
}

SamplingOptions
twoPhaseOptions()
{
    SamplingOptions opts;
    opts.windowInstrs = 20;
    opts.numClusters = 2;
    return opts;
}

TEST(Sampling, SeparatesSyntheticPhases)
{
    SamplingPlan plan = buildSamplingPlan(twoPhaseTrace(), twoPhaseOptions());
    EXPECT_EQ(plan.totalInstrs, 200u);
    EXPECT_EQ(plan.totalWindows, 10u);
    ASSERT_EQ(plan.windows.size(), 2u);
    // One representative from each half of the run.
    EXPECT_LT(plan.windows[0].startInstr, 100u);
    EXPECT_GE(plan.windows[1].startInstr, 100u);
    EXPECT_NE(plan.windows[0].cluster, plan.windows[1].cluster);
}

TEST(Sampling, PlanIsWellFormed)
{
    SamplingPlan plan = buildSamplingPlan(twoPhaseTrace(), twoPhaseOptions());
    double total_weight = 0.0;
    std::uint64_t prev_end = 0;
    for (const SampleWindow &w : plan.windows) {
        EXPECT_GE(w.startInstr, prev_end);   // sorted, non-overlapping
        EXPECT_GT(w.instrs, 0u);
        EXPECT_LE(w.startInstr + w.instrs,
                  plan.skipInstrs + plan.totalInstrs);
        EXPECT_GT(w.weight, 0.0);
        total_weight += w.weight;
        prev_end = w.startInstr + w.instrs;
    }
    EXPECT_NEAR(total_weight, 1.0, 1e-9);
    EXPECT_LT(plan.detailedInstrs(), plan.totalInstrs);
}

TEST(Sampling, PlanIsDeterministic)
{
    TraceFile trace = twoPhaseTrace();
    SamplingOptions opts = twoPhaseOptions();
    SamplingPlan a = buildSamplingPlan(trace, opts);
    SamplingPlan b = buildSamplingPlan(trace, opts);
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t i = 0; i < a.windows.size(); ++i) {
        EXPECT_EQ(a.windows[i].index, b.windows[i].index);
        EXPECT_EQ(a.windows[i].cluster, b.windows[i].cluster);
        EXPECT_DOUBLE_EQ(a.windows[i].weight, b.windows[i].weight);
    }
}

TEST(Sampling, SingleClusterCoversEverything)
{
    SamplingOptions opts = twoPhaseOptions();
    opts.numClusters = 1;
    SamplingPlan plan = buildSamplingPlan(twoPhaseTrace(), opts);
    ASSERT_EQ(plan.windows.size(), 1u);
    EXPECT_DOUBLE_EQ(plan.windows[0].weight, 1.0);
}

TEST(Sampling, StationaryFootprintStratifiesInTime)
{
    // Every window touches the same pages, so the histograms carry no
    // phase signal at all; the temporal feature must then spread the
    // representatives across the run instead of letting them collapse
    // wherever the seeding landed.
    TraceFile trace;
    trace.header.name = "stationary";
    TraceStream stream;
    stream.sm = 0;
    stream.warp = 0;
    for (std::uint64_t i = 0; i < 400; ++i)
        stream.instrs.push_back(instrAt(0x10000000 + (i % 20) * 64, 4096));
    trace.streams.push_back(std::move(stream));

    SamplingOptions opts;
    opts.windowInstrs = 20;  // 20 windows
    opts.numClusters = 4;
    SamplingPlan plan = buildSamplingPlan(trace, opts);
    ASSERT_EQ(plan.windows.size(), 4u);
    // One representative per quarter of the run, equally weighted.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_GE(plan.windows[i].startInstr, i * 100)
            << "representative " << i << " outside its time stratum";
        EXPECT_LT(plan.windows[i].startInstr, (i + 1) * 100)
            << "representative " << i << " outside its time stratum";
        // k-means strata need not be exactly equal, but none may collapse
        // or swallow the run.
        EXPECT_NEAR(plan.windows[i].weight, 0.25, 0.1);
    }

    // With the temporal feature disabled the windows are
    // indistinguishable and the plan degenerates (fewer representatives
    // or skewed weights) — pin that the knob is what does the work.
    opts.timeFeatureWeight = 0.0;
    SamplingPlan flat = buildSamplingPlan(trace, opts);
    bool degenerate = flat.windows.size() < 4;
    for (const SampleWindow &w : flat.windows)
        degenerate = degenerate || std::abs(w.weight - 0.25) > 0.1;
    EXPECT_TRUE(degenerate);
}

TEST(Sampling, SkipExcludesColdStartRegion)
{
    // Skipping the first phase leaves only phase-B windows: every
    // representative lands past the skip boundary and the sampled region
    // shrinks accordingly.
    SamplingOptions opts = twoPhaseOptions();
    opts.skipInstrs = 100;
    SamplingPlan plan = buildSamplingPlan(twoPhaseTrace(), opts);
    EXPECT_EQ(plan.skipInstrs, 100u);
    EXPECT_EQ(plan.totalInstrs, 100u);
    EXPECT_EQ(plan.totalWindows, 5u);
    double total_weight = 0.0;
    for (const SampleWindow &w : plan.windows) {
        EXPECT_GE(w.startInstr, 100u);
        EXPECT_LE(w.startInstr + w.instrs, 200u);
        total_weight += w.weight;
    }
    EXPECT_NEAR(total_weight, 1.0, 1e-9);
}

TEST(Sampling, SkipCoveringWholeTraceIsFatal)
{
    SamplingOptions opts = twoPhaseOptions();
    opts.skipInstrs = 200;
    EXPECT_DEATH(buildSamplingPlan(twoPhaseTrace(), opts),
                 "covers the whole");
}

TEST(Sampling, NonFiniteTimeWeightPanics)
{
    // An infinite weight makes window 0's time feature inf * 0 = NaN; no
    // distance to it compares, so a cluster can end without a
    // representative window.  A NaN weight is no weight at all.
    SamplingOptions opts = twoPhaseOptions();
    for (double weight : {std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
        opts.timeFeatureWeight = weight;
        EXPECT_DEATH(buildSamplingPlan(twoPhaseTrace(), opts),
                     "weight must be finite");
    }
}

TEST(Sampling, EmptyTraceIsFatal)
{
    TraceFile trace;
    trace.header.name = "empty";
    EXPECT_DEATH(buildSamplingPlan(trace, SamplingOptions{}), "empty trace");
}

TEST(Sampling, ObservedRunIsFatal)
{
    // No observer follows a sampled run, so a bundle would stay empty.
    Observability obs;
    RunSpec spec;
    spec.cfg = test::smallConfig();
    spec.replayPath = "never-opened.swtrace";
    spec.obs = &obs;
    EXPECT_DEATH(runSampled(std::move(spec), SamplingOptions{}),
                 "attaches no observers");
}

TEST(Sampling, WeightedEstimateKnownValues)
{
    // Mean: 0.25*2 + 0.75*6 = 5; variance: 0.25*9 + 0.75*1 = 3.
    MetricEstimate e = weightedEstimate({2.0, 6.0}, {0.25, 0.75});
    EXPECT_DOUBLE_EQ(e.mean, 5.0);
    EXPECT_NEAR(e.spread, 1.7320508, 1e-6);

    MetricEstimate uniform = weightedEstimate({4.0}, {1.0});
    EXPECT_DOUBLE_EQ(uniform.mean, 4.0);
    EXPECT_DOUBLE_EQ(uniform.spread, 0.0);
}

TEST(Sampling, EndToEndSampledRun)
{
    // Record a short bfs run, then sample it: the sampled result must
    // cover fewer detailed instructions and still produce estimates for
    // the headline metrics.
    GpuConfig cfg = test::smallConfig();
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 4000;
    limits.warmupInstrs = 0;
    limits.maxCycles = 4000000;

    std::string trace_path = ::testing::TempDir() + "sampling-e2e.swtrace";
    {
        RunSpec record;
        record.cfg = cfg;
        record.benchmark = &findBenchmark("bfs");
        record.limits = limits;
        record.recordPath = trace_path;
        run(std::move(record));
    }

    RunSpec spec;
    spec.cfg = cfg;
    spec.replayPath = trace_path;
    spec.limits = limits;
    SamplingOptions opts;
    opts.windowInstrs = 500;
    opts.numClusters = 3;
    SampledRunResult sampled = runSampled(std::move(spec), opts);

    EXPECT_FALSE(sampled.windows.empty());
    EXPECT_LE(sampled.windows.size(), 3u);
    EXPECT_LT(sampled.detailRatio(), 1.0);
    EXPECT_GT(sampled.detailRatio(), 0.0);
    ASSERT_TRUE(sampled.metrics.count("perf"));
    EXPECT_GT(sampled.metrics.at("perf").mean, 0.0);
    ASSERT_TRUE(sampled.metrics.count("l2_tlb_mpki"));
    EXPECT_GT(sampled.combined.warpInstrs, 0u);
}

} // namespace
