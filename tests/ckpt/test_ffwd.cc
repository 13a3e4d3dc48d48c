/**
 * @file
 * Functional fast-forward: state warms, time does not advance, and the
 * harness integration replaces warmup without disturbing the detailed
 * region's determinism.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/ffwd.hh"
#include "core/softwalker.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "trace/trace_workload.hh"
#include "workload/benchmarks.hh"

#include "../test_util.hh"

using namespace sw;

namespace {

Gpu::RunLimits
smallLimits()
{
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 1000;
    limits.warmupInstrs = 0;
    limits.maxCycles = 4000000;
    return limits;
}

std::unique_ptr<Gpu>
freshGpu(const GpuConfig &cfg)
{
    auto gpu = std::make_unique<Gpu>(cfg, makeWorkload(findBenchmark("bfs")));
    installWalkBackend(*gpu);
    return gpu;
}

/** Forwards a workload and counts each (sm, warp) stream's fetches. */
class FetchCounter : public Workload
{
  public:
    explicit FetchCounter(std::unique_ptr<Workload> inner)
        : inner_(std::move(inner))
    {
    }

    WarpInstr
    next(SmId sm, WarpId warp, Rng &rng) override
    {
        ++fetches[{sm, warp}];
        return inner_->next(sm, warp, rng);
    }

    std::uint64_t footprintBytes() const override
    {
        return inner_->footprintBytes();
    }
    std::string name() const override { return inner_->name(); }
    bool irregular() const override { return inner_->irregular(); }

    std::map<std::pair<SmId, WarpId>, std::uint64_t> fetches;

  private:
    std::unique_ptr<Workload> inner_;
};

TEST(Ffwd, FunctionalTouchFillsTlbs)
{
    // First touch of a page walks; an immediate repeat hits L1.
    std::unique_ptr<Gpu> gpu = freshGpu(test::smallConfig());
    EXPECT_EQ(gpu->engine().functionalTouch(0, {0, 0x12345}), TouchResult::Walk);
    EXPECT_EQ(gpu->engine().functionalTouch(0, {0, 0x12345}), TouchResult::L1Hit);
    // A different SM misses its private L1 but hits the shared L2.
    EXPECT_EQ(gpu->engine().functionalTouch(1, {0, 0x12345}), TouchResult::L2Hit);
}

TEST(Ffwd, AccountingIsConsistent)
{
    std::unique_ptr<Gpu> gpu = freshGpu(test::smallConfig());
    FfwdStats stats = fastForward(*gpu, 2000, smallLimits());
    EXPECT_EQ(stats.instrs, 2000u);
    EXPECT_GT(stats.pagesTouched, 0u);
    EXPECT_GT(stats.walks, 0u);
    EXPECT_EQ(stats.pagesTouched,
              stats.l1TlbHits + stats.l2TlbHits + stats.walks);
}

TEST(Ffwd, ConsumesNoSimulatedTime)
{
    std::unique_ptr<Gpu> gpu = freshGpu(test::smallConfig());
    fastForward(*gpu, 1000, smallLimits());
    EXPECT_EQ(gpu->cycles(), 0u);
    EXPECT_TRUE(gpu->eventQueue().empty());
}

TEST(Ffwd, HarnessRunCompletesQuota)
{
    RunSpec spec;
    spec.cfg = test::smallConfig();
    spec.benchmark = &findBenchmark("bfs");
    spec.limits = smallLimits();
    spec.ffwdInstrs = 3000;
    RunResult r = run(std::move(spec));
    EXPECT_EQ(r.warpInstrs, smallLimits().warpInstrQuota);
    EXPECT_GT(r.cycles, 0u);
}

TEST(Ffwd, HarnessRunIsDeterministic)
{
    auto once = [] {
        RunSpec spec;
        spec.cfg = test::smallSoftWalkerConfig();
        spec.benchmark = &findBenchmark("bfs");
        spec.limits = smallLimits();
        spec.ffwdInstrs = 2000;
        return fingerprint(run(std::move(spec)));
    };
    EXPECT_EQ(once(), once());
}

TEST(Ffwd, ActiveWarpCapAdvancesOnlyTheStartedWarps)
{
    // Six warps dealt round-robin over four SMs start 2, 2, 1 and 1 of
    // them.  Fast-forward advances those six streams evenly and no other,
    // and the detailed segment after it fetches for the same six warps.
    auto counter = std::make_unique<FetchCounter>(
        makeWorkload(findBenchmark("bfs")));
    FetchCounter &fetched = *counter;
    Gpu gpu(test::smallConfig(), std::move(counter));
    Gpu::RunLimits limits = smallLimits();
    limits.warpInstrQuota = 300;
    limits.maxActiveWarps = 6;
    EXPECT_EQ(gpu.warpsToStart(limits),
              (std::vector<std::uint32_t>{2, 2, 1, 1}));

    fastForward(gpu, 600, limits);
    const std::map<std::pair<SmId, WarpId>, std::uint64_t> capped = {
        {{0, 0}, 100}, {{0, 1}, 100}, {{1, 0}, 100},
        {{1, 1}, 100}, {{2, 0}, 100}, {{3, 0}, 100}};
    EXPECT_EQ(fetched.fetches, capped);

    fetched.fetches.clear();
    gpu.resetAllStats();
    gpu.runSegment(limits.warpInstrQuota, 0, limits);
    EXPECT_EQ(gpu.instructionsIssued(), limits.warpInstrQuota);
    EXPECT_EQ(fetched.fetches.size(), capped.size());
    for (const auto &[stream, count] : capped)
        EXPECT_EQ(fetched.fetches.count(stream), 1u);
}

/**
 * Two-stream trace whose fetch order is maximally skewed: the recording
 * fetched all of stream 0 before any of stream 1.
 */
TraceFile
skewedTrace()
{
    TraceFile trace;
    trace.header.name = "skewed";
    for (WarpId warp = 0; warp < 2; ++warp) {
        TraceStream stream;
        stream.sm = 0;
        stream.warp = warp;
        for (std::uint32_t i = 0; i < 4; ++i) {
            WarpInstr instr;
            instr.activeLanes = 1;
            instr.addrs[0] = VirtAddr(0x100000) * (warp + 1) + 0x1000 * i;
            stream.instrs.push_back(instr);
        }
        trace.streams.push_back(std::move(stream));
    }
    trace.fetchOrder = {0, 0, 0, 0, 1, 1, 1, 1};
    return trace;
}

TEST(Ffwd, ReplaysRecordedFetchOrder)
{
    // Round-robin would advance each active warp equally; the recorded
    // order says stream 0 ran entirely before stream 1, and ffwd must
    // leave the cursors at that phase relationship.
    GpuConfig cfg = test::smallConfig();
    Gpu gpu(cfg, std::make_unique<TraceWorkload>(skewedTrace(), "skewed"));
    installWalkBackend(gpu);

    fastForward(gpu, 4, smallLimits());
    auto &replay = dynamic_cast<TraceWorkload &>(gpu.workload());
    EXPECT_EQ(replay.streamPos(0), 4u);
    EXPECT_EQ(replay.streamPos(1), 0u);

    // A second leg resumes the scan past the consumed prefix.
    fastForward(gpu, 4, smallLimits());
    EXPECT_EQ(replay.streamPos(0), 4u);
    EXPECT_EQ(replay.streamPos(1), 4u);
}

TEST(Ffwd, OrderlessTraceFallsBackToRoundRobin)
{
    // A v1 trace (no recorded order) still fast-forwards; streams advance
    // round-robin across every active warp of the machine.
    TraceFile trace = skewedTrace();
    trace.fetchOrder.clear();
    GpuConfig cfg = test::smallConfig();
    Gpu gpu(cfg, std::make_unique<TraceWorkload>(std::move(trace), "v1"));
    installWalkBackend(gpu);

    FfwdStats stats = fastForward(gpu, 4, smallLimits());
    EXPECT_EQ(stats.instrs, 4u);
    auto &replay = dynamic_cast<TraceWorkload &>(gpu.workload());
    EXPECT_EQ(replay.streamPos(0), 1u);
    EXPECT_EQ(replay.streamPos(1), 1u);
}

TEST(Ffwd, WarmupReducesColdMisses)
{
    // The whole point: a warmed run sees fewer L1 TLB misses in its
    // measured region than a cold run of the same quota.
    auto missesWith = [](std::uint64_t ffwd) {
        RunSpec spec;
        spec.cfg = test::smallConfig();
        spec.benchmark = &findBenchmark("bfs");
        spec.limits = smallLimits();
        spec.ffwdInstrs = ffwd;
        return run(std::move(spec)).l1TlbMisses;
    };
    EXPECT_LE(missesWith(20000), missesWith(0));
}

} // namespace
