/**
 * @file
 * Phase-sampled simulation: run only a trace's representative windows in
 * detail, fast-forward functionally across the gaps, and reconstruct
 * whole-run metrics as cluster-weighted estimates with error bars.
 *
 * The estimator and its assumptions (stream-order alignment between the
 * plan and execution, weighted-mean reconstruction, weighted-spread error
 * bars) are specified in docs/CHECKPOINTS.md §Phase sampling; the
 * fidelity gate lives in bench/sampling_validation.cc.
 */

#ifndef SW_HARNESS_SAMPLED_HH
#define SW_HARNESS_SAMPLED_HH

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "ckpt/sampling.hh"
#include "harness/experiment.hh"

namespace sw {

/** One phase-sampled run: plan, per-window results, reconstruction. */
struct SampledRunResult
{
    SamplingPlan plan;
    /** Detailed result of each representative window (plan order). */
    std::vector<RunResult> windows;
    /**
     * Every numeric RunResult field, reconstructed across windows: mean
     * is the cluster-weighted per-window value, spread the weighted
     * standard deviation (the error bar).  Counter fields are per-window
     * values — multiply by plan.totalWindows to extrapolate totals.
     */
    std::map<std::string, MetricEstimate> metrics;
    /**
     * Headline reconstruction: rates and latencies are weighted means;
     * counters and cycles are extrapolated to whole-run totals.
     */
    RunResult combined;

    /**
     * Detailed instructions actually simulated: measured windows plus the
     * per-window timed warmups (SamplingOptions::windowWarmupInstrs).
     */
    std::uint64_t detailedInstrsRun = 0;

    /** Detailed / total instruction ratio (the speedup the issue gates). */
    double
    detailRatio() const
    {
        std::uint64_t detailed =
            detailedInstrsRun ? detailedInstrsRun : plan.detailedInstrs();
        return plan.totalInstrs
            ? double(detailed) / double(plan.totalInstrs)
            : 0.0;
    }
};

/**
 * Run @p spec phase-sampled.  The spec must use a replayPath workload
 * source (sampling needs the recorded stream to plan over); recording,
 * checkpointing, and ffwdInstrs must be unset — the sampler drives its
 * own fast-forward — and so must obs, as no observer follows a sampled
 * run.  @p opts.pageBytes is overridden with the config's
 * page size so features match the simulated geometry.
 *
 * @p sharedPlan, when non-null, replaces the plan built from this run's
 * own trace — *paired sampling*.  Metrics that compare two
 * configurations of the same workload (speedups, stall reductions)
 * difference two independent estimates; sampling both runs at the same
 * windows with the same weights makes the per-mode estimation errors
 * common-mode, so they cancel in the comparison instead of adding.
 * Build the plan from one mode's trace and pass it to every mode's
 * sampled run.  fatal() if the plan overruns this trace.
 */
SampledRunResult runSampled(RunSpec spec, SamplingOptions opts,
                            const SamplingPlan *sharedPlan = nullptr);

/** JSON artifact ("softwalker.sampled/1"): plan, windows, estimates. */
void writeSampledJson(std::ostream &out, const SampledRunResult &result);

} // namespace sw

#endif // SW_HARNESS_SAMPLED_HH
