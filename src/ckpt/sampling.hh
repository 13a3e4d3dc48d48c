/**
 * @file
 * SimPoint-style phase sampling over recorded `.swtrace` workloads.
 *
 * Long traces are mostly redundant: irregular GPU kernels cycle through a
 * small number of access *phases* (hot-window working sets, pointer-chase
 * bursts, streaming sweeps).  The sampling pass splits the recorded
 * instruction stream into fixed-size windows, summarises each window by a
 * hashed page-access histogram (the translation-relevant analogue of
 * SimPoint basic-block vectors), clusters the windows with a small exact
 * k-means, and picks one representative window per cluster.  Simulating
 * only the representatives — fast-forwarding functionally across the
 * gaps — reconstructs whole-run metrics as cluster-weighted means, with
 * the weighted spread across representatives as the error bar.
 *
 * Everything here is deterministic: centroids seed from evenly spaced
 * windows, iteration count is fixed, and no wall-clock or ambient
 * randomness is consulted, so the same trace always yields the same plan
 * (tests/ckpt/test_sampling.cc holds this down).
 */

#ifndef SW_CKPT_SAMPLING_HH
#define SW_CKPT_SAMPLING_HH

#include <cstdint>
#include <vector>

#include "trace/trace_format.hh"

namespace sw {

/** Tuning knobs for buildSamplingPlan(). */
struct SamplingOptions
{
    /** Warp instructions per window (phase granularity). */
    std::uint64_t windowInstrs = 2000;
    /** Clusters k; the plan simulates one representative per cluster. */
    std::uint32_t numClusters = 4;
    /** Page size used to reduce lane addresses to pages. */
    std::uint64_t pageBytes = 4096;
    /** k-means refinement iterations (fixed for determinism). */
    std::uint32_t kmeansIters = 16;
    /**
     * Detailed (timed, unmeasured) instructions run before each window to
     * re-establish in-flight contention — MSHR occupancy, queue depths,
     * outstanding walks — that functional fast-forward cannot carry
     * across a gap.  Carved out of the gap preceding the window (clamped
     * to the gap length), and counted against the detail-ratio budget.
     */
    std::uint64_t windowWarmupInstrs = 1000;
    /**
     * Leading instructions excluded from sampling — the cold-start
     * TLB-fill transient, matching the warmup a full reference run
     * discards.  The transient's pages look identical to steady state in
     * histogram space, so clustering cannot separate it; excluding it
     * (and measuring the reference with the same warmup) is the honest
     * comparison.  Execution fast-forwards through the region.
     */
    std::uint64_t skipInstrs = 0;
    /**
     * Weight of the temporal feature dimension appended to each window's
     * page-access histogram before clustering.  The histogram is
     * L1-normalised (bins sum to 1), and the extra dimension is
     * timeFeatureWeight * windowIndex / (numWindows - 1), so two windows
     * at opposite ends of the trace differ by timeFeatureWeight in that
     * coordinate.  Why it exists: a workload whose *footprint* is
     * stationary can still drift in *machine state* (TLBs warm
     * monotonically, walk counts fall), and a pure feature-space
     * clustering then sees one giant phase and parks every representative
     * wherever the seeding landed.  The temporal coordinate makes
     * clustering degenerate to stratified (evenly spaced, uniformly
     * weighted) time sampling exactly when the histograms carry no
     * signal, while genuinely distinct footprints — whose histogram
     * distance approaches sqrt(2) — still dominate the metric.  Zero
     * disables it (pure SimPoint behaviour).  It must be finite.
     */
    double timeFeatureWeight = 0.5;
};

/** One representative window the detailed simulation must cover. */
struct SampleWindow
{
    std::uint64_t index = 0;       ///< window ordinal in stream order
    std::uint64_t startInstr = 0;  ///< first warp instruction (inclusive)
    std::uint64_t instrs = 0;      ///< window length (last may be short)
    std::uint32_t cluster = 0;
    double weight = 0.0;           ///< cluster windows / total windows
};

/** Output of the clustering pass. */
struct SamplingPlan
{
    std::uint64_t windowInstrs = 0;
    /** Leading instructions excluded from sampling (cold-start region). */
    std::uint64_t skipInstrs = 0;
    /** Instructions in the sampled region (trace total minus skip). */
    std::uint64_t totalInstrs = 0;
    std::uint64_t totalWindows = 0;
    std::uint32_t clusters = 0;
    /**
     * Representatives sorted by startInstr; weights sum to 1.  startInstr
     * is absolute within the trace (skipInstrs included), so
     * skipInstrs <= startInstr and startInstr + instrs <=
     * skipInstrs + totalInstrs.
     */
    std::vector<SampleWindow> windows;

    /** Detailed instructions the plan simulates (Σ window lengths). */
    std::uint64_t
    detailedInstrs() const
    {
        std::uint64_t n = 0;
        for (const SampleWindow &w : windows)
            n += w.instrs;
        return n;
    }
};

/**
 * Cluster @p trace's windows and pick representatives.  The stream order
 * is the round-robin interleaving of the per-(sm, warp) streams — the
 * same order fastForward() and a contention-free detailed run consume
 * them.  fatal() when the trace is empty.
 */
SamplingPlan buildSamplingPlan(const TraceFile &trace,
                               const SamplingOptions &opts);

/** A whole-run metric reconstructed from representative windows. */
struct MetricEstimate
{
    double mean = 0.0;    ///< cluster-weighted mean
    double spread = 0.0;  ///< weighted std deviation across windows
};

/** Weighted mean and spread of per-window metric @p values. */
MetricEstimate weightedEstimate(const std::vector<double> &values,
                                const std::vector<double> &weights);

} // namespace sw

#endif // SW_CKPT_SAMPLING_HH
