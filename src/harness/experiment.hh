/**
 * @file
 * Experiment harness: builds a GPU from a configuration and a Table 4
 * benchmark, runs it to an instruction quota, and extracts the metric set
 * every figure in the paper draws from.
 */

#ifndef SW_HARNESS_EXPERIMENT_HH
#define SW_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "obs/observability.hh"
#include "sim/config.hh"
#include "trace/trace_workload.hh"
#include "workload/benchmarks.hh"

namespace sw {

/** Everything the figure harnesses read out of one simulation run. */
struct RunResult
{
    std::string benchmark;
    TranslationMode mode = TranslationMode::HardwarePtw;

    // Progress / performance
    Cycle cycles = 0;
    std::uint64_t warpInstrs = 0;
    double perf = 0.0;              ///< warp instructions per cycle

    // Translation path
    std::uint64_t l1TlbHits = 0;
    std::uint64_t l1TlbMisses = 0;
    std::uint64_t l2TlbAccesses = 0;
    std::uint64_t l2TlbHits = 0;
    std::uint64_t l2TlbMisses = 0;
    std::uint64_t l2MshrFailures = 0;
    std::uint64_t inTlbMshrAllocs = 0;
    std::uint64_t inTlbMshrPeak = 0;
    std::uint64_t walks = 0;
    double avgWalkQueueDelay = 0.0;
    double avgWalkAccessLatency = 0.0;
    double avgWalkTotalLatency = 0.0;
    double avgTranslationLatency = 0.0;
    double l2TlbMpki = 0.0;         ///< per thread-kilo-instruction
    double l2TlbHitRate = 0.0;
    std::uint64_t faults = 0;

    // Data memory
    double l2dMissRate = 0.0;
    std::uint64_t l2dAccesses = 0;
    std::uint64_t l2dMshrFailures = 0;
    double dramUtilisation = 0.0;

    // SM scheduler accounting
    std::uint64_t memStallCycles = 0;   ///< summed over SMs
    std::uint64_t issueSlotCycles = 0;
    std::uint64_t computeCycles = 0;
    std::uint64_t pwIssueCycles = 0;
    double avgAccessLatency = 0.0;      ///< per data access (Fig 4)

    // SoftWalker internals (zero in hardware modes)
    std::uint64_t swToHardware = 0;
    std::uint64_t swToSoftware = 0;
    std::uint64_t swBatches = 0;
    double swAvgBatchSize = 0.0;
    std::uint64_t swInstructions = 0;

    /** Stall cycles normalised by total SM-cycles. */
    double
    stallFraction(std::uint32_t num_sms) const
    {
        return cycles ? double(memStallCycles) /
                        (double(cycles) * double(num_sms))
                      : 0.0;
    }
};

/**
 * A whole-number environment override: @p fallback when @p name is unset
 * or empty, else its value, which must be all decimal digits and lie in
 * [@p lowest, @p highest].  Any other value ends in a fatal naming
 * @p name.
 */
std::uint64_t envCount(const char *name, std::uint64_t fallback,
                       std::uint64_t lowest = 1,
                       std::uint64_t highest = UINT64_MAX);

/**
 * Stopping conditions with environment overrides: SW_QUOTA and
 * SW_MAXCYCLES (positive) and SW_WARMUP (may be 0).
 */
Gpu::RunLimits defaultLimits();

/**
 * Per-benchmark limits: regular workloads run fast but suffer a long
 * kernel-start TLB-fill storm, so they get a larger warmup and quota
 * (SW_QUOTA_REG, SW_WARMUP_REG); irregular workloads reach their
 * (contended) steady state quickly.
 */
Gpu::RunLimits limitsFor(const BenchmarkInfo &info);

/** Run a prepared GPU and extract the result. */
RunResult collectResult(Gpu &gpu, const std::string &name);

/**
 * Build the machine one run simulates: the Gpu over @p workloads (one
 * per tenant), its walk backend, then @p obs when it attaches anything
 * (after the backend, so backend stats register too).  Callers time it
 * inside their Setup profiler zone.
 */
std::unique_ptr<Gpu> buildMachine(
    const GpuConfig &cfg, std::vector<std::unique_ptr<Workload>> workloads,
    const Observability *obs);

/**
 * Close @p obs over @p gpu once it has run, before the machine dies: the
 * sampler's end-of-run row (and the ledger's final sync) lands first,
 * then the registry snapshots every counter, then the sampler is
 * disarmed before its event-queue pointer dangles.
 */
void closeObservers(const Gpu &gpu, const Observability *obs);

/**
 * Everything one simulation run needs, in one struct: configuration,
 * workload source, stopping conditions, observability, and optional trace
 * recording.  This is the single harness entry point (the deprecated
 * runBenchmark()/runWorkload() shims were removed after one release).
 *
 * Workload source: set exactly one of
 *   - `benchmark` (+ `footprintScale`): a Table 4 benchmark;
 *   - `workload`: a ready-made instance (RunSpec becomes move-only);
 *   - `replayPath` (+ `replayEnd`): replay a recorded `.swtrace`.  The
 *     file's config digest is verified against `cfg` before the run.
 *
 * Limits resolve in priority order: explicit `limits`; the benchmark's
 * limitsFor(); a replayed trace's recorded limits; defaultLimits().
 */
struct RunSpec
{
    GpuConfig cfg;

    // ---- Workload source (exactly one) -------------------------------
    const BenchmarkInfo *benchmark = nullptr;
    std::unique_ptr<Workload> workload;
    std::string replayPath;

    /** Footprint multiplier for benchmark sources. */
    double footprintScale = 1.0;
    /** End-of-trace behaviour for replayPath sources. */
    TraceEndPolicy replayEnd = TraceEndPolicy::Drain;

    // ---- Stopping conditions -----------------------------------------
    std::optional<Gpu::RunLimits> limits;

    // ---- Observability (non-owning; single-run instruments) ----------
    const Observability *obs = nullptr;

    // ---- Trace recording ---------------------------------------------
    /** When non-empty, record this run's stream to a `.swtrace` here. */
    std::string recordPath;

    // ---- Checkpoint / fast-forward (docs/CHECKPOINTS.md) -------------
    /**
     * Functionally warm this many warp instructions (page table, TLBs,
     * PWC, workload cursors — no timing) before the detailed run starts.
     * Statistics are zeroed afterwards.  Incompatible with recording and
     * with checkpointIn (the checkpoint already contains its warmup).
     */
    std::uint64_t ffwdInstrs = 0;
    /**
     * Split the detailed run at this fetch count: run to the barrier,
     * save a checkpoint to checkpointOut, then continue to the end.  The
     * result covers the whole quota, so its fingerprint must equal the
     * fingerprint of a checkpointIn run restored from the saved file —
     * the determinism contract the CI gate compares.  Must not exceed
     * quota + warmup.
     */
    std::uint64_t checkpointAtInstrs = 0;
    /** Path for the checkpointAtInstrs save; needs checkpointAtInstrs. */
    std::string checkpointOut;
    /**
     * Resume from this checkpoint instead of starting cold: the spec
     * must rebuild the same machine (config digest is hard-checked) and
     * the same workload source; the run covers the remaining quota.
     */
    std::string checkpointIn;
};

/**
 * Run one simulation described by @p spec and extract its result.  When
 * an observability bundle is attached it is installed after the walk
 * backend (so backend stats register too) and the registry is capture()d
 * before the GPU is torn down.
 */
RunResult run(RunSpec spec);

/** Speedup of @p opt over @p base (performance ratio). */
double speedup(const RunResult &base, const RunResult &opt);

/** Convenience: geomean-ready vector of speedups vs. per-bench baselines. */
std::vector<double> speedups(const std::vector<RunResult> &base,
                             const std::vector<RunResult> &opt);

} // namespace sw

#endif // SW_HARNESS_EXPERIMENT_HH
