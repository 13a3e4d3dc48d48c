#include "harness/experiment.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "ckpt/checkpoint.hh"
#include "ckpt/ffwd.hh"
#include "core/softwalker.hh"
#include "prof/hostprof.hh"
#include "sim/logging.hh"
#include "trace/trace_recorder.hh"
#include "workload/generators.hh"

namespace sw {

std::uint64_t
envCount(const char *name, std::uint64_t fallback, std::uint64_t lowest,
         std::uint64_t highest)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    const char *end = value + std::strlen(value);
    std::uint64_t parsed = 0;
    // from_chars takes digits only: no sign, space, exponent or suffix.
    auto [stop, error] = std::from_chars(value, end, parsed);
    if (error != std::errc() || stop != end || parsed < lowest ||
        parsed > highest) {
        fatal("environment variable %s='%s' is not a whole number in "
              "[%llu, %llu]",
              name, value, static_cast<unsigned long long>(lowest),
              static_cast<unsigned long long>(highest));
    }
    return parsed;
}

Gpu::RunLimits
defaultLimits()
{
    Gpu::RunLimits limits;
    // Post-warmup measurement region sized so the full figure sweep runs
    // in tens of minutes on one core; raise via the environment for
    // higher-fidelity runs (e.g. SW_QUOTA=24000 SW_WARMUP=8000).
    limits.warpInstrQuota = envCount("SW_QUOTA", 12000);
    limits.warmupInstrs = envCount("SW_WARMUP", 5000, 0);
    limits.maxCycles = envCount("SW_MAXCYCLES", 4000000);
    return limits;
}

RunResult
collectResult(Gpu &gpu, const std::string &name)
{
    RunResult out;
    out.benchmark = name;
    out.mode = gpu.config().mode;
    out.cycles = gpu.measuredCycles();
    out.warpInstrs = gpu.instructionsIssued();
    out.perf = gpu.performance();

    const TranslationEngine::Stats &ts = gpu.engine().stats();
    out.l1TlbHits = ts.l1Hits;
    out.l1TlbMisses = ts.l1Misses;
    out.l2TlbAccesses = ts.l2Accesses;
    out.l2TlbHits = ts.l2Hits;
    out.l2TlbMisses = ts.l2Misses;
    out.l2MshrFailures = ts.l2MshrFailures;
    out.inTlbMshrAllocs = ts.inTlbMshrAllocs;
    out.inTlbMshrPeak = ts.inTlbMshrPeak;
    out.walks = ts.walksCompleted;
    out.avgWalkQueueDelay = ts.walkQueueDelay.mean();
    out.avgWalkAccessLatency = ts.walkAccessLatency.mean();
    out.avgWalkTotalLatency =
        ts.walkQueueDelay.mean() + ts.walkAccessLatency.mean();
    out.avgTranslationLatency = ts.translationLatency.mean();
    out.faults = ts.faults;
    std::uint64_t thread_instrs =
        out.warpInstrs * gpu.config().warpSize;
    out.l2TlbMpki = thread_instrs
        ? 1000.0 * double(ts.l2Misses) / double(thread_instrs) : 0.0;
    out.l2TlbHitRate = gpu.engine().l2Tlb().stats().hitRate();

    const Cache::Stats &l2d = gpu.memory().l2d().stats();
    out.l2dMissRate = l2d.missRate();
    out.l2dAccesses = l2d.accesses;
    out.l2dMshrFailures = l2d.mshrFailures;
    out.dramUtilisation = gpu.memory().dram().utilisation();

    Sm::Stats sm = gpu.aggregateSmStats();
    out.memStallCycles = sm.memStallCycles;
    out.issueSlotCycles = sm.issueSlotCycles;
    out.computeCycles = sm.computeCycles;
    out.pwIssueCycles = sm.pwIssueCycles;
    out.avgAccessLatency = sm.accessLatency.mean();

    if (SoftWalkerBackend *backend = softWalkerOf(gpu)) {
        out.swToHardware = backend->stats().toHardware;
        out.swToSoftware = backend->stats().toSoftware;
        PwWarp::Stats pw = backend->aggregatePwWarpStats();
        out.swBatches = pw.batches;
        out.swAvgBatchSize = pw.batchSize.mean();
        out.swInstructions = pw.instructionsIssued;
    }
    return out;
}

std::unique_ptr<Gpu>
buildMachine(const GpuConfig &cfg,
             std::vector<std::unique_ptr<Workload>> workloads,
             const Observability *obs)
{
    auto gpu = std::make_unique<Gpu>(cfg, std::move(workloads));
    installWalkBackend(*gpu);
    if (obs && obs->any())
        gpu->installObservability(*obs);
    return gpu;
}

void
closeObservers(const Gpu &gpu, const Observability *obs)
{
    if (obs && obs->sampler)
        obs->sampler->finalize(gpu.cycles());
    if (obs && obs->registry)
        obs->registry->capture();
    if (obs && obs->sampler)
        obs->sampler->uninstall();
}

namespace {

/** Materialise the spec's workload source and resolve the run limits. */
std::unique_ptr<Workload>
materialiseWorkload(RunSpec &spec, Gpu::RunLimits &limits)
{
    int sources = (spec.benchmark != nullptr) +
                  (spec.workload != nullptr) + !spec.replayPath.empty();
    if (sources != 1)
        fatal("RunSpec needs exactly one workload source (benchmark, "
              "workload, or replayPath); %d are set", sources);

    if (spec.benchmark) {
        limits = spec.limits.value_or(limitsFor(*spec.benchmark));
        return makeWorkload(*spec.benchmark, spec.footprintScale);
    }
    if (spec.workload) {
        limits = spec.limits.value_or(defaultLimits());
        return std::move(spec.workload);
    }

    auto replay = std::make_unique<TraceWorkload>(spec.replayPath,
                                                  spec.replayEnd);
    replay->checkConfig(spec.cfg);
    if (spec.limits.has_value()) {
        limits = *spec.limits;
    } else {
        // Default to the recorded stopping conditions: a bare replay
        // reruns exactly the captured region.  All-zero means the trace
        // (e.g. a converted one) carries none.
        const TraceLimits &recorded = replay->recordedLimits();
        if (recorded.warpInstrQuota == 0 && recorded.maxCycles == 0) {
            limits = defaultLimits();
        } else {
            limits.warpInstrQuota = recorded.warpInstrQuota;
            limits.warmupInstrs = recorded.warmupInstrs;
            limits.maxCycles = recorded.maxCycles;
            limits.maxActiveWarps = recorded.maxActiveWarps;
        }
    }
    return replay;
}

} // namespace

RunResult
run(RunSpec spec)
{
    Gpu::RunLimits limits;
    TraceRecorder *recorder = nullptr;
    std::string name;
    std::unique_ptr<Gpu> gpu;
    {
        // Host-time attribution: everything before the event loop is
        // "setup" (workload materialisation, page-table build, GPU
        // construction, backend install).
        SW_PROF_SCOPE(prof::Zone::Setup);
        std::unique_ptr<Workload> workload =
            materialiseWorkload(spec, limits);

        // Large-page runs scatter the synthetic hot windows (see
        // SyntheticWorkload::setWindowSpread): real irregular working
        // sets are scattered objects, which is what makes them exceed
        // even 2 MB TLB coverage (§6.3, Fig 25).  Applied before any
        // recording wrapper so the recorded stream is the spread one.
        if (spec.cfg.pageBytes > 64ull * 1024) {
            if (auto *synthetic = dynamic_cast<SyntheticWorkload *>(
                    workload.get())) {
                synthetic->setWindowSpread(spec.cfg.pageBytes +
                                           64ull * 1024);
            }
        }

        if (!spec.recordPath.empty()) {
            auto recording = std::make_unique<TraceRecorder>(
                std::move(workload));
            recorder = recording.get();
            workload = std::move(recording);
        }

        name = workload->name();
        std::vector<std::unique_ptr<Workload>> workloads;
        workloads.push_back(std::move(workload));
        gpu = buildMachine(spec.cfg, std::move(workloads), spec.obs);
    }
    // Recording captures the workload stream as the *detailed* engine
    // consumes it; fast-forward and checkpoint segmentation consume the
    // stream outside (or before) a recorded region, so the combinations
    // would silently write a partial trace.
    if (!spec.recordPath.empty() &&
        (spec.ffwdInstrs > 0 || spec.checkpointAtInstrs > 0 ||
         !spec.checkpointIn.empty())) {
        fatal("trace recording cannot be combined with fast-forward or "
              "checkpointing");
    }
    if (!spec.checkpointOut.empty() && spec.checkpointAtInstrs == 0)
        fatal("checkpointOut set without a checkpointAtInstrs barrier");

    std::uint64_t total_fetch = limits.warpInstrQuota + limits.warmupInstrs;
    if (!spec.checkpointIn.empty()) {
        if (spec.ffwdInstrs > 0 || spec.checkpointAtInstrs > 0) {
            fatal("checkpointIn resumes a finished warmup; it cannot be "
                  "combined with ffwdInstrs or checkpointAtInstrs");
        }
        CheckpointMeta meta = restoreCheckpoint(*gpu, spec.checkpointIn);
        if (meta.instrsFetched > total_fetch) {
            fatal("checkpoint %s was taken at %llu fetched instructions, "
                  "past this run's quota of %llu",
                  spec.checkpointIn.c_str(),
                  static_cast<unsigned long long>(meta.instrsFetched),
                  static_cast<unsigned long long>(total_fetch));
        }
        std::uint64_t warmup_left =
            limits.warmupInstrs > meta.instrsFetched
                ? limits.warmupInstrs - meta.instrsFetched : 0;
        gpu->runSegment(total_fetch - meta.instrsFetched, warmup_left,
                        limits);
    } else if (spec.checkpointAtInstrs > 0) {
        if (spec.checkpointOut.empty())
            fatal("checkpointAtInstrs set without a checkpointOut path");
        if (spec.checkpointAtInstrs > total_fetch) {
            fatal("checkpoint barrier %llu lies past the run's quota %llu",
                  static_cast<unsigned long long>(spec.checkpointAtInstrs),
                  static_cast<unsigned long long>(total_fetch));
        }
        if (spec.ffwdInstrs > 0) {
            fastForward(*gpu, spec.ffwdInstrs, limits);
            gpu->resetAllStats();
        }
        std::uint64_t barrier = spec.checkpointAtInstrs;
        gpu->runSegment(barrier, std::min(limits.warmupInstrs, barrier),
                        limits);
        saveCheckpoint(*gpu, barrier, spec.checkpointOut);
        gpu->runSegment(total_fetch - barrier,
                        limits.warmupInstrs > barrier
                            ? limits.warmupInstrs - barrier : 0,
                        limits);
    } else if (spec.ffwdInstrs > 0) {
        fastForward(*gpu, spec.ffwdInstrs, limits);
        gpu->resetAllStats();
        gpu->run(limits);
    } else {
        gpu->run(limits);
    }
    SW_PROF_SCOPE(prof::Zone::Report);
    RunResult result = collectResult(*gpu, name);
    if (!gpu->eventQueue().empty()) {
        // maxCycles is a safety net for configs that may not finish, so a
        // capped run still reports; but its numbers cover part of a run.
        warn("%s (%s) stopped at the cycle cap of %llu cycles with %llu "
             "of its %llu-instruction quota issued; its results are partial",
             name.c_str(), toString(spec.cfg.mode),
             static_cast<unsigned long long>(limits.maxCycles),
             static_cast<unsigned long long>(result.warpInstrs),
             static_cast<unsigned long long>(limits.warpInstrQuota));
    } else if (limits.warmupInstrs > 0 && limits.warpInstrQuota > 0 &&
               result.warpInstrs == 0) {
        // The warmup ends at a 200-cycle poll (Gpu::scheduleWarmupCheck).
        // A quota and warmup that the warps fetch at once all issue before
        // the first poll, so the measured region holds nothing.
        warn("%s (%s) measured no warp instruction: its %llu-instruction "
             "quota and %llu-instruction warmup all issued before the "
             "warmup ended; its performance reads 0",
             name.c_str(), toString(spec.cfg.mode),
             static_cast<unsigned long long>(limits.warpInstrQuota),
             static_cast<unsigned long long>(limits.warmupInstrs));
    }
    if (recorder) {
        TraceLimits recorded;
        recorded.warpInstrQuota = limits.warpInstrQuota;
        recorded.warmupInstrs = limits.warmupInstrs;
        recorded.maxCycles = limits.maxCycles;
        recorded.maxActiveWarps = limits.maxActiveWarps;
        recorder->writeFile(spec.recordPath, spec.cfg, recorded);
    }
    // The GPU (and every registered counter) dies on return.
    closeObservers(*gpu, spec.obs);
    return result;
}

Gpu::RunLimits
limitsFor(const BenchmarkInfo &info)
{
    Gpu::RunLimits limits = defaultLimits();
    if (!info.irregular) {
        // Regular workloads run at high IPC, so the kernel-start TLB-fill
        // storm (one cold walk per warp) spans many instructions; warm
        // past it, then measure a comparable steady-state region.
        limits.warpInstrQuota = envCount("SW_QUOTA_REG", 40000);
        limits.warmupInstrs = envCount("SW_WARMUP_REG", 80000, 0);
    }
    return limits;
}

double
speedup(const RunResult &base, const RunResult &opt)
{
    if (!(base.perf > 0.0)) {
        fatal("speedup: the baseline run of %s made no progress; was it "
              "stopped by the cycle cap (SW_MAXCYCLES) before it issued a "
              "measured instruction?", base.benchmark.c_str());
    }
    return opt.perf / base.perf;
}

std::vector<double>
speedups(const std::vector<RunResult> &base,
         const std::vector<RunResult> &opt)
{
    SW_ASSERT(base.size() == opt.size(), "result vectors differ in size");
    std::vector<double> out;
    out.reserve(base.size());
    for (std::size_t i = 0; i < base.size(); ++i)
        out.push_back(speedup(base[i], opt[i]));
    return out;
}

} // namespace sw
