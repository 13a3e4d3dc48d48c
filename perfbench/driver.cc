/**
 * @file
 * perfbench: times the simulator's public entry points from outside.
 *
 * Every operation is composed from the calls a user makes —
 * makeWorkload, Gpu::Gpu, installWalkBackend, Gpu::installObservability,
 * Gpu::run, collectResult and SweepRunner — and each RunResult
 * fingerprint must equal the one the program's own run(RunSpec) path
 * produces for the same (workload, seed).
 *
 *   perfbench measure --workload W --seed N --seconds S [--traced]
 *                     [--expected FILE] [--spans-out FILE]
 *   perfbench fingerprints --workload W --seed N [--fp-out FILE]
 *
 * `measure` runs one warm-up round, then repeats the workload for S
 * seconds (see measure() for how), and prints one JSON document of raw
 * samples, one "round" per repetition (a single run, or one whole
 * sweep); run.py turns it into the benchmark's metrics.
 * `fingerprints` prints the expected digests through run(RunSpec), one
 * "<workload> <seed> <job> <digest>" line per job, the format of
 * expected/fingerprints.txt.
 *
 * A traced measurement (the SOFTWALKER_HOSTPROF build with --traced)
 * alternates plain rounds with armed ones, which arm the existing
 * HostProfiler zones around Gpu::run, time Workload::next() through a
 * forwarding workload, and record the driver's own spans around each
 * public call.  It adds no zone.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <queue>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.hh"
#include "core/softwalker.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "obs/export.hh"
#include "obs/stat_registry.hh"
#include "prof/hostprof.hh"
#include "prof/run_manifest.hh"
#include "sim/logging.hh"
#include "trace/trace_format.hh"
#include "workload/benchmarks.hh"

namespace {

using namespace sw;
using perfbench::AllocCount;
using perfbench::threadAllocs;
using Clock = std::chrono::steady_clock;

// ---- Workload definitions ---------------------------------------------

/** Cycle cap of every job: defaultLimits()' value without SW_MAXCYCLES. */
constexpr Cycle kMaxCycles = 4000000;

/**
 * fig16 runs each job to limitsFor(): 12000 measured + 5000 warmup warp
 * instructions for irregular apps, 40000 + 80000 for regular ones.  The
 * sweep scales both down by this factor so one whole sweep repeats
 * several times within a run.
 */
constexpr double kSweepScale = 0.125;

Gpu::RunLimits
limits(std::uint64_t quota, std::uint64_t warmup)
{
    Gpu::RunLimits out;
    out.warpInstrQuota = quota;
    out.warmupInstrs = warmup;
    out.maxCycles = kMaxCycles;
    return out;
}

/** One simulation: machine, application and stopping conditions. */
struct Job
{
    std::string label;   ///< configuration name, e.g. "softwalker"
    const BenchmarkInfo *info = nullptr;
    GpuConfig cfg;
    Gpu::RunLimits limits;
};

bool
isSweep(const std::string &workload)
{
    return workload == "sweep";
}

/** gups-sw-obs runs gups-sw's machine with the observer bundle attached. */
bool
isObserved(const std::string &workload)
{
    return workload == "gups-sw-obs";
}

/**
 * The jobs of @p workload in submission order.  The seed reaches the
 * simulation only through GpuConfig::rngSeed.
 */
std::vector<Job>
jobsFor(const std::string &workload, std::uint64_t seed)
{
    std::vector<Job> jobs;
    if (workload == "gups-sw" || isObserved(workload)) {
        // A quarter of fig16's size: rounds short enough that a run holds
        // a dozen or more for its medians, and still 2042 measured warp
        // instructions (at the sweep's eighth, gups retires none).
        jobs.push_back({"softwalker", &findBenchmark("gups"),
                        makeSoftWalkerConfig(), limits(3000, 1250)});
    } else if (workload == "2dc-hw") {
        jobs.push_back({"baseline", &findBenchmark("2dc"),
                        makeDefaultConfig(), limits(40000, 80000)});
    } else if (isSweep(workload)) {
        // fig16's baseline, SoftWalker and Hybrid columns, config-major
        // over the whole Table 4 suite: runSuites()' submission order.
        const std::pair<const char *, GpuConfig> configs[] = {
            {"baseline", makeDefaultConfig()},
            {"softwalker", makeSoftWalkerConfig()},
            {"hybrid", makeSoftWalkerConfig(TranslationMode::Hybrid)},
        };
        auto scaled = [](std::uint64_t n) {
            return std::uint64_t(double(n) * kSweepScale);
        };
        for (const auto &[label, cfg] : configs) {
            for (const BenchmarkInfo &info : benchmarkSuite()) {
                Gpu::RunLimits lim = info.irregular
                    ? limits(scaled(12000), scaled(5000))
                    : limits(scaled(40000), scaled(80000));
                jobs.push_back({label, &info, cfg, lim});
            }
        }
    } else {
        fatal("unknown workload '%s' (gups-sw, 2dc-hw, sweep, gups-sw-obs)",
              workload.c_str());
    }
    for (Job &job : jobs)
        job.cfg.rngSeed = seed;
    return jobs;
}

// ---- Host measurement helpers -----------------------------------------

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
cpuSeconds(int who)
{
    rusage usage{};
    getrusage(who, &usage);
    return double(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           1e-6 * double(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

/** The CPUs this process may run on, in order. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
        }
    }
    return cpus;
}

/** How many CPUs this process may run on: what `nproc` prints. */
unsigned
nproc()
{
    if (std::size_t n = allowedCpus().size())
        return unsigned(n);
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/** Pins the calling thread to one CPU while it lives (no-op for -1). */
class CpuPin
{
  public:
    explicit CpuPin(int cpu)
    {
        if (cpu < 0 || sched_getaffinity(0, sizeof(saved), &saved) != 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
    }

    ~CpuPin()
    {
        if (pinned)
            sched_setaffinity(0, sizeof(saved), &saved);
    }

    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

  private:
    cpu_set_t saved;
    bool pinned = false;
};

/**
 * The host-speed probe: a fixed piece of simulator-like work timed on
 * the same CPU just before and just after every round.  An event heap
 * feeds a scan for the oldest ready warp and a lookup in an 8-way tag
 * store of 12 MB, so the probe mixes branchy in-cache work with
 * last-level-cache and DRAM misses, as the simulator does.  Its code is
 * the benchmark's, not the simulator's, so a change to the simulator
 * never moves it: its time is the host's speed on that CPU at that moment.
 */
class HostProbe
{
  public:
    HostProbe() : tags(kSets * kWays), stamps(kSets * kWays) {}

    /** Bytes the probe keeps resident from construction on. */
    std::size_t
    residentBytes() const
    {
        return tags.size() * sizeof(tags[0]) +
               stamps.size() * sizeof(stamps[0]);
    }

    /** Run the fixed work once (about 0.1 s at 2 GHz); @return seconds. */
    double
    run()
    {
        std::fill(tags.begin(), tags.end(), 0);
        std::fill(stamps.begin(), stamps.end(), 0);
        std::uint64_t ready[kWarps] = {};
        std::priority_queue<Event, std::vector<Event>, Later> heap;
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        auto next = [&x]() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };
        Clock::time_point begin = Clock::now();
        for (std::uint64_t i = 0; i < kQueued; ++i)
            heap.push({next() % 1024, next() % kFootprint});
        std::uint64_t misses = 0;
        for (std::uint64_t step = 0; step < kSteps; ++step) {
            Event ev = heap.top();
            heap.pop();
            std::uint64_t r = next();
            std::size_t pick = 0;
            for (std::size_t w = 1; w < kWarps; ++w) {
                if (ready[w] < ready[pick])
                    pick = w;
            }
            ready[pick] = ev.when + (r & 15);

            std::uint64_t line = ev.addr >> 6;
            std::size_t base = std::size_t(
                (line * 0x9e3779b97f4a7c15ull >> 40) % kSets) * kWays;
            std::size_t victim = base;
            bool hit = false;
            for (std::size_t way = base; way < base + kWays; ++way) {
                if (tags[way] == line + 1) {
                    hit = true;
                    victim = way;
                    break;
                }
                if (stamps[way] < stamps[victim])
                    victim = way;
            }
            misses += !hit;
            tags[victim] = line + 1;
            stamps[victim] = std::uint32_t(step);
            // Streams mostly walk on; some jump, as irregular apps do.
            std::uint64_t addr = (r & 48) ? ev.addr + 64 : r % kFootprint;
            heap.push({ev.when + (hit ? 4 : 200) + (r >> 60), addr});
        }
        double seconds = secondsBetween(begin, Clock::now());
        probeSink += misses;
        return seconds;
    }

    /** Keeps the probe's result live, so the work is not optimised away. */
    static inline std::atomic<std::uint64_t> probeSink{0};

  private:
    static constexpr std::uint64_t kSteps = 600000;
    static constexpr std::size_t kWarps = 48;
    static constexpr std::size_t kSets = 1 << 17, kWays = 8;
    static constexpr std::uint64_t kQueued = 4096;
    static constexpr std::uint64_t kFootprint = 256ull << 20;

    struct Event
    {
        std::uint64_t when, addr;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.when > b.when;
        }
    };

    std::vector<std::uint64_t> tags;
    std::vector<std::uint32_t> stamps;
};

/**
 * Probe every CPU in @p cpus at once, one pinned thread each, as the
 * sweep's workers load the host; @return the mean of their times.
 */
double
probeAll(std::vector<HostProbe> &probes, const std::vector<int> &cpus)
{
    std::vector<double> seconds(cpus.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < cpus.size(); ++i) {
        threads.emplace_back([&, i]() {
            CpuPin pin(cpus[i]);
            seconds[i] = probes[i].run();
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    double sum = 0;
    for (double s : seconds)
        sum += s;
    return sum / double(seconds.size());
}

/** FNV-1a over a %a fingerprint: equal digests, equal results. */
std::uint64_t
digest(const RunResult &result)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : fingerprint(result)) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
hex(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** Discards what is written to it and counts the bytes. */
class ByteCounter : public std::streambuf
{
  public:
    ByteCounter() { setp(buf, buf + sizeof(buf)); }

    std::uint64_t
    bytes() const
    {
        return flushed + std::uint64_t(pptr() - pbase());
    }

  protected:
    int_type
    overflow(int_type c) override
    {
        flushed += std::uint64_t(pptr() - pbase());
        setp(buf, buf + sizeof(buf));
        if (!traits_type::eq_int_type(c, traits_type::eof())) {
            *pptr() = traits_type::to_char_type(c);
            pbump(1);
        }
        return traits_type::not_eof(c);
    }

  private:
    char buf[1 << 14];
    std::uint64_t flushed = 0;
};

/** Forwarding Workload that times next() (traced run only). */
class TimedWorkload final : public Workload
{
  public:
    explicit TimedWorkload(std::unique_ptr<Workload> inner)
        : inner_(std::move(inner))
    {
    }

    WarpInstr
    next(SmId sm, WarpId warp, Rng &rng) override
    {
        Clock::time_point begin = Clock::now();
        WarpInstr instr = inner_->next(sm, warp, rng);
        nanos_ += std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - begin).count());
        ++calls_;
        return instr;
    }

    std::uint64_t
    footprintBytes() const override
    {
        return inner_->footprintBytes();
    }
    std::string name() const override { return inner_->name(); }
    bool irregular() const override { return inner_->irregular(); }
    void saveState(CkptWriter &w) const override { inner_->saveState(w); }
    void restoreState(CkptReader &r) override { inner_->restoreState(r); }

    std::uint64_t nanos() const { return nanos_; }
    std::uint64_t calls() const { return calls_; }

  private:
    std::unique_ptr<Workload> inner_;
    std::uint64_t nanos_ = 0;
    std::uint64_t calls_ = 0;
};

/**
 * The benchmark's own spans around each public call and sweep job,
 * kept in memory and written out as a Chrome trace at the end.
 */
class SpanLog
{
  public:
    void
    add(const char *name, Clock::time_point begin, Clock::time_point end)
    {
        static std::atomic<unsigned> nextTid{0};
        thread_local unsigned tid = nextTid++;
        std::lock_guard<std::mutex> lock(mu);
        spans.push_back({name, tid, begin, end});
    }

    void
    writeChromeTrace(std::ostream &out, Clock::time_point origin) const
    {
        out << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                          i ? ",\n" : "\n", s.name, s.tid,
                          1e6 * secondsBetween(origin, s.begin),
                          1e6 * secondsBetween(s.begin, s.end));
            out << buf;
        }
        out << "\n]}\n";
    }

  private:
    struct Span
    {
        const char *name;
        unsigned tid;
        Clock::time_point begin, end;
    };

    std::mutex mu;
    std::vector<Span> spans;
};

/** Profiler zone totals accumulated over a measurement's armed windows. */
struct ZoneTally
{
    std::uint64_t selfNanos[prof::kNumZones] = {};
    std::uint64_t hits[prof::kNumZones] = {};
    std::uint64_t maxQueueDepth = 0;

    void
    add(const prof::ProfileSnapshot &snap)
    {
        for (std::size_t z = 0; z < prof::kNumZones; ++z) {
            selfNanos[z] += snap.zones[z].selfNanos;
            hits[z] += snap.zones[z].hits;
        }
        maxQueueDepth = std::max(maxQueueDepth, snap.maxQueueDepth);
    }
};

void
armProfiler()
{
    prof::HostProfiler &profiler = prof::HostProfiler::instance();
    profiler.reset();
    profiler.setEnabled(true);
}

void
disarmProfiler(ZoneTally &tally)
{
    prof::HostProfiler &profiler = prof::HostProfiler::instance();
    tally.add(profiler.snapshot());
    profiler.setEnabled(false);
}

/** How a measurement instruments its jobs. */
struct Instruments
{
    bool observe = false;   ///< attach the full observer bundle
    /** Armed round: time next(), record spans, read per-layer stats. */
    bool traced = false;
    bool armPerJob = false; ///< arm the profiler around each Gpu::run
    SpanLog *spans = nullptr;
    ZoneTally *zones = nullptr;
};

// ---- One job ----------------------------------------------------------

/** The full observer bundle of one run; artifacts go to a ByteCounter. */
struct Observers
{
    StatRegistry registry;
    TranslationTracer tracer;
    TimeSeriesSampler sampler;
    CycleLedger ledger;
    EventLog events;
    Observability bundle;

    Observers()
    {
        bundle.registry = &registry;
        bundle.tracer = &tracer;
        bundle.sampler = &sampler;
        bundle.ledger = &ledger;
        bundle.events = &events;
    }

    /** Serialise every artifact swsim_cli can write; @return bytes. */
    std::uint64_t
    write()
    {
        ByteCounter counter;
        std::ostream out(&counter);
        out << registry.dumpJson();
        writePrometheus(out, registry);
        tracer.writeTraceJson(out);
        sampler.writeCsv(out);
        out << ledger.dumpJson();
        events.write(out);
        out.flush();
        return counter.bytes();
    }

    std::uint64_t
    records() const
    {
        return events.size() + sampler.numRows() + tracer.stampsRecorded();
    }
};

using LayerStats = std::vector<std::pair<const char *, double>>;

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer statistics read from public stats after Gpu::run. */
LayerStats
layerStats(Gpu &gpu, const RunResult &r, std::uint64_t instrs)
{
    double events = double(gpu.eventQueue().eventsExecuted());
    Sm::Stats sm = gpu.aggregateSmStats();
    const TranslationEngine::Stats &ts = gpu.engine().stats();
    const MemorySystem::Stats &mem = gpu.memory().stats();
    Cache::Stats l1d = gpu.memory().aggregateL1dStats();
    SoftWalkerBackend *backend = softWalkerOf(gpu);
    PwWarp::Stats pw = backend ? backend->aggregatePwWarpStats()
                               : PwWarp::Stats{};
    double queued = backend ? double(backend->stats().queuedNoCapacity) : 0;
    return {
        {"sim.events", events},
        {"sim.events_per_instr", ratio(events, double(instrs))},
        {"gpu.warp_instrs", double(r.warpInstrs)},
        {"gpu.translations_per_instr",
         ratio(double(sm.translationsRequested), double(sm.warpInstrs))},
        {"gpu.accesses_per_instr",
         ratio(double(sm.dataAccesses), double(sm.warpInstrs))},
        {"gpu.mem_stall_frac", r.stallFraction(gpu.numSms())},
        {"vm.l1tlb_hit_rate",
         ratio(double(ts.l1Hits), double(ts.l1Hits + ts.l1Misses))},
        {"vm.l2tlb_accesses", double(ts.l2Accesses)},
        {"vm.l2tlb_hit_rate", r.l2TlbHitRate},
        {"vm.l2_mshr_fail_per_access",
         ratio(double(ts.l2MshrFailures), double(ts.l2Accesses))},
        {"vm.intlb_allocs", double(ts.inTlbMshrAllocs)},
        {"vm.walks_per_kinstr",
         1000.0 * ratio(double(ts.walksCompleted), double(r.warpInstrs))},
        {"vm.pwc_hit_rate", gpu.engine().pwc().stats().hitRate()},
        {"vm.translation_latency_cy", r.avgTranslationLatency},
        {"core.sw_walks", double(r.swToSoftware)},
        {"core.pw_batch_size", r.swAvgBatchSize},
        {"core.pw_instrs_per_walk",
         ratio(double(pw.instructionsIssued), double(pw.walksCompleted))},
        {"core.queued_no_capacity", queued},
        {"mem.data_accesses", double(mem.dataAccesses)},
        {"mem.pte_accesses", double(mem.pteAccesses)},
        {"mem.l1d_hit_rate", ratio(double(l1d.hits), double(l1d.accesses))},
        {"mem.l2d_miss_rate", r.l2dMissRate},
        {"mem.l1d_mshr_failures", double(l1d.mshrFailures)},
        {"mem.l2d_mshr_failures", double(r.l2dMshrFailures)},
        {"mem.dram_util", r.dramUtilisation},
        {"check.audit_violations",
         double(gpu.auditor().violations().size())},
    };
}

/** Everything measured about one job. */
struct JobOutcome
{
    RunResult result;
    bool capped = false;           ///< stopped at the cycle cap
    std::uint64_t violations = 0;  ///< audit violations (Record policy)
    double wall = 0.0;             ///< materialisation -> result (+ obs write)
    double setup = 0.0;            ///< before the first simulated event
    double obsInstall = 0.0;
    double run = 0.0;              ///< Gpu::run
    double report = 0.0;           ///< collectResult
    double obsWrite = 0.0;         ///< finalise + serialise artifacts
    double cpu = 0.0;              ///< this thread's CPU over the job
    std::uint64_t instrs = 0;      ///< warmup + measured warp instructions
    std::uint64_t events = 0;
    AllocCount setupAllocs, runAllocs;
    std::uint64_t artifactBytes = 0, obsRecords = 0;
    std::uint64_t nextNanos = 0, nextCalls = 0;
    LayerStats layers;
};

/** Compose one simulation from the public entry points and time it. */
JobOutcome
runJob(const Job &job, const Instruments &inst)
{
    JobOutcome out;
    // Declared before the GPU so the observers outlive it.
    std::unique_ptr<Observers> observers;
    double cpu0 = cpuSeconds(RUSAGE_THREAD);
    AllocCount alloc0 = threadAllocs();

    Clock::time_point t0 = Clock::now();
    std::unique_ptr<Workload> workload = makeWorkload(*job.info);
    TimedWorkload *timed = nullptr;
    if (inst.traced) {
        auto wrapper = std::make_unique<TimedWorkload>(std::move(workload));
        timed = wrapper.get();
        workload = std::move(wrapper);
    }
    std::string name = workload->name();
    Clock::time_point t1 = Clock::now();
    auto gpu = std::make_unique<Gpu>(job.cfg, std::move(workload));
    Clock::time_point t2 = Clock::now();
    installWalkBackend(*gpu);
    gpu->auditor().setPolicy(Auditor::FailurePolicy::Record);
    Clock::time_point t3 = Clock::now();
    if (inst.observe) {
        observers = std::make_unique<Observers>();
        gpu->installObservability(observers->bundle);
    }
    Clock::time_point t4 = Clock::now();

    AllocCount alloc1 = threadAllocs();
    if (inst.armPerJob)
        armProfiler();
    gpu->run(job.limits);
    if (inst.armPerJob)
        disarmProfiler(*inst.zones);
    Clock::time_point t5 = Clock::now();
    AllocCount alloc2 = threadAllocs();

    out.result = collectResult(*gpu, name);
    Clock::time_point t6 = Clock::now();
    if (observers) {
        // run()'s end-of-run order: finalise the sampler, capture the
        // registry, disarm the sampler; then write every artifact.
        observers->sampler.finalize(gpu->cycles());
        observers->registry.capture();
        observers->sampler.uninstall();
        out.artifactBytes = observers->write();
        out.obsRecords = observers->records();
    }
    Clock::time_point t7 = Clock::now();

    out.cpu = cpuSeconds(RUSAGE_THREAD) - cpu0;
    out.wall = secondsBetween(t0, t7);
    out.setup = secondsBetween(t0, t4);
    out.run = secondsBetween(t4, t5);
    out.report = secondsBetween(t5, t6);
    if (observers) {
        out.obsInstall = secondsBetween(t3, t4);
        out.obsWrite = secondsBetween(t6, t7);
    }
    out.setupAllocs = alloc1 - alloc0;
    out.runAllocs = alloc2 - alloc1;
    out.capped = !gpu->eventQueue().empty();
    out.violations = gpu->auditor().violations().size();
    out.instrs = job.limits.warpInstrQuota + job.limits.warmupInstrs;
    out.events = gpu->eventQueue().eventsExecuted();

    if (inst.traced) {
        out.layers = layerStats(*gpu, out.result, out.instrs);
        out.nextNanos = timed->nanos();
        out.nextCalls = timed->calls();
        SpanLog &spans = *inst.spans;
        spans.add("makeWorkload", t0, t1);
        spans.add("Gpu::Gpu", t1, t2);
        spans.add("installWalkBackend", t2, t3);
        if (inst.observe)
            spans.add("Gpu::installObservability", t3, t4);
        spans.add("Gpu::run", t4, t5);
        spans.add("collectResult", t5, t6);
        if (inst.observe)
            spans.add("observers.write", t6, t7);
        spans.add("job", t0, t7);
    }
    return out;
}

// ---- Rounds -----------------------------------------------------------

/** One repetition of the workload: a single run, or one whole sweep. */
struct Round
{
    const char *kind = "plain";   ///< plain, armed or bare (see measure())
    int pinnedCpu = -1;           ///< CPU it ran on; -1: not pinned
    /** Mean HostProbe seconds just before and just after it. */
    double probe = 0.0;
    double wall = 0.0;
    double cpu = 0.0;
    unsigned workers = 1;
    std::vector<double> jobWall;
    std::vector<JobOutcome> jobs;
};

Round
runSingle(const Job &job, const Instruments &inst)
{
    Round round;
    round.jobs.push_back(runJob(job, inst));
    round.wall = round.jobs[0].wall;
    round.cpu = round.jobs[0].cpu;
    round.jobWall.push_back(round.wall);
    return round;
}

Round
runSweep(const std::vector<Job> &jobs, const Instruments &inst)
{
    Round round;
    round.jobs.resize(jobs.size());
    // Zones are kept per thread: arm once around the whole sweep.
    Instruments jobInst = inst;
    jobInst.armPerJob = false;

    SweepRunner runner(nproc());
    round.workers = runner.effectiveWorkers(jobs.size());
    if (inst.traced)
        armProfiler();
    double cpu0 = cpuSeconds(RUSAGE_SELF);
    Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        runner.submit(std::string(), [&, i]() {
            round.jobs[i] = runJob(jobs[i], jobInst);
            return round.jobs[i].result;
        });
    }
    runner.run();
    Clock::time_point end = Clock::now();
    round.cpu = cpuSeconds(RUSAGE_SELF) - cpu0;
    if (inst.traced) {
        disarmProfiler(*inst.zones);
        inst.spans->add("SweepRunner::run", begin, end);
    }
    round.wall = secondsBetween(begin, end);
    for (double ms : runner.lastJobMillis())
        round.jobWall.push_back(ms / 1e3);
    return round;
}

// ---- Expected fingerprints --------------------------------------------

/** The program's own path: run(RunSpec), through SweepRunner for sweeps. */
std::vector<RunResult>
referenceResults(const std::string &workload, const std::vector<Job> &jobs)
{
    if (isSweep(workload)) {
        SweepRunner runner(nproc());
        for (const Job &job : jobs) {
            SweepJob sweepJob;
            sweepJob.cfg = job.cfg;
            sweepJob.info = job.info;
            sweepJob.limits = job.limits;
            runner.submit(std::move(sweepJob));
        }
        return runner.run();
    }
    RunSpec spec;
    spec.cfg = jobs[0].cfg;
    spec.benchmark = jobs[0].info;
    spec.limits = jobs[0].limits;
    return {run(std::move(spec))};
}

/**
 * Stored digests for (workload, seed) from @p path, one per job; empty
 * when the file does not hold them all.  gups-sw-obs expects gups-sw's
 * results: observers must not perturb the simulation.
 */
std::vector<std::uint64_t>
storedDigests(const std::string &path, std::string workload,
              std::uint64_t seed, std::size_t jobs)
{
    if (isObserved(workload))
        workload = "gups-sw";
    std::vector<std::uint64_t> out(jobs, 0);
    std::size_t found = 0;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, hexDigest;
        std::uint64_t lineSeed = 0;
        std::size_t index = 0;
        if (line.empty() || line[0] == '#' ||
            !(fields >> name >> lineSeed >> index >> hexDigest))
            continue;
        if (name != workload || lineSeed != seed || index >= jobs)
            continue;
        out[index] = std::strtoull(hexDigest.c_str(), nullptr, 16);
        ++found;
    }
    if (found != jobs)
        out.clear();
    return out;
}

// ---- Output -----------------------------------------------------------

std::string
num(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
quoted(const std::string &text)
{
    return '"' + jsonEscape(text) + '"';
}

/** Why a job failed, or "" when it passed. */
std::string
failureOf(const JobOutcome &job, std::uint64_t expected)
{
    std::string why;
    if (digest(job.result) != expected)
        why += " fingerprint mismatch";
    if (job.capped)
        why += " stopped at the cycle cap";
    if (job.violations) {
        why += strprintf(" %llu audit violation(s)",
                         static_cast<unsigned long long>(job.violations));
    }
    return why;
}

/** One round as JSON: job-level fields are summed over its jobs. */
void
writeRound(std::ostream &o, const Round &round, const std::vector<Job> &jobs,
           const std::vector<std::uint64_t> &expected, bool sweep)
{
    double setup = 0, run = 0, report = 0, obsInstall = 0, obsWrite = 0;
    double instrs = 0, events = 0, allocSetup = 0, allocRun = 0;
    double allocRunBytes = 0, artifactBytes = 0, obsRecords = 0;
    double nextNanos = 0, nextCalls = 0;
    std::vector<std::string> failures;
    for (std::size_t i = 0; i < round.jobs.size(); ++i) {
        const JobOutcome &job = round.jobs[i];
        setup += job.setup;
        run += job.run;
        report += job.report;
        obsInstall += job.obsInstall;
        obsWrite += job.obsWrite;
        instrs += double(job.instrs);
        events += double(job.events);
        allocSetup += double(job.setupAllocs.count);
        allocRun += double(job.runAllocs.count);
        allocRunBytes += double(job.runAllocs.bytes);
        artifactBytes += double(job.artifactBytes);
        obsRecords += double(job.obsRecords);
        nextNanos += double(job.nextNanos);
        nextCalls += double(job.nextCalls);
        std::string why = failureOf(job, expected[i]);
        if (!why.empty()) {
            failures.push_back(strprintf("job %zu (%s/%s):%s", i,
                                         jobs[i].label.c_str(),
                                         jobs[i].info->abbr.c_str(),
                                         why.c_str()));
        }
    }
    // Single runs: instructions per second of Gpu::run.  Sweeps: summed
    // instructions over the sweep's wall time.
    double rate = instrs / (sweep ? round.wall : run);
    o << "{\"kind\":" << quoted(round.kind)
      << ",\"pinned_cpu\":" << round.pinnedCpu
      << ",\"probe_s\":" << num(round.probe)
      << ",\"wall_s\":" << num(round.wall) << ",\"cpu_s\":" << num(round.cpu)
      << ",\"workers\":" << round.workers << ",\"jobs\":" << jobs.size()
      << ",\"setup_s\":" << num(setup) << ",\"run_s\":" << num(run)
      << ",\"report_s\":" << num(report)
      << ",\"obs_install_s\":" << num(obsInstall)
      << ",\"obs_write_s\":" << num(obsWrite)
      << ",\"instrs\":" << num(instrs) << ",\"instr_per_s\":" << num(rate)
      << ",\"events\":" << num(events)
      << ",\"alloc_setup\":" << num(allocSetup)
      << ",\"alloc_run\":" << num(allocRun)
      << ",\"alloc_run_bytes\":" << num(allocRunBytes)
      << ",\"artifact_bytes\":" << num(artifactBytes)
      << ",\"obs_records\":" << num(obsRecords)
      << ",\"next_ns\":" << num(nextNanos)
      << ",\"next_calls\":" << num(nextCalls) << ",\"job_wall_s\":[";
    for (std::size_t i = 0; i < round.jobWall.size(); ++i)
        o << (i ? "," : "") << num(round.jobWall[i]);
    o << "],\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i)
        o << (i ? "," : "") << quoted(failures[i]);
    o << "]}";
}

/** Per-layer statistics of each job and the profiler zones. */
void
writeTrace(std::ostream &o, const Round &last, const ZoneTally &zones)
{
    // Per-layer statistics repeat exactly from round to round.
    o << ",\n\"layers\":[";
    for (std::size_t i = 0; i < last.jobs.size(); ++i) {
        o << (i ? ",\n" : "\n") << "{";
        const LayerStats &stats = last.jobs[i].layers;
        for (std::size_t k = 0; k < stats.size(); ++k) {
            o << (k ? "," : "") << quoted(stats[k].first) << ":"
              << num(stats[k].second);
        }
        o << "}";
    }
    o << "],\n\"zones\":{";
    for (std::size_t z = 0; z < prof::kNumZones; ++z) {
        o << (z ? "," : "")
          << quoted(prof::toString(static_cast<prof::Zone>(z)))
          << ":{\"self_ns\":" << zones.selfNanos[z]
          << ",\"hits\":" << zones.hits[z] << "}";
    }
    o << "},\"queue_depth_max\":" << zones.maxQueueDepth;
}

struct Options
{
    std::string command;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    std::string expectedPath;
    std::string spansOut;
    std::string fpOut;
};

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    if (argc < 2) {
        fatal("usage: perfbench measure|fingerprints --workload W "
              "--seed N [--seconds S] [--traced] [--expected FILE] "
              "[--spans-out FILE] [--fp-out FILE]");
    }
    opt.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag.c_str());
            return argv[++i];
        };
        if (flag == "--workload")
            opt.workload = value();
        else if (flag == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::strtod(value().c_str(), nullptr);
        else if (flag == "--traced")
            opt.traced = true;
        else if (flag == "--expected")
            opt.expectedPath = value();
        else if (flag == "--spans-out")
            opt.spansOut = value();
        else if (flag == "--fp-out")
            opt.fpOut = value();
        else
            fatal("unknown option '%s'", flag.c_str());
    }
    if (opt.command != "measure" && opt.command != "fingerprints") {
        fatal("unknown command '%s' (measure, fingerprints)",
              opt.command.c_str());
    }
    if (opt.traced && !prof::kHostProfCompiled)
        fatal("--traced needs the SOFTWALKER_HOSTPROF build");
    return opt;
}

int
printFingerprints(const Options &opt, const std::vector<Job> &jobs)
{
    std::vector<RunResult> results = referenceResults(opt.workload, jobs);
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::printf("%s %llu %zu %s\n", opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed), i,
                    hex(digest(results[i])).c_str());
    }
    if (!opt.fpOut.empty()) {
        std::ofstream out(opt.fpOut);
        if (!out)
            fatal("cannot open '%s' for writing", opt.fpOut.c_str());
        out << fingerprint(results[0]);
    }
    return 0;
}

int
measure(const Options &opt, const std::vector<Job> &jobs)
{
    bool sweep = isSweep(opt.workload);
    // Probes are allocated, and their memory made resident, before
    // anything else runs, so the peak resident set is the simulator's
    // peak plus exactly their bytes, which the report takes off.
    std::vector<int> allCpus = allowedCpus();
    if (allCpus.empty())
        allCpus.push_back(-1);
    std::vector<HostProbe> probes(sweep ? allCpus.size() : 1);

    std::vector<std::uint64_t> expected;
    if (!opt.expectedPath.empty()) {
        expected = storedDigests(opt.expectedPath, opt.workload, opt.seed,
                                 jobs.size());
    }
    const char *expectedSource = "stored";
    if (expected.empty()) {
        for (const RunResult &r : referenceResults(opt.workload, jobs))
            expected.push_back(digest(r));
        expectedSource = "run(RunSpec)";
    }

    // Rounds repeat a cycle of kinds.  "plain" rounds run as users run
    // the simulator.  A traced measurement alternates them with "armed"
    // rounds (profiler armed, next() timed, spans recorded) and, on
    // gups-sw-obs, "bare" rounds without observers, so the profiler's and
    // the observers' overheads are ratios taken under the same host load.
    SpanLog spans;
    ZoneTally zones;
    Instruments plain;
    plain.observe = isObserved(opt.workload);
    std::vector<std::pair<const char *, Instruments>> cycle{{"plain", plain}};
    if (opt.traced) {
        Instruments armed = plain;
        armed.traced = true;
        armed.armPerJob = !sweep;
        armed.spans = &spans;
        armed.zones = &zones;
        cycle.push_back({"armed", armed});
        if (plain.observe)
            cycle.push_back({"bare", Instruments{}});
    }
    // On a shared host each vCPU runs at its own speed, and that speed
    // drifts over minutes, so every round is bracketed by the HostProbe on
    // the CPU(s) it runs on; run.py scales each round by its probe.  The
    // sweep's workers cover every CPU, so its probe runs on all of them.
    auto probe = [&]() {
        return sweep ? probeAll(probes, allCpus) : probes[0].run();
    };
    auto runRound = [&](const std::pair<const char *, Instruments> &kind) {
        double before = probe();
        Round round = sweep ? runSweep(jobs, kind.second)
                            : runSingle(jobs[0], kind.second);
        round.kind = kind.first;
        round.probe = 0.5 * (before + probe());
        return round;
    };

    // The first round only warms caches, page mappings and the allocator
    // (run.py times the rest); its results are checked all the same.
    std::vector<Round> rounds{runRound(cycle[0])};
    // A single run left on one CPU would report that CPU, not the host.
    // Single runs therefore pin each cycle of rounds to the next allowed
    // CPU in turn, visit every CPU at least once, and stop once S seconds
    // have gone by; run.py weighs every CPU the same, however many rounds
    // it got.  The sweep is not pinned.
    std::vector<int> cpus = sweep ? std::vector<int>{-1} : allCpus;
    Clock::time_point origin = Clock::now();
    for (std::size_t n = 0; n < cpus.size() ||
         secondsBetween(origin, Clock::now()) < opt.seconds; ++n) {
        int cpu = cpus[n % cpus.size()];
        CpuPin pin(cpu);
        for (const auto &kind : cycle) {
            rounds.push_back(runRound(kind));
            rounds.back().pinnedCpu = cpu;
        }
    }

    if (!opt.spansOut.empty()) {
        std::ofstream out(opt.spansOut);
        if (!out)
            fatal("cannot open '%s' for writing", opt.spansOut.c_str());
        spans.writeChromeTrace(out, origin);
    }

    RunManifest manifest = RunManifest::collect();
    manifest.benchmark = opt.workload;
    if (!sweep) {
        manifest.configDigest = configDigest(jobs[0].cfg);
        manifest.warpInstrQuota = jobs[0].limits.warpInstrQuota;
        manifest.warmupInstrs = jobs[0].limits.warmupInstrs;
        manifest.maxCycles = jobs[0].limits.maxCycles;
    }

    std::ostringstream o;
    o << "{\"workload\":" << quoted(opt.workload) << ",\"seed\":" << opt.seed
      << ",\"nproc\":" << nproc()
      << ",\"traced\":" << (opt.traced ? "true" : "false")
      << ",\"manifest\":" << manifest.toJson()
      << ",\"expected_source\":" << quoted(expectedSource)
      << ",\"expected\":[";
    for (std::size_t i = 0; i < expected.size(); ++i)
        o << (i ? "," : "") << quoted(hex(expected[i]));
    o << "],\"rounds\":[";
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        o << (i ? ",\n" : "\n");
        writeRound(o, rounds[i], jobs, expected, sweep);
    }
    o << "]";
    if (opt.traced) {
        // The last cycle is plain, armed[, bare]: take its armed round.
        const Round &armed = rounds[rounds.size() - cycle.size() + 1];
        writeTrace(o, armed, zones);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    long probeKb = 0;
    for (const HostProbe &p : probes)
        probeKb += long(p.residentBytes() / 1024);
    o << ",\"peak_rss_kb\":" << usage.ru_maxrss - probeKb << "}\n";
    std::fputs(o.str().c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    Options opt = parseOptions(argc, argv);
    std::vector<Job> jobs = jobsFor(opt.workload, opt.seed);
    return opt.command == "measure" ? measure(opt, jobs)
                                    : printFingerprints(opt, jobs);
}
