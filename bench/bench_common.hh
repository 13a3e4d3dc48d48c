/**
 * @file
 * Shared plumbing for the figure/table reproduction harnesses: the
 * registry the `paper` driver renders them from, the standard
 * configurations compared throughout the paper, a suite runner that
 * simulates each distinct run once per process, and consistent headers.
 *
 * Every harness honours SW_QUOTA / SW_WARMUP / SW_QUOTA_REG / SW_WARMUP_REG
 * (see harness/experiment.cc) so sweeps can be shortened or lengthened
 * without recompiling.
 */

#ifndef SW_BENCH_COMMON_HH
#define SW_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "trace/trace_format.hh"

namespace swbench {

using namespace sw;

/** A harness: prints one table or figure; @return its exit status. */
using FigureFn = int (*)();

/** Every harness linked into this program, by name. */
inline std::map<std::string, FigureFn> &
figures()
{
    static std::map<std::string, FigureFn> registry;
    return registry;
}

/**
 * Define the harness @p name and register it in figures() under that
 * name: `SW_FIGURE(fig16_overall_speedup) { ...; return 0; }`.
 */
#define SW_FIGURE(name)                                                      \
    static int name();                                                       \
    [[maybe_unused]] static const bool name##Registered =                    \
        ::swbench::figures().emplace(#name, name).second;                    \
    static int name()

/** Baseline: Table 3, 32 hardware PTWs. */
inline GpuConfig
baselineCfg()
{
    return makeDefaultConfig();
}

/** NHA: baseline + page-walk coalescing (Shin et al., MICRO'18). */
inline GpuConfig
nhaCfg()
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.nhaCoalescing = true;
    return cfg;
}

/** FS-HPT: baseline + fixed-size hashed page table (Jang et al., PACT'24). */
inline GpuConfig
fsHptCfg()
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.pageTableKind = PageTableKind::Hashed;
    return cfg;
}

/** SoftWalker without the In-TLB MSHR. */
inline GpuConfig
swNoInTlbCfg()
{
    return makeSoftWalkerConfig(TranslationMode::SoftWalker, 0);
}

/** Full SoftWalker (In-TLB MSHR = 1024). */
inline GpuConfig
swCfg()
{
    return makeSoftWalkerConfig();
}

/** Hybrid: hardware walkers preferred, software overflow (§5.4). */
inline GpuConfig
hybridCfg()
{
    return makeSoftWalkerConfig(TranslationMode::Hybrid);
}

/** Ideal: unbounded walkers and MSHRs. */
inline GpuConfig
idealCfg()
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.mode = TranslationMode::Ideal;
    return cfg;
}

/** Print the standard harness banner. */
inline void
banner(const char *figure, const char *description)
{
    std::printf("============================================================"
                "====\n");
    std::printf("%s — %s\n", figure, description);
    std::printf("SoftWalker reproduction (MICRO'25); shapes, not absolute "
                "numbers.\n");
    std::printf("============================================================"
                "====\n\n");
}

/**
 * One configuration swept across the suite: the unit every figure is built
 * from.  scaleOf, when set, gives each benchmark's footprint scale (the
 * Fig 6b / Fig 25 pattern); otherwise footprints are unscaled.
 */
struct SuiteRun
{
    GpuConfig cfg;
    std::string label;
    std::function<double(const BenchmarkInfo &)> scaleOf = {};
};

/**
 * What a suite run's result depends on, by the determinism contract in
 * harness/sweep.hh: configDigest(cfg), the benchmark, every run limit and
 * the footprint scale.
 */
using RunKey = std::tuple<std::uint64_t, const BenchmarkInfo *,
                          std::uint64_t, std::uint64_t, Cycle,
                          std::uint64_t, double>;

static_assert(sizeof(Gpu::RunLimits) == 4 * sizeof(std::uint64_t),
              "a new Gpu::RunLimits field must join RunKey");

/** Every suite run this process has simulated, by key. */
inline std::map<RunKey, RunResult> simulatedRuns;
/** Suite runs asked of runSuites() in this process. */
inline std::size_t requestedRuns = 0;

/**
 * Run several configurations across one suite: results come back grouped
 * per configuration, each group in suite order.  Each run whose key this
 * process has not simulated yet becomes one SweepRunner job, submitted
 * config-major and drained by SW_JOBS workers; every other run is read
 * from simulatedRuns, so it prints no progress line.  By the determinism
 * contract a stored result equals the one a new simulation would give.
 */
inline std::vector<std::vector<RunResult>>
runSuites(const std::vector<const BenchmarkInfo *> &suite,
          const std::vector<SuiteRun> &runs)
{
    SweepRunner runner;
    std::vector<const RunResult *> slots;   // config-major, as returned
    std::vector<RunResult *> fresh;         // submission order
    for (const SuiteRun &run : runs) {
        for (const BenchmarkInfo *info : suite) {
            SweepJob job{.cfg = run.cfg,
                         .info = info,
                         .limits = limitsFor(*info),
                         .footprintScale =
                             run.scaleOf ? run.scaleOf(*info) : 1.0,
                         .label = run.label};
            const Gpu::RunLimits &l = job.limits;
            auto [it, inserted] = simulatedRuns.try_emplace(
                {configDigest(job.cfg), info, l.warpInstrQuota,
                 l.warmupInstrs, l.maxCycles, l.maxActiveWarps,
                 job.footprintScale});
            slots.push_back(&it->second);
            if (inserted) {
                fresh.push_back(&it->second);
                runner.submit(std::move(job));
            }
        }
    }
    requestedRuns += slots.size();
    std::vector<RunResult> done = runner.run();
    for (std::size_t i = 0; i < done.size(); ++i)
        *fresh[i] = std::move(done[i]);

    std::vector<std::vector<RunResult>> out(runs.size());
    for (std::size_t i = 0; i < slots.size(); ++i)
        out[i / suite.size()].push_back(*slots[i]);
    return out;
}

/** Pointers to every Table 4 entry, paper order. */
inline std::vector<const BenchmarkInfo *>
wholeSuite()
{
    std::vector<const BenchmarkInfo *> out;
    for (const auto &info : benchmarkSuite())
        out.push_back(&info);
    return out;
}

/**
 * Footprint scale pushing a benchmark past the large-page L2 TLB coverage
 * (1024 entries x 2 MB = 2 GB): the paper grows each scalable app beyond
 * coverage before the Fig 6b / Fig 12b / Fig 25 experiments.
 */
inline double
largePageScale(const BenchmarkInfo &info, double min_bytes = 5.0 * (1ull << 30))
{
    double footprint = double(info.footprintMb) * 1024.0 * 1024.0;
    return std::max(8.0, min_bytes / footprint);
}

/** Geomean helper over paired results. */
inline double
geomeanSpeedup(const std::vector<RunResult> &base,
               const std::vector<RunResult> &opt)
{
    return geomean(speedups(base, opt));
}

} // namespace swbench

#endif // SW_BENCH_COMMON_HH
