/**
 * @file
 * End-to-end simulation micro-benchmarks (google-benchmark): simulated
 * warp instructions per wall-clock second for each translation mode on a
 * small machine, and for SoftWalker with the full observer bundle
 * attached and every artifact written, then with each of the tracer,
 * the cycle ledger and the event log alone.  Guards against performance
 * regressions that would make the figure sweeps impractical, and against
 * observers that cost more than the simulation they observe.
 */

#include <benchmark/benchmark.h>

#include <optional>
#include <ostream>
#include <streambuf>

#include "bench_main.hh"

#include "core/softwalker.hh"
#include "gpu/gpu.hh"
#include "obs/cycle_ledger.hh"
#include "obs/event_log.hh"
#include "obs/export.hh"
#include "obs/observability.hh"
#include "obs/sampler.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "sim/config.hh"
#include "workload/generators.hh"

using namespace sw;

namespace {

GpuConfig
smallCfg(TranslationMode mode)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.numSms = 8;
    cfg.maxWarpsPerSm = 16;
    if (mode == TranslationMode::SoftWalker ||
        mode == TranslationMode::Hybrid) {
        cfg = makeSoftWalkerConfig(mode);
        cfg.numSms = 8;
        cfg.maxWarpsPerSm = 16;
    } else {
        cfg.mode = mode;
    }
    return cfg;
}

std::unique_ptr<Workload>
workload()
{
    GraphWorkload::Params params;
    params.gatherFraction = 0.5;
    params.pagesPerInstr = 0.7;
    return std::make_unique<GraphWorkload>("bench", 512ull << 20, true, 20,
                                           params);
}

/** A streambuf that counts and drops everything written to it. */
class DiscardBuffer : public std::streambuf
{
  public:
    std::uint64_t bytes() const { return bytes_; }

  protected:
    int_type
    overflow(int_type ch) override
    {
        ++bytes_;
        return traits_type::not_eof(ch);
    }

    std::streamsize
    xsputn(const char *, std::streamsize count) override
    {
        bytes_ += std::uint64_t(count);
        return count;
    }

  private:
    std::uint64_t bytes_ = 0;
};

/** The observers a benchmark attaches. */
enum class Attach
{
    None,
    Bundle, ///< registry, tracer, sampler, ledger and event log
    Tracer,
    Ledger,
    Events,
};

/** The observers of one run; only those asked for are constructed. */
struct Observers
{
    std::optional<StatRegistry> registry;
    std::optional<TranslationTracer> tracer;
    std::optional<TimeSeriesSampler> sampler;
    std::optional<CycleLedger> ledger;
    std::optional<EventLog> events;
    Observability bundle;

    explicit Observers(Attach attach)
    {
        const bool all = attach == Attach::Bundle;
        if (all) {
            bundle.registry = &registry.emplace();
            bundle.sampler = &sampler.emplace();
        }
        if (all || attach == Attach::Tracer)
            bundle.tracer = &tracer.emplace();
        if (all || attach == Attach::Ledger)
            bundle.ledger = &ledger.emplace();
        if (all || attach == Attach::Events)
            bundle.events = &events.emplace();
    }

    /** Finalise at @p now and write every artifact swsim_cli can. */
    void
    write(std::ostream &out, Cycle now)
    {
        if (sampler)
            sampler->finalize(now);
        if (registry)
            registry->capture();
        if (sampler)
            sampler->uninstall();
        if (registry) {
            out << registry->dumpJson();
            writePrometheus(out, *registry);
        }
        if (tracer)
            tracer->writeTraceJson(out);
        if (sampler)
            sampler->writeCsv(out);
        if (ledger)
            out << ledger->dumpJson();
        if (events)
            events->write(out);
    }
};

void
runMode(benchmark::State &state, TranslationMode mode,
        Attach attach = Attach::None)
{
    std::uint64_t instrs = 0;
    DiscardBuffer discard;
    std::ostream sink(&discard);
    for (auto _ : state) {
        // Declared before the GPU so the observers outlive it.
        std::optional<Observers> observers;
        if (attach != Attach::None)
            observers.emplace(attach);
        Gpu gpu(smallCfg(mode), workload());
        installWalkBackend(gpu);
        if (observers)
            gpu.installObservability(observers->bundle);
        Gpu::RunLimits limits;
        limits.warpInstrQuota = 1500;
        limits.maxCycles = 4000000;
        gpu.run(limits);
        if (observers) {
            observers->write(sink, gpu.cycles());
            benchmark::DoNotOptimize(discard.bytes());
        }
        instrs += gpu.instructionsIssued();
    }
    state.SetItemsProcessed(std::int64_t(instrs));
    state.SetLabel("simulated warp instructions");
}

} // namespace

static void
BM_SimulateBaseline(benchmark::State &state)
{
    runMode(state, TranslationMode::HardwarePtw);
}
BENCHMARK(BM_SimulateBaseline)->Unit(benchmark::kMillisecond);

static void
BM_SimulateSoftWalker(benchmark::State &state)
{
    runMode(state, TranslationMode::SoftWalker);
}
BENCHMARK(BM_SimulateSoftWalker)->Unit(benchmark::kMillisecond);

static void
BM_SimulateSoftWalkerObserved(benchmark::State &state)
{
    runMode(state, TranslationMode::SoftWalker, Attach::Bundle);
}
BENCHMARK(BM_SimulateSoftWalkerObserved)->Unit(benchmark::kMillisecond);

// One observer each, so every observer's cost has its own budget.
static void
BM_SimulateSoftWalkerTracerOnly(benchmark::State &state)
{
    runMode(state, TranslationMode::SoftWalker, Attach::Tracer);
}
BENCHMARK(BM_SimulateSoftWalkerTracerOnly)->Unit(benchmark::kMillisecond);

static void
BM_SimulateSoftWalkerLedgerOnly(benchmark::State &state)
{
    runMode(state, TranslationMode::SoftWalker, Attach::Ledger);
}
BENCHMARK(BM_SimulateSoftWalkerLedgerOnly)->Unit(benchmark::kMillisecond);

static void
BM_SimulateSoftWalkerEventLogOnly(benchmark::State &state)
{
    runMode(state, TranslationMode::SoftWalker, Attach::Events);
}
BENCHMARK(BM_SimulateSoftWalkerEventLogOnly)->Unit(benchmark::kMillisecond);

static void
BM_SimulateHybrid(benchmark::State &state)
{
    runMode(state, TranslationMode::Hybrid);
}
BENCHMARK(BM_SimulateHybrid)->Unit(benchmark::kMillisecond);

static void
BM_SimulateIdeal(benchmark::State &state)
{
    runMode(state, TranslationMode::Ideal);
}
BENCHMARK(BM_SimulateIdeal)->Unit(benchmark::kMillisecond);

SW_BENCHMARK_MAIN_WITH_MANIFEST();
