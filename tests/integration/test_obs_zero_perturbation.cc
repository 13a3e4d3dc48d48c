/**
 * @file
 * The observability layer observes without perturbing: a run with the full
 * bundle installed (stat registry + lifecycle tracer + time-series
 * sampler + cycle ledger + event log) must be bit-identical — same final
 * cycle, same executed event count, same walk totals, and the same
 * %a-exact RunResult fingerprint — to a run that never heard of
 * observability, solo and co-run, in hardware-PTW and SoftWalker modes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/softwalker.hh"
#include "harness/corun.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "obs/cycle_ledger.hh"
#include "obs/event_log.hh"
#include "obs/sampler.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "prof/hostprof.hh"
#include "test_util.hh"
#include "workload/benchmarks.hh"
#include "workload/generators.hh"

using namespace sw;

namespace {

/** FNV-1a 64: pins an artifact too large to commit as a baseline. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

using Outcome = std::tuple<Cycle, std::uint64_t, std::uint64_t>;

Outcome
runOnce(const GpuConfig &cfg, const Observability *obs)
{
    GraphWorkload::Params params;
    params.pagesPerInstr = 0.5;
    Gpu gpu(cfg, std::make_unique<GraphWorkload>("zp", 256ull << 20, true,
                                                 10, params));
    installWalkBackend(gpu);
    if (obs)
        gpu.installObservability(*obs);

    Gpu::RunLimits limits;
    limits.warpInstrQuota = 500;
    limits.warmupInstrs = 100;
    gpu.run(limits);

    Outcome out{gpu.cycles(), gpu.eventQueue().eventsExecuted(),
                gpu.engine().stats().walksCompleted};
    if (obs && obs->sampler)
        obs->sampler->uninstall();
    return out;
}

class ObsZeroPerturbation
    : public ::testing::TestWithParam<TranslationMode>
{
  protected:
    GpuConfig
    config() const
    {
        return GetParam() == TranslationMode::SoftWalker
            ? test::smallSoftWalkerConfig()
            : test::smallConfig();
    }
};

TEST_P(ObsZeroPerturbation, FullBundleIsBitIdenticalToPlainRun)
{
    Outcome plain = runOnce(config(), nullptr);

    StatRegistry registry;
    TranslationTracer tracer;
    TimeSeriesSampler sampler;
    CycleLedger ledger;
    EventLog events;
    Observability obs;
    obs.registry = &registry;
    obs.tracer = &tracer;
    obs.sampler = &sampler;
    obs.ledger = &ledger;
    obs.events = &events;
    obs.sampleInterval = 200;
    Outcome observed = runOnce(config(), &obs);

    EXPECT_EQ(plain, observed);

    // The bundle actually collected something — this is not a vacuous
    // comparison against an inert observer.
    EXPECT_GT(registry.size(), 0u);
    EXPECT_GT(sampler.numRows(), 0u);
    EXPECT_GT(events.size(), 1u); // meta record plus real events
    EXPECT_TRUE(ledger.attached());
    EXPECT_GT(ledger.syncedAt(), ledger.start());
    EXPECT_EQ(ledger.auditConservation(ledger.syncedAt()), "");
    EXPECT_GT(tracer.stampsRecorded(), 0u);
    EXPECT_GT(tracer.spansCompleted(), 0u);
}

/**
 * The %a-exact fingerprint proof through the harness: every RunResult
 * field — doubles rendered as hex floats — must match a bare machine
 * with the full bundle installed.
 */
TEST_P(ObsZeroPerturbation, FullBundleFingerprintMatchesBareRun)
{
    auto fingerprintOnce = [this](const Observability *obs) {
        GraphWorkload::Params params;
        params.pagesPerInstr = 0.5;
        Gpu::RunLimits limits;
        limits.warpInstrQuota = 500;
        limits.warmupInstrs = 100;
        RunSpec spec;
        spec.cfg = config();
        spec.workload = std::make_unique<GraphWorkload>(
            "zpfp", 256ull << 20, true, 10, params);
        spec.limits = limits;
        if (obs)
            spec.obs = obs;
        return fingerprint(run(std::move(spec)));
    };

    std::string bare = fingerprintOnce(nullptr);

    StatRegistry registry;
    TranslationTracer tracer;
    TimeSeriesSampler sampler;
    CycleLedger ledger;
    EventLog events;
    Observability obs;
    obs.registry = &registry;
    obs.tracer = &tracer;
    obs.sampler = &sampler;
    obs.ledger = &ledger;
    obs.events = &events;
    obs.sampleInterval = 200;
    std::string observed = fingerprintOnce(&obs);

    EXPECT_EQ(bare, observed);
    EXPECT_GT(events.size(), 1u);
    EXPECT_EQ(ledger.auditConservation(ledger.syncedAt()), "");
}

INSTANTIATE_TEST_SUITE_P(Modes, ObsZeroPerturbation,
                         ::testing::Values(TranslationMode::HardwarePtw,
                                           TranslationMode::SoftWalker));

/**
 * Co-run zero-perturbation: the full bundle on the co-run machine must
 * leave the multi-tenant fingerprint (every per-tenant metric, %a-exact)
 * unchanged, while the per-ASID ledger rows carry each tenant's stall
 * breakdown.
 */
TEST(ObsZeroPerturbationCoRun, FullBundleFingerprintMatchesBareCoRun)
{
    auto specFor = [](const Observability *obs) {
        CoRunSpec spec;
        spec.cfg = test::smallSoftWalkerConfig();
        spec.cfg.numSms = 4;
        spec.tenants = {{"bfs", 0.25}, {"gemm", 0.25}};
        Gpu::RunLimits limits;
        limits.warpInstrQuota = 400;
        limits.warmupInstrs = 100;
        spec.limits = limits;
        spec.soloBaselines = false;
        spec.obs = obs;
        return spec;
    };

    std::string bare = corunFingerprint(runCoRun(specFor(nullptr)));

    StatRegistry registry;
    TimeSeriesSampler sampler;
    CycleLedger ledger;
    EventLog events;
    Observability obs;
    obs.registry = &registry;
    obs.sampler = &sampler;
    obs.ledger = &ledger;
    obs.events = &events;
    obs.sampleInterval = 200;
    std::string observed = corunFingerprint(runCoRun(specFor(&obs)));

    EXPECT_EQ(bare, observed);
    EXPECT_EQ(ledger.auditConservation(ledger.syncedAt()), "");
    EXPECT_EQ(fnv1a(ledger.dumpJson()), 0x701c3850f5e2dbadull);
    // Both tenants accrued cycles in their own ledger rows.
    Cycle asid0 = 0, asid1 = 0;
    for (std::size_t cat = 0; cat < kNumLedgerCategories; ++cat) {
        asid0 += ledger.asidAccount(0, static_cast<LedgerCategory>(cat));
        asid1 += ledger.asidAccount(1, static_cast<LedgerCategory>(cat));
    }
    EXPECT_GT(asid0, 0u);
    EXPECT_GT(asid1, 0u);
    EXPECT_GT(registry.size(), 0u);
    EXPECT_GT(events.size(), 1u);
}

std::string
readBaseline(const std::string &name)
{
    std::ifstream in(std::string(SW_SOURCE_DIR) + "/bench/baselines/" +
                     name);
    EXPECT_TRUE(in.good()) << "missing baseline " << name;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Every span the tracer retained equals the event log's record of the
 * same walk (@p log is the written NDJSON): fill cycle, queue delay,
 * access latency, vpn and asid.
 */
void
expectSpansMatchLog(const TranslationTracer &tracer, const std::string &log)
{
    // (fill cycle, queue delay, access latency, vpn, asid) by walk id.
    std::map<std::uint64_t, std::tuple<Cycle, Cycle, Cycle, Vpn, Asid>>
        walks;
    std::istringstream lines(log);
    for (std::string line; std::getline(lines, line);) {
        unsigned long long cycle, id, vpn, queue, access;
        unsigned asid;
        char software[6];
        if (std::sscanf(line.c_str(),
                        "{\"type\":\"walk\",\"cycle\":%llu,\"id\":%llu,"
                        "\"asid\":%u,\"vpn\":%llu,\"sw\":%5[a-z],"
                        "\"queue_delay\":%llu,\"access_latency\":%llu}",
                        &cycle, &id, &asid, &vpn, software, &queue,
                        &access) == 7)
            walks[id] = {cycle, queue, access, vpn, asid};
    }
    const std::vector<TranslationTracer::WalkSpan> spans = tracer.spans();
    ASSERT_FALSE(spans.empty());
    for (const TranslationTracer::WalkSpan &span : spans) {
        auto found = walks.find(span.id);
        ASSERT_NE(found, walks.end()) << "walk " << span.id << " not logged";
        ASSERT_EQ(std::tuple(span.filled, span.dispatched - span.created,
                             span.filled - span.dispatched, span.vpn,
                             span.asid),
                  found->second)
            << "walk " << span.id;
    }
}

/**
 * Golden observer outputs: bench-smoke's run (bfs, SoftWalker, quota 2000,
 * warmup 500) in process with the tracer, ledger and event log attached.
 * The event log and the ledger equal the committed baselines byte for
 * byte; the trace, which has no committed baseline, keeps its digest.
 */
TEST(ObsGolden, BenchSmokeOutputsMatchBaselines)
{
    TranslationTracer tracer;
    CycleLedger ledger;
    EventLog events;
    Observability obs;
    obs.tracer = &tracer;
    obs.ledger = &ledger;
    obs.events = &events;

    RunSpec spec;
    spec.cfg = makeSoftWalkerConfig();
    spec.benchmark = &findBenchmark("bfs");
    // The limits the baselines' manifests record.
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 2000;
    limits.warmupInstrs = 500;
    limits.maxCycles = 4000000;
    spec.limits = limits;
    spec.obs = &obs;
    run(std::move(spec));

    std::ostringstream log;
    events.write(log);
    EXPECT_EQ(log.str(), readBaseline("EVENTS_bfs_sw.ndjson"));
    expectSpansMatchLog(tracer, log.str());

    const std::string artifact = readBaseline("LEDGER_bfs_sw.json");
    const std::string member = "\n  \"ledger\": ";
    std::size_t begin = artifact.find(member);
    std::size_t end = artifact.rfind("\n}\n");
    ASSERT_NE(begin, std::string::npos);
    ASSERT_NE(end, std::string::npos);
    begin += member.size();
    EXPECT_EQ(ledger.dumpJson(), artifact.substr(begin, end - begin));

    // Hostprof builds append wall-clock zone spans to the trace.
    if (!prof::kHostProfCompiled) {
        std::ostringstream trace;
        tracer.writeTraceJson(trace);
        EXPECT_EQ(fnv1a(trace.str()), 0x95ba5eab667a92dbull);
    }
}

/**
 * Golden observer outputs on the hardware-PTW machine: the same bfs run
 * with a sampler attached, so sample records interleave with the
 * hardware walks' records, and a 4,096-stamp tracer, so both of its
 * rings wrap.  Both artifacts keep fixed digests.
 */
TEST(ObsGolden, HardwarePtwSampledRunKeepsDigests)
{
    TranslationTracer tracer(4096);
    TimeSeriesSampler sampler;
    CycleLedger ledger;
    EventLog events;
    Observability obs;
    obs.tracer = &tracer;
    obs.sampler = &sampler;
    obs.ledger = &ledger;
    obs.events = &events;
    obs.sampleInterval = 1000;

    RunSpec spec;
    spec.cfg = makeDefaultConfig();
    spec.benchmark = &findBenchmark("bfs");
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 2000;
    limits.warmupInstrs = 500;
    limits.maxCycles = 4000000;
    spec.limits = limits;
    spec.obs = &obs;
    run(std::move(spec));

    // The run wrapped the tracer's stamp ring and logged both record
    // kinds.
    EXPECT_GT(tracer.stampsDropped(), 0u);
    std::ostringstream log;
    events.write(log);
    EXPECT_NE(log.str().find("\"type\":\"sample\""), std::string::npos);
    EXPECT_NE(log.str().find("\"sw\":false"), std::string::npos);
    EXPECT_EQ(log.str().find("\"sw\":true"), std::string::npos);
    EXPECT_EQ(fnv1a(log.str()), 0xc8a52f1483d24364ull);
    expectSpansMatchLog(tracer, log.str());
    EXPECT_EQ(fnv1a(ledger.dumpJson()), 0xa5d22cb4c8bf8736ull);

    if (!prof::kHostProfCompiled) {
        std::ostringstream trace;
        tracer.writeTraceJson(trace);
        EXPECT_EQ(fnv1a(trace.str()), 0x862134fcdd0bf6ddull);
    }
}

/**
 * Golden observer outputs on the Hybrid machine with NHA coalescing
 * (`swsim_cli --bench bfs --mode hybrid --nha`): hardware and software
 * walks interleave in one log, and the hardware walks that NHA merged
 * into another (riders) issue no page-table reads of their own.  Both
 * artifacts keep fixed digests.
 */
TEST(ObsGolden, HybridNhaRunKeepsDigests)
{
    TranslationTracer tracer;
    EventLog events;
    Observability obs;
    obs.tracer = &tracer;
    obs.events = &events;

    RunSpec spec;
    spec.cfg = makeSoftWalkerConfig(TranslationMode::Hybrid);
    spec.cfg.nhaCoalescing = true;
    spec.benchmark = &findBenchmark("bfs");
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 2000;
    limits.warmupInstrs = 500;
    limits.maxCycles = 4000000;
    spec.limits = limits;
    spec.obs = &obs;
    run(std::move(spec));

    std::ostringstream out;
    events.write(out);
    const std::string log = out.str();
    auto count = [&](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t at = log.find(needle); at != std::string::npos;
             at = log.find(needle, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count("\"sw\":false,\"queue_delay\""), 1152u);
    EXPECT_EQ(count("\"sw\":true,\"queue_delay\""), 1587u);
    const std::vector<TranslationTracer::WalkSpan> spans = tracer.spans();
    std::size_t riders = 0;
    for (const TranslationTracer::WalkSpan &span : spans)
        riders += span.ptReads == 0;
    EXPECT_EQ(spans.size(), 2739u);
    EXPECT_EQ(riders, 732u);
    EXPECT_EQ(fnv1a(log), 0x8b5c39810c677b25ull);
    expectSpansMatchLog(tracer, log);

    if (!prof::kHostProfCompiled) {
        std::ostringstream trace;
        tracer.writeTraceJson(trace);
        EXPECT_EQ(fnv1a(trace.str()), 0x3b79f1450e41beceull);
    }
}

/** Run @p spec with a ledger and a registry attached; the ledger's digest. */
std::uint64_t
ledgerDigest(RunSpec spec, RunResult &result, StatRegistry &registry)
{
    CycleLedger ledger;
    Observability obs;
    obs.registry = &registry;
    obs.ledger = &ledger;
    spec.obs = &obs;
    result = run(std::move(spec));
    EXPECT_EQ(ledger.auditConservation(ledger.syncedAt()), "");
    return fnv1a(ledger.dumpJson());
}

/** The registry's captured value of @p name. */
double
leaf(const StatRegistry &registry, const std::string &name)
{
    for (const StatRegistry::NumericLeaf &leaf : registry.numericLeaves())
        if (leaf.name == name)
            return leaf.value;
    ADD_FAILURE() << "no stat " << name;
    return 0.0;
}

/**
 * Golden ledger on gups under SoftWalker (`swsim_cli --bench gups --mode
 * sw --quota 3000 --warmup 1250`): walks take In-TLB MSHRs, requesters
 * park in the L2 queue when miss tracking is full, and SMs merge into
 * other SMs' walks, so every per-key stage of the ledger is exercised.
 */
TEST(ObsGolden, GupsSoftWalkerLedgerKeepsDigest)
{
    RunSpec spec;
    spec.cfg = makeSoftWalkerConfig();
    spec.benchmark = &findBenchmark("gups");
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 3000;
    limits.warmupInstrs = 1250;
    spec.limits = limits;
    RunResult result;
    StatRegistry registry;
    const std::uint64_t digest =
        ledgerDigest(std::move(spec), result, registry);

    EXPECT_GT(result.warpInstrs, 0u);
    EXPECT_GT(result.inTlbMshrAllocs, 0u);
    EXPECT_GT(result.l2MshrFailures, 0u);
    EXPECT_GT(leaf(registry, "l2tlb.mshr_merges"), 0.0);
    EXPECT_EQ(digest, 0x08861ddb296706b1ull);
}

/**
 * Golden ledger on a 130-SM SoftWalker machine running bfs: the ledger's
 * per-key SM sets span three 64-bit words, and SM 129 sits in the last.
 * Quota and warmup exceed the 6,240 warps the machine starts at cycle
 * 0, so the measured region is not empty.
 */
TEST(ObsGolden, WideMachineLedgerKeepsDigest)
{
    RunSpec spec;
    spec.cfg = makeSoftWalkerConfig();
    spec.cfg.numSms = 130;
    spec.benchmark = &findBenchmark("bfs");
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 8000;
    limits.warmupInstrs = 3000;
    spec.limits = limits;
    RunResult result;
    StatRegistry registry;
    const std::uint64_t digest =
        ledgerDigest(std::move(spec), result, registry);

    EXPECT_GT(result.warpInstrs, 0u);
    EXPECT_GT(leaf(registry, "l2tlb.mshr_merges"), 0.0);
    EXPECT_GT(leaf(registry, "ledger.sm129.trans_pw_exec"), 0.0);
    EXPECT_EQ(digest, 0x3fca4e88433fe22cull);
}

/**
 * Observers installed before the walk backend would miss its stats,
 * gauges and lifecycle events, so the install order is enforced.
 */
TEST(ObsInstallDeathTest, ObserversBeforeBackendPanic)
{
    GraphWorkload::Params params;
    params.pagesPerInstr = 0.5;
    Gpu gpu(test::smallSoftWalkerConfig(),
            std::make_unique<GraphWorkload>("early", 128ull << 20, true, 10,
                                            params));
    CycleLedger ledger;
    Observability obs;
    obs.ledger = &ledger;
    EXPECT_DEATH(gpu.installObservability(obs), "before the walk backend");
}

TEST(ObsRegistry, ReachesEveryLayerOfTheMachine)
{
    StatRegistry registry;
    Observability obs;
    obs.registry = &registry;
    runOnce(test::smallSoftWalkerConfig(), &obs);

    // One representative name per subsystem proves the registration tree
    // spans the whole machine.
    EXPECT_TRUE(registry.has("gpu.cycles"));
    EXPECT_TRUE(registry.has("sm0.warp_instrs"));
    EXPECT_TRUE(registry.has("sm0.l1tlb.misses"));
    EXPECT_TRUE(registry.has("l2tlb.hits"));
    EXPECT_TRUE(registry.has("l2tlb.intlb_mshr.allocs"));
    EXPECT_TRUE(registry.has("walks.completed"));
    EXPECT_TRUE(registry.has("pwc.hits"));
    EXPECT_TRUE(registry.has("faults.recorded"));
    EXPECT_TRUE(registry.has("mem.l2d.misses"));
    EXPECT_TRUE(registry.has("mem.dram.accesses"));
    EXPECT_TRUE(registry.has("audit.sweeps"));
    EXPECT_TRUE(registry.has("softwalker.sm0.pwwarp.batches"));
    EXPECT_TRUE(registry.has("softwalker.distributor.dispatched"));
}

TEST(ObsRegistry, TracerStatsRegisterOnlyWhenInstalled)
{
    {
        StatRegistry registry;
        Observability obs;
        obs.registry = &registry;
        runOnce(test::smallConfig(), &obs);
        EXPECT_FALSE(registry.has("trace.queue_phase"));
    }
    {
        StatRegistry registry;
        TranslationTracer tracer;
        Observability obs;
        obs.registry = &registry;
        obs.tracer = &tracer;
        runOnce(test::smallConfig(), &obs);
        EXPECT_TRUE(registry.has("trace.queue_phase"));
        EXPECT_TRUE(registry.has("trace.walk_phase"));
    }
}

TEST(ObsHarness, RunWorkloadCapturesRegistryBeforeTeardown)
{
    StatRegistry registry;
    Observability obs;
    obs.registry = &registry;

    GraphWorkload::Params params;
    params.pagesPerInstr = 0.5;
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 300;
    RunSpec spec;
    spec.cfg = test::smallConfig();
    spec.workload = std::make_unique<GraphWorkload>("cap", 128ull << 20,
                                                    true, 10, params);
    spec.limits = limits;
    spec.obs = &obs;
    RunResult result = run(std::move(spec));
    EXPECT_GT(result.walks, 0u);

    // The GPU is gone; the captured snapshot must still serve a dump with
    // real (non-zero) values in it.
    std::string json = registry.dumpJson();
    EXPECT_NE(json.find("\"walks.completed\":"), std::string::npos);
    EXPECT_EQ(json.find("\"walks.completed\":0,"), std::string::npos);
}

} // namespace
