#include "harness/corun.hh"

#include <utility>

#include "harness/experiment.hh"
#include "prof/hostprof.hh"
#include "sim/logging.hh"
#include "workload/benchmarks.hh"

namespace sw {

namespace {

/** What the per-tenant metrics are read from after one machine ran. */
struct SliceMetrics
{
    std::uint64_t warpInstrs = 0;
    double perf = 0.0;
    double walkQueueDelay = 0.0;
    std::uint64_t walks = 0;
    std::uint64_t l2Misses = 0;
};

/**
 * Metrics of @p asid's SM slice of a finished @p gpu.  Used identically
 * for the co-run (a real tenant slice) and the solo baseline (ASID 0 of
 * a machine that *is* the slice), so the comparison is like-for-like.
 */
SliceMetrics
sliceMetrics(const Gpu &gpu, Asid asid)
{
    SliceMetrics out;
    auto [first_sm, sm_count] = tenantSmRange(gpu.config(), asid);
    for (std::uint32_t i = 0; i < sm_count; ++i)
        out.warpInstrs += gpu.sm(first_sm + i).stats().warpInstrs;
    Cycle cycles = gpu.measuredCycles();
    out.perf = cycles ? double(out.warpInstrs) / double(cycles) : 0.0;
    const TranslationEngine::TenantStats &ts =
        gpu.engine().tenantStats(asid);
    out.walkQueueDelay = ts.walkQueueDelay.mean();
    out.walks = ts.walksCompleted;
    out.l2Misses = ts.l2Misses;
    return out;
}

/** Build, run, and return the machine for @p cfg over @p workloads. */
std::unique_ptr<Gpu>
runMachine(const GpuConfig &cfg,
           std::vector<std::unique_ptr<Workload>> workloads,
           const Gpu::RunLimits &limits,
           const Observability *obs = nullptr)
{
    std::unique_ptr<Gpu> gpu;
    {
        SW_PROF_SCOPE(prof::Zone::Setup);
        gpu = buildMachine(cfg, std::move(workloads), obs);
    }
    gpu->run(limits);
    closeObservers(*gpu, obs);
    return gpu;
}

} // namespace

GpuConfig
soloConfigFor(const GpuConfig &cfg, Asid asid)
{
    GpuConfig solo = cfg;
    auto [first_sm, sm_count] = tenantSmRange(cfg, asid);
    (void)first_sm;
    solo.numSms = sm_count;
    if (cfg.migPartitioning) {
        // The co-run guarantees the tenant only its own L2 TLB ways;
        // pricing interference against a full shared TLB would charge
        // capacity loss to contention.
        auto [first_way, way_count] = tenantWayRange(cfg, asid);
        (void)first_way;
        solo.l2TlbEntries = cfg.l2TlbEntries / cfg.l2TlbWays * way_count;
        solo.l2TlbWays = way_count;
        // In-TLB MSHRs live in the L2 TLB's ways: the capacity the tenant
        // can pend follows its way share too.
        if (solo.inTlbMshrMax > solo.l2TlbEntries)
            solo.inTlbMshrMax = solo.l2TlbEntries;
    }
    solo.numTenants = 1;
    solo.migPartitioning = false;
    return solo;
}

CoRunResult
runCoRun(const CoRunSpec &spec)
{
    if (spec.tenants.empty())
        fatal("co-run spec has no tenants");
    GpuConfig cfg = spec.cfg;
    cfg.numTenants = std::uint32_t(spec.tenants.size());
    Gpu::RunLimits limits = spec.limits.value_or(defaultLimits());

    std::vector<std::unique_ptr<Workload>> workloads;
    workloads.reserve(spec.tenants.size());
    for (const CoRunTenant &tenant : spec.tenants)
        workloads.push_back(makeWorkload(findBenchmark(tenant.workload),
                                         tenant.footprintScale));

    std::unique_ptr<Gpu> corun =
        runMachine(cfg, std::move(workloads), limits, spec.obs);

    CoRunResult result;
    result.cycles = corun->measuredCycles();
    result.tenants.reserve(spec.tenants.size());
    for (Asid asid = 0; asid < spec.tenants.size(); ++asid) {
        SliceMetrics m = sliceMetrics(*corun, asid);
        TenantOutcome outcome;
        outcome.workload = spec.tenants[asid].workload;
        outcome.asid = asid;
        outcome.warpInstrs = m.warpInstrs;
        outcome.perf = m.perf;
        outcome.walkQueueDelay = m.walkQueueDelay;
        outcome.walks = m.walks;
        outcome.l2Misses = m.l2Misses;
        result.tenants.push_back(std::move(outcome));
    }
    corun.reset();   // free the co-run machine before the solo runs

    if (!spec.soloBaselines)
        return result;

    double min_ws = 0.0, max_ws = 0.0;
    for (TenantOutcome &outcome : result.tenants) {
        std::vector<std::unique_ptr<Workload>> solo_workloads;
        solo_workloads.push_back(
            makeWorkload(findBenchmark(outcome.workload),
                         spec.tenants[outcome.asid].footprintScale));
        std::unique_ptr<Gpu> solo =
            runMachine(soloConfigFor(cfg, outcome.asid),
                       std::move(solo_workloads), limits);
        SliceMetrics m = sliceMetrics(*solo, 0);
        outcome.soloPerf = m.perf;
        outcome.soloWalkQueueDelay = m.walkQueueDelay;
        SW_ASSERT(outcome.soloPerf > 0.0,
                  "tenant %u ('%s') made no solo progress", outcome.asid,
                  outcome.workload.c_str());
        outcome.weightedSpeedup = outcome.perf / outcome.soloPerf;
        outcome.slowdown = outcome.perf > 0.0
                               ? outcome.soloPerf / outcome.perf : 0.0;
        result.systemThroughput += outcome.weightedSpeedup;
        result.avgSlowdown += outcome.slowdown;
        if (outcome.asid == 0 || outcome.weightedSpeedup < min_ws)
            min_ws = outcome.weightedSpeedup;
        if (outcome.asid == 0 || outcome.weightedSpeedup > max_ws)
            max_ws = outcome.weightedSpeedup;
    }
    result.avgSlowdown /= double(result.tenants.size());
    result.fairness = max_ws > 0.0 ? min_ws / max_ws : 0.0;
    return result;
}

std::string
corunFingerprint(const CoRunResult &result)
{
    std::string text;
    auto u64 = [&text](const std::string &name, std::uint64_t value) {
        text += strprintf("%s=%llu\n", name.c_str(),
                          (unsigned long long)value);
    };
    auto f64 = [&text](const std::string &name, double value) {
        // %a is exact: any bit difference in a double shows up.
        text += strprintf("%s=%a\n", name.c_str(), value);
    };
    u64("cycles", result.cycles);
    f64("systemThroughput", result.systemThroughput);
    f64("avgSlowdown", result.avgSlowdown);
    f64("fairness", result.fairness);
    for (const TenantOutcome &outcome : result.tenants) {
        std::string p = strprintf("tenant%u.", outcome.asid);
        text += p + "workload=" + outcome.workload + "\n";
        u64(p + "warpInstrs", outcome.warpInstrs);
        f64(p + "perf", outcome.perf);
        f64(p + "walkQueueDelay", outcome.walkQueueDelay);
        u64(p + "walks", outcome.walks);
        u64(p + "l2Misses", outcome.l2Misses);
        f64(p + "soloPerf", outcome.soloPerf);
        f64(p + "soloWalkQueueDelay", outcome.soloWalkQueueDelay);
        f64(p + "weightedSpeedup", outcome.weightedSpeedup);
        f64(p + "slowdown", outcome.slowdown);
    }
    return text;
}

} // namespace sw
