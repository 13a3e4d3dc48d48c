/**
 * @file
 * Multi-tenant co-run harness: run one workload per tenant on a
 * partitioned machine (docs/MULTITENANCY.md), plus each tenant alone on
 * an identical slice, and report the standard multi-programmed metrics —
 * per-tenant slowdown, weighted speedup / system throughput (STP), and
 * min/max fairness — alongside the walk-queue interference the paper's
 * contention analysis centres on.
 *
 * The co-run and every solo baseline are full deterministic simulations:
 * corunFingerprint() renders every double with %a, so two runs of the
 * same spec are comparable bit-for-bit (the CI co-run gate).
 */

#ifndef SW_HARNESS_CORUN_HH
#define SW_HARNESS_CORUN_HH

#include <optional>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "sim/config.hh"

namespace sw {

/** One tenant of a co-run: a Table 4 benchmark plus its scale. */
struct CoRunTenant
{
    /** Table 4 abbreviation; an unknown one is fatal (findBenchmark). */
    std::string workload;
    double footprintScale = 1.0;
};

/** Everything one co-run experiment needs. */
struct CoRunSpec
{
    /**
     * Machine configuration.  numTenants is overwritten with
     * tenants.size(); set migPartitioning / pwArbitration / sub-entry
     * knobs here to pick the sharing regime under test.
     */
    GpuConfig cfg;
    std::vector<CoRunTenant> tenants;
    /** Stopping conditions for the co-run AND each solo baseline. */
    std::optional<Gpu::RunLimits> limits;
    /**
     * Also run each tenant alone on an identical slice (same SM count;
     * under MIG, an L2 TLB scaled to its way share) to price the
     * interference.  Off = slowdown/weighted-speedup fields stay zero.
     */
    bool soloBaselines = true;
    /**
     * Observability bundle installed on the co-run machine (not the solo
     * baselines — single-run instruments like the cycle ledger attach
     * once).  The per-ASID ledger rows are the co-run's per-tenant stall
     * breakdown; all observers are non-perturbing, so the fingerprint is
     * unchanged.  Borrowed, must outlive the call.
     */
    const Observability *obs = nullptr;
};

/** What one tenant experienced in the co-run (and alone, if priced). */
struct TenantOutcome
{
    std::string workload;
    Asid asid = 0;

    // Co-run, over this tenant's SM slice
    std::uint64_t warpInstrs = 0;
    double perf = 0.0;              ///< slice warp instructions per cycle
    double walkQueueDelay = 0.0;    ///< mean; the interference channel
    std::uint64_t walks = 0;
    std::uint64_t l2Misses = 0;

    // Solo baseline (zero when CoRunSpec::soloBaselines is off)
    double soloPerf = 0.0;
    double soloWalkQueueDelay = 0.0;
    double weightedSpeedup = 0.0;   ///< perf / soloPerf
    double slowdown = 0.0;          ///< soloPerf / perf (>= 1 normally)
};

/** The whole experiment: per-tenant outcomes + system-level metrics. */
struct CoRunResult
{
    std::vector<TenantOutcome> tenants;
    Cycle cycles = 0;               ///< co-run measured cycles

    // Zero when solo baselines are off
    double systemThroughput = 0.0;  ///< STP: sum of weighted speedups
    double avgSlowdown = 0.0;       ///< ANTT analogue over tenants
    double fairness = 0.0;          ///< min/max weighted speedup (1 = fair)
};

/**
 * Solo-baseline machine for tenant @p asid of @p cfg: single-tenant,
 * numSms shrunk to the tenant's slice, and — under MIG partitioning —
 * the L2 TLB shrunk to the tenant's way share, so the baseline owns
 * exactly the private resources the co-run guarantees it.
 */
GpuConfig soloConfigFor(const GpuConfig &cfg, Asid asid);

/** Run the co-run (and solo baselines) described by @p spec. */
CoRunResult runCoRun(const CoRunSpec &spec);

/**
 * Exact textual fingerprint (every field, doubles as %a): two runs are
 * field-identical iff their fingerprints compare equal.
 */
std::string corunFingerprint(const CoRunResult &result);

} // namespace sw

#endif // SW_HARNESS_CORUN_HH
