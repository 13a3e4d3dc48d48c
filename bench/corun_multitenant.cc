/**
 * @file
 * Multi-tenant co-runs (docs/MULTITENANCY.md): irregular x regular
 * benchmark pairs sharing one SoftWalker machine, under two sharing
 * regimes — a fully shared translation path, and MIG-style partitioning
 * (per-tenant L2 TLB way slices, pinned software walks, round-robin
 * PW-Warp arbitration).  Reports the standard multi-programmed metrics
 * (per-tenant slowdown, system throughput, min/max fairness) plus the
 * walk-queue delay each tenant saw co-running vs. alone — the channel
 * the paper's contention analysis predicts irregular tenants pollute.
 */

#include "bench_common.hh"
#include "harness/corun.hh"

using namespace swbench;

namespace {

struct Pair
{
    const char *irregular;
    const char *regular;
};

/** Irregular aggressor x regular victim, spanning the Table 4 suite. */
constexpr Pair kPairs[] = {
    {"bfs", "gemm"},
    {"gups", "fft"},
    {"spmv", "histo"},
    {"sssp", "scan"},
};

CoRunSpec
specFor(const Pair &pair, bool mig)
{
    CoRunSpec spec;
    spec.cfg = makeSoftWalkerConfig();
    spec.cfg.migPartitioning = mig;
    if (mig)
        spec.cfg.pwArbitration = PwArbitration::TenantRoundRobin;
    spec.tenants.push_back({pair.irregular, 1.0});
    spec.tenants.push_back({pair.regular, 1.0});
    return spec;
}

void
regime(const char *title, bool mig)
{
    std::printf("---- %s ----\n", title);
    TextTable table({"pair", "slow(irr)", "slow(reg)", "STP", "fairness",
                     "walkQ irr co/solo", "walkQ reg co/solo"});
    for (const Pair &pair : kPairs) {
        CoRunResult result = runCoRun(specFor(pair, mig));
        const TenantOutcome &irr = result.tenants[0];
        const TenantOutcome &reg = result.tenants[1];
        table.addRow({strprintf("%s+%s", pair.irregular, pair.regular),
                      TextTable::num(irr.slowdown),
                      TextTable::num(reg.slowdown),
                      TextTable::num(result.systemThroughput),
                      TextTable::num(result.fairness),
                      strprintf("%.0f/%.0f", irr.walkQueueDelay,
                                irr.soloWalkQueueDelay),
                      strprintf("%.0f/%.0f", reg.walkQueueDelay,
                                reg.soloWalkQueueDelay)});
    }
    std::printf("%s\n", table.str().c_str());
}

} // namespace

SW_FIGURE(corun_multitenant)
{
    banner("Co-run", "multi-tenant irregular x regular pairs");

    regime("(a) shared translation path", false);
    regime("(b) MIG partitioning + round-robin PW-Warp arbitration", true);

    std::printf("expectation: partitioning trades a little irregular-side "
                "throughput for\nregular-side isolation (fairness closer "
                "to 1, regular walk queues near solo)\n");
    return 0;
}
