/**
 * @file
 * Figure 22 — Sensitivity of SoftWalker to the L2 TLB (communication)
 * latency, 40..200 cycles.
 *
 * Paper: 2.31x at 40 cycles (near the 2.58x ideal) degrading gracefully
 * to 2.07x at 200 cycles.
 */

#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(fig22_tlb_latency)
{
    banner("Figure 22", "L2 TLB access-latency sensitivity");

    const std::vector<Cycle> latencies = {40, 80, 120, 160, 200};
    // Irregular suite: regular apps are latency-insensitive here and
    // dominate the sweep's runtime.
    auto suite = irregularSuite();

    std::vector<SuiteRun> specs;
    for (Cycle lat : latencies) {
        GpuConfig base = baselineCfg();
        base.l2TlbLatency = lat;
        GpuConfig soft = swCfg();
        soft.l2TlbLatency = lat;   // comm latency follows (§6.1)
        specs.push_back({base, strprintf("base@%llu",
                                         (unsigned long long)lat)});
        specs.push_back({soft, strprintf("sw@%llu",
                                         (unsigned long long)lat)});
    }
    auto groups = runSuites(suite, specs);

    TextTable table({"L2 TLB latency", "SoftWalker geomean speedup"});
    for (std::size_t l = 0; l < latencies.size(); ++l) {
        table.addRow({strprintf("%llu", (unsigned long long)latencies[l]),
                      TextTable::num(geomeanSpeedup(groups[2 * l],
                                                    groups[2 * l + 1]))});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("paper: 40cy 2.31x ... 200cy 2.07x (queueing still "
                "dominates)\n");
    return 0;
}
