/**
 * @file
 * Figure 23 — Sensitivity to the per-level page-table access latency
 * (50..400 cycles, fixed).
 *
 * Paper: speedup grows with the per-level latency — 1.6x / 2.3x / 3.5x /
 * 4.2x / 4.8x at 50/100/200/300/400 cycles — and so does the queueing-
 * delay reduction.
 */

#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(fig23_pt_latency)
{
    banner("Figure 23", "per-level page-table latency sensitivity");

    const std::vector<Cycle> latencies = {50, 100, 200, 300, 400};
    auto suite = irregularSuite();

    std::vector<SuiteRun> specs;
    for (Cycle lat : latencies) {
        GpuConfig base = baselineCfg();
        base.fixedPtAccessLatency = lat;
        GpuConfig soft = swCfg();
        soft.fixedPtAccessLatency = lat;
        specs.push_back({base, strprintf("base@%llu",
                                         (unsigned long long)lat)});
        specs.push_back({soft, strprintf("sw@%llu",
                                         (unsigned long long)lat)});
    }
    auto groups = runSuites(suite, specs);

    TextTable table({"per-level latency", "speedup", "queue reduction%"});
    for (std::size_t l = 0; l < latencies.size(); ++l) {
        Cycle lat = latencies[l];
        auto &base_r = groups[2 * l];
        auto &soft_r = groups[2 * l + 1];
        std::vector<double> queue_reductions;
        for (std::size_t i = 0; i < suite.size(); ++i) {
            if (base_r[i].avgWalkQueueDelay > 0) {
                queue_reductions.push_back(
                    1.0 - soft_r[i].avgWalkQueueDelay /
                          base_r[i].avgWalkQueueDelay);
            }
        }
        table.addRow({strprintf("%llu", (unsigned long long)lat),
                      TextTable::num(geomeanSpeedup(base_r, soft_r)),
                      TextTable::num(100.0 * mean(queue_reductions), 1)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("paper: 50cy 1.6x, 100cy 2.3x, 200cy 3.5x, 300cy 4.2x, "
                "400cy 4.8x (irregular)\n");
    return 0;
}
