/**
 * @file
 * Figure 4 — Average memory access latency as the number of concurrent
 * page walks grows (the paper's NVIDIA A2000 microbenchmark: one active
 * thread per warp, each chasing distinct cache lines and pages).
 *
 * Paper: latency grows ~4x from 1 to 256 concurrent walks, demonstrating
 * real page-walk contention.
 */

#include "bench_common.hh"
#include "workload/generators.hh"

using namespace swbench;

SW_FIGURE(fig04_concurrency_latency)
{
    banner("Figure 4", "memory latency vs concurrent page walks");

    const std::vector<std::uint64_t> concurrency = {1, 8, 32, 64, 128, 256};
    std::vector<double> latency(concurrency.size(), 0.0);

    SweepRunner runner;
    for (std::size_t c = 0; c < concurrency.size(); ++c) {
        std::uint64_t n = concurrency[c];
        runner.submit(
            strprintf("  [%llu walkers]...", (unsigned long long)n),
            [n, c, &latency]() {
                Gpu gpu(baselineCfg(),
                        std::make_unique<PointerChaseWorkload>(2ull << 30));
                Gpu::RunLimits limits;
                limits.warpInstrQuota = 220 * n; // comparable run lengths
                limits.maxActiveWarps = n;
                limits.maxCycles = 6000000;
                gpu.run(limits);
                latency[c] = gpu.aggregateSmStats().accessLatency.mean();
                return collectResult(gpu, "ptr-chase");
            });
    }
    runner.run();

    TextTable table({"concurrent walks", "avg access latency (cy)",
                     "vs 1 walk"});
    double single = latency.front();
    for (std::size_t c = 0; c < concurrency.size(); ++c) {
        table.addRow({strprintf("%llu",
                                (unsigned long long)concurrency[c]),
                      TextTable::num(latency[c], 0),
                      TextTable::num(single > 0 ? latency[c] / single
                                                : 1.0)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("paper: ~4x latency growth at 256 concurrent walks "
                "(A2000 hardware)\n");
    return 0;
}
