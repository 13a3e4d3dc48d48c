/**
 * @file
 * Figure 25 — SoftWalker speedup with 2 MB pages on the ten scalable
 * benchmarks (footprints grown past the large-page L2 TLB coverage).
 *
 * Paper: seven of ten apps improve; xsb/spmv/gups still gain 5.1x/4.5x/7x.
 */

#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(fig25_large_pages)
{
    banner("Figure 25", "SoftWalker speedup with 2MB pages");

    auto suite = scalableSuite();

    GpuConfig base = baselineCfg();
    base.pageBytes = 2ull * 1024 * 1024;
    GpuConfig soft = swCfg();
    soft.pageBytes = 2ull * 1024 * 1024;

    // Grow every footprint past the 2 GB large-page L2 TLB coverage.
    auto scale_of = [](const BenchmarkInfo &info) {
        return largePageScale(info);
    };
    auto groups = runSuites(suite, {{base, "base-2mb", scale_of},
                                    {soft, "sw-2mb", scale_of}});
    auto &base_r = groups[0];
    auto &soft_r = groups[1];

    TextTable table({"bench", "speedup", "base walkQ(cy)", "sw walkQ(cy)"});
    for (std::size_t i = 0; i < suite.size(); ++i) {
        table.addRow({suite[i]->abbr,
                      TextTable::num(speedup(base_r[i], soft_r[i])),
                      TextTable::num(base_r[i].avgWalkQueueDelay, 0),
                      TextTable::num(soft_r[i].avgWalkQueueDelay, 0)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("geomean: %.2fx\n", geomeanSpeedup(base_r, soft_r));
    std::printf("\npaper: sssp 1.26x, nw 1.18x, gesv 2.29x, xsb 5.1x, "
                "spmv 4.5x, gups 7.0x\n");
    return 0;
}
