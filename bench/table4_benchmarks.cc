/**
 * @file
 * Table 4 — Benchmark characterisation: footprint, measured L2 TLB MPKI
 * (per thousand thread-level instructions, measured on the baseline), and
 * the paper's published values for comparison.
 */

#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(table4_benchmarks)
{
    banner("Table 4", "benchmark suite characterisation");

    auto suite = wholeSuite();
    auto runs = runSuites(suite, {{baselineCfg(), "baseline"}}).front();

    TextTable table({"bench", "type", "footprint(MB)", "measured MPKI",
                     "paper MPKI", "paper req#PTW"});
    for (std::size_t i = 0; i < suite.size(); ++i) {
        table.addRow({suite[i]->abbr,
                      suite[i]->irregular ? "irregular" : "regular",
                      strprintf("%llu", (unsigned long long)
                                suite[i]->footprintMb),
                      TextTable::num(runs[i].l2TlbMpki),
                      TextTable::num(suite[i]->paperMpki),
                      strprintf("%u", suite[i]->paperRequiredPtws)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("notes: measured MPKI = L2 TLB misses per 1000 "
                "thread-instructions on the baseline; generators are\n"
                "calibrated to the published class (irregular >> regular), "
                "see EXPERIMENTS.md for per-app deltas.\n");
    return 0;
}
