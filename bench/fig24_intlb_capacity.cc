/**
 * @file
 * Figure 24 — Impact of the maximum number of In-TLB MSHR entries.
 *
 * Paper: speedups of 1.63x / 1.88x / 2.04x / 2.12x / 2.24x for capacities
 * 0 / 128 / 256 / 512 / 1024.  sy2k regresses at large capacities (TLB
 * pollution); spmv stops improving past 128 (per-set saturation).
 */

#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(fig24_intlb_capacity)
{
    banner("Figure 24", "In-TLB MSHR capacity sweep");

    const std::vector<std::uint32_t> capacities = {0, 128, 256, 512, 1024};
    auto suite = wholeSuite();
    std::vector<SuiteRun> specs = {{baselineCfg(), "baseline"}};
    for (std::uint32_t cap : capacities) {
        specs.push_back({makeSoftWalkerConfig(TranslationMode::SoftWalker,
                                              cap),
                         strprintf("in-tlb %u", cap)});
    }
    auto groups = runSuites(suite, specs);
    auto &base = groups.front();
    std::vector<std::vector<RunResult>> runs(groups.begin() + 1,
                                             groups.end());

    std::vector<std::string> header = {"bench", "type"};
    for (std::uint32_t cap : capacities)
        header.push_back(strprintf("%u", cap));
    TextTable table(header);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        std::vector<std::string> row = {suite[i]->abbr,
                                        suite[i]->irregular ? "irr" : "reg"};
        for (std::size_t c = 0; c < capacities.size(); ++c)
            row.push_back(TextTable::num(speedup(base[i], runs[c][i])));
        table.addRow(row);
    }
    std::printf("%s\n", table.str().c_str());

    std::printf("overall geomean by capacity:");
    for (std::size_t c = 0; c < capacities.size(); ++c)
        std::printf("  %u: %.2fx", capacities[c],
                    geomeanSpeedup(base, runs[c]));
    std::printf("\n\npaper: 0:1.63x  128:1.88x  256:2.04x  512:2.12x  "
                "1024:2.24x\n");
    return 0;
}
