/**
 * @file
 * Figure 26 — Request Distributor policy comparison: round-robin (the
 * default), random, and stall-aware.
 *
 * Paper: no significant differences — irregular apps have so many stalled
 * SMs that any policy finds idle execution resources.
 */

#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(fig26_distributor)
{
    banner("Figure 26", "Request Distributor policies");

    auto suite = irregularSuite();

    const DistributorPolicy policies[] = {DistributorPolicy::RoundRobin,
                                          DistributorPolicy::Random,
                                          DistributorPolicy::StallAware};
    std::vector<SuiteRun> specs = {{baselineCfg(), "baseline"}};
    for (DistributorPolicy policy : policies) {
        GpuConfig cfg = swCfg();
        cfg.distributorPolicy = policy;
        specs.push_back({cfg, toString(policy)});
    }
    auto groups = runSuites(suite, specs);
    auto &base = groups.front();
    std::vector<std::vector<RunResult>> runs(groups.begin() + 1,
                                             groups.end());

    TextTable table({"bench", "round-robin", "random", "stall-aware"});
    for (std::size_t i = 0; i < suite.size(); ++i) {
        table.addRow({suite[i]->abbr,
                      TextTable::num(speedup(base[i], runs[0][i])),
                      TextTable::num(speedup(base[i], runs[1][i])),
                      TextTable::num(speedup(base[i], runs[2][i]))});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("geomean: round-robin %.2fx  random %.2fx  stall-aware "
                "%.2fx\n",
                geomeanSpeedup(base, runs[0]), geomeanSpeedup(base, runs[1]),
                geomeanSpeedup(base, runs[2]));
    std::printf("\npaper: no significant difference; round-robin chosen "
                "for simplicity\n");
    return 0;
}
