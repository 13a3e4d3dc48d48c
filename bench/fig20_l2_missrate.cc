/**
 * @file
 * Figure 20 — L2 data-cache miss rate, baseline vs SoftWalker.
 *
 * Paper claim: the extra page-walk traffic does not change the L2 miss
 * rate; the baseline leaves the memory system underutilised (~6.7% of
 * bandwidth for irregular apps).
 */

#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(fig20_l2_missrate)
{
    banner("Figure 20", "L2 data-cache miss rate");

    auto suite = wholeSuite();
    auto groups = runSuites(suite, {{baselineCfg(), "baseline"},
                                    {swCfg(), "softwalker"}});
    auto &base = groups[0];
    auto &sw_full = groups[1];

    TextTable table({"bench", "type", "base miss%", "sw miss%",
                     "base dram util%", "sw dram util%"});
    std::vector<double> base_util;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        if (suite[i]->irregular)
            base_util.push_back(base[i].dramUtilisation);
        table.addRow({suite[i]->abbr,
                      suite[i]->irregular ? "irr" : "reg",
                      TextTable::num(100.0 * base[i].l2dMissRate, 1),
                      TextTable::num(100.0 * sw_full[i].l2dMissRate, 1),
                      TextTable::num(100.0 * base[i].dramUtilisation, 1),
                      TextTable::num(100.0 * sw_full[i].dramUtilisation,
                                     1)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("baseline irregular DRAM utilisation: %.1f%% (paper: "
                "~6.7%% of bandwidth)\n", 100.0 * mean(base_util));
    std::printf("\npaper: L2 miss rate unchanged by SoftWalker's added "
                "walk traffic\n");
    return 0;
}
