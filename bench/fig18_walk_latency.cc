/**
 * @file
 * Figure 18 — Page-walk latency of each technique, normalised to the
 * baseline, with the queueing-delay share.
 *
 * Paper: NHA -20%, FS-HPT -16%, SoftWalker -72.8% total walk latency.
 */

#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(fig18_walk_latency)
{
    banner("Figure 18", "normalised page-walk latency w/ queueing split");

    auto suite = wholeSuite();
    auto groups = runSuites(suite, {{baselineCfg(), "baseline"},
                                    {nhaCfg(), "nha"},
                                    {fsHptCfg(), "fs-hpt"},
                                    {swCfg(), "softwalker"}});
    auto &base = groups[0];
    auto &nha = groups[1];
    auto &hpt = groups[2];
    auto &sw_full = groups[3];

    TextTable table({"bench", "base q/a", "NHA norm", "FS-HPT norm",
                     "SW norm", "SW q/a"});
    std::vector<double> nha_norm, hpt_norm, sw_norm;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        double b = base[i].avgWalkTotalLatency;
        auto norm = [&](const RunResult &r) {
            return b > 0 ? r.avgWalkTotalLatency / b : 0.0;
        };
        if (b > 0 && suite[i]->irregular) {
            nha_norm.push_back(norm(nha[i]));
            hpt_norm.push_back(norm(hpt[i]));
            sw_norm.push_back(norm(sw_full[i]));
        }
        table.addRow({suite[i]->abbr,
                      strprintf("%.0f/%.0f", base[i].avgWalkQueueDelay,
                                base[i].avgWalkAccessLatency),
                      TextTable::num(norm(nha[i])),
                      TextTable::num(norm(hpt[i])),
                      TextTable::num(norm(sw_full[i])),
                      strprintf("%.0f/%.0f", sw_full[i].avgWalkQueueDelay,
                                sw_full[i].avgWalkAccessLatency)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("irregular mean normalised walk latency: NHA %.2f  FS-HPT "
                "%.2f  SoftWalker %.2f\n",
                mean(nha_norm), mean(hpt_norm), mean(sw_norm));
    std::printf("(reductions: NHA %.1f%%, FS-HPT %.1f%%, SoftWalker "
                "%.1f%%)\n",
                100.0 * (1.0 - mean(nha_norm)),
                100.0 * (1.0 - mean(hpt_norm)),
                100.0 * (1.0 - mean(sw_norm)));
    std::printf("\npaper: NHA -20%%, FS-HPT -16%%, SoftWalker -72.8%%\n");
    return 0;
}
