/**
 * @file
 * Figure 8 — Warp-scheduler cycle breakdown (issued / memory+scoreboard
 * stall / other).
 *
 * The paper profiles an A2000; here the same breakdown comes from the
 * simulator's per-SM accounting.  Claim: irregular apps spend ~90% of
 * scheduler cycles unable to issue, dominated by memory stalls.
 */

#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(fig08_scheduler_breakdown)
{
    banner("Figure 8", "warp-scheduler cycle breakdown (baseline)");

    auto suite = wholeSuite();
    auto runs = runSuites(suite, {{baselineCfg(), "baseline"}}).front();
    GpuConfig cfg = baselineCfg();

    TextTable table({"bench", "type", "issued%", "mem stall%", "other%"});
    std::vector<double> irregular_stall;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const RunResult &r = runs[i];
        double total = double(r.cycles) * double(cfg.numSms);
        double issued = total > 0
            ? std::min(1.0, double(r.issueSlotCycles + r.computeCycles +
                                   r.pwIssueCycles) / total)
            : 0.0;
        double stall = r.stallFraction(cfg.numSms);
        stall = std::min(stall, 1.0 - issued);
        double other = std::max(0.0, 1.0 - issued - stall);
        if (suite[i]->irregular)
            irregular_stall.push_back(stall + other);
        table.addRow({suite[i]->abbr,
                      suite[i]->irregular ? "irr" : "reg",
                      TextTable::num(100.0 * issued, 1),
                      TextTable::num(100.0 * stall, 1),
                      TextTable::num(100.0 * other, 1)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("irregular average non-issue share: %.1f%%\n",
                100.0 * mean(irregular_stall));
    std::printf("\npaper: ~90%% of scheduler cycles are memory/scoreboard "
                "stalls for irregular apps\n");
    return 0;
}
