/**
 * @file
 * Figure 19 — Reduction of warp-scheduler stall cycles under SoftWalker.
 *
 * Paper: SoftWalker removes ~71% of stall cycles for irregular apps by
 * resolving L2 TLB MSHR and PTW contention.
 *
 * Stall cycles come from the top-down cycle ledger (src/obs/cycle_ledger):
 * the stall side of each run is MemWait plus the translation-wait subtree,
 * so the table can also show how much of the remaining SoftWalker stall is
 * still translation.  Each run is cross-checked against the SM scheduler's
 * own memStallCycles counter: the ledger's stall total must sit in
 * [memStall - PwOccupancy, memStall] (PW-issue reservations are carved out
 * of whatever span they overlap), and adding back only the stall-carved
 * share of PwOccupancy must reconstruct memStall within 1%, or the
 * harness exits non-zero.
 */

#include <cmath>

#include "bench_common.hh"
#include "obs/cycle_ledger.hh"

using namespace swbench;

namespace {

/** Ledger-side stall picture of one run. */
struct StallBreakdown
{
    double memWait = 0.0;    ///< MemWait cycles
    double transWait = 0.0;  ///< Trans* subtree cycles
    double pwOcc = 0.0;        ///< PwOccupancy carve-out
    double pwOccStalled = 0.0; ///< share of pwOcc carved from stall spans
    double elapsedAll = 0.0;   ///< sum over every category (numSms * elapsed)

    double stall() const { return memWait + transWait; }
};

StallBreakdown
breakdownOf(const CycleLedger &ledger)
{
    StallBreakdown b;
    std::array<Cycle, kNumLedgerCategories> totals = ledger.categoryTotals();
    for (std::size_t cat = 0; cat < kNumLedgerCategories; ++cat) {
        LedgerCategory c = static_cast<LedgerCategory>(cat);
        b.elapsedAll += double(totals[cat]);
        if (c == LedgerCategory::MemWait)
            b.memWait += double(totals[cat]);
        else if (isTransStage(c))
            b.transWait += double(totals[cat]);
        else if (c == LedgerCategory::PwOccupancy)
            b.pwOcc += double(totals[cat]);
    }
    b.pwOccStalled = double(ledger.pwOccupancyStalled());
    return b;
}

} // namespace

SW_FIGURE(fig19_stall_reduction)
{
    banner("Figure 19", "stall-cycle reduction vs baseline (cycle ledger)");

    auto suite = wholeSuite();
    const std::vector<SuiteRun> cfgs = {{baselineCfg(), "baseline"},
                                        {swCfg(), "softwalker"}};

    // Each job owns its ledger (observability bundles are single-run
    // instruments) and deposits its breakdown into its own slot, so any
    // number of jobs may run concurrently.
    std::vector<StallBreakdown> breakdowns(suite.size() * cfgs.size());
    std::vector<RunResult> results(suite.size() * cfgs.size());

    SweepRunner runner;
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        for (std::size_t i = 0; i < suite.size(); ++i) {
            const BenchmarkInfo *info = suite[i];
            GpuConfig cfg = cfgs[c].cfg;
            std::size_t slot = c * suite.size() + i;
            runner.submit(
                strprintf("  [%s] %s...", cfgs[c].label.c_str(),
                          info->abbr.c_str()),
                [cfg, info, slot, &breakdowns, &results]() {
                    CycleLedger ledger;
                    Observability obs;
                    obs.ledger = &ledger;
                    RunSpec spec;
                    spec.cfg = cfg;
                    spec.benchmark = info;
                    spec.limits = limitsFor(*info);
                    spec.obs = &obs;
                    RunResult result = run(std::move(spec));
                    breakdowns[slot] = breakdownOf(ledger);
                    results[slot] = result;
                    return results[slot];
                });
        }
    }
    runner.run();

    // Cross-check every run before printing anything derived from it.
    int violations = 0;
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        for (std::size_t i = 0; i < suite.size(); ++i) {
            std::size_t slot = c * suite.size() + i;
            const StallBreakdown &b = breakdowns[slot];
            double mem_stall = double(results[slot].memStallCycles);
            bool sandwich = b.stall() <= mem_stall &&
                            b.stall() + b.pwOcc >= mem_stall;
            // The scheduler counts the whole stall window; the ledger
            // carves PW-issue reservations out of it.  Adding back the
            // stall-carved share of PwOccupancy (not the part that
            // overlapped issue/idle spans) must reconstruct the
            // scheduler's counter within 1%.
            double rel = mem_stall > 0
                ? std::abs(b.stall() + b.pwOccStalled - mem_stall) /
                      mem_stall
                : 0.0;
            if (!sandwich || rel > 0.01) {
                ++violations;
                std::fprintf(stderr,
                             "VALIDATION FAILURE [%s/%s]: ledger stall "
                             "%.0f vs scheduler memStall %.0f "
                             "(pw-occupancy %.0f, stall-carved %.0f, "
                             "rel diff %.3f%%)\n",
                             cfgs[c].label.c_str(), suite[i]->abbr.c_str(),
                             b.stall(), mem_stall, b.pwOcc,
                             b.pwOccStalled, 100.0 * rel);
            }
        }
    }

    TextTable table({"bench", "type", "base stall%", "sw stall%",
                     "stall reduction%", "sw trans share%"});
    std::vector<double> reductions_irregular;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const StallBreakdown &base = breakdowns[i];
        const StallBreakdown &soft = breakdowns[suite.size() + i];
        const RunResult &base_r = results[i];
        const RunResult &soft_r = results[suite.size() + i];
        double base_frac =
            base.elapsedAll > 0 ? base.stall() / base.elapsedAll : 0.0;
        double sw_frac =
            soft.elapsedAll > 0 ? soft.stall() / soft.elapsedAll : 0.0;
        // Stall cycles per unit of work (stall cycles per instruction):
        // comparing fractions alone would ignore that SoftWalker finishes
        // the same work in fewer cycles.
        double base_per_instr = base_r.warpInstrs
            ? base.stall() / double(base_r.warpInstrs) : 0.0;
        double sw_per_instr = soft_r.warpInstrs
            ? soft.stall() / double(soft_r.warpInstrs) : 0.0;
        double reduction = base_per_instr > 0
            ? 100.0 * (1.0 - sw_per_instr / base_per_instr)
            : 0.0;
        double trans_share =
            soft.stall() > 0 ? 100.0 * soft.transWait / soft.stall() : 0.0;
        if (suite[i]->irregular)
            reductions_irregular.push_back(reduction);
        table.addRow({suite[i]->abbr,
                      suite[i]->irregular ? "irr" : "reg",
                      TextTable::num(100.0 * base_frac, 1),
                      TextTable::num(100.0 * sw_frac, 1),
                      TextTable::num(reduction, 1),
                      TextTable::num(trans_share, 1)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("average stall reduction (irregular): %.1f%%\n",
                mean(reductions_irregular));
    std::printf("ledger-vs-scheduler validation: %s (%d violations)\n",
                violations == 0 ? "PASS" : "FAIL", violations);
    std::printf("\npaper: ~71%% stall reduction for irregular apps\n");
    return violations == 0 ? 0 : 1;
}
