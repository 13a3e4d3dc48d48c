/**
 * @file
 * Figure 16 — Overall performance.
 *
 * Speedup over the 32-PTW baseline for: NHA, FS-HPT, SoftWalker without
 * In-TLB MSHR, SoftWalker, SoftWalker Hybrid, and the ideal (unbounded
 * PTWs + MSHRs), across the full Table 4 suite.
 *
 * Paper reference points: NHA 1.22x, FS-HPT 1.13x, SW w/o In-TLB 1.63x,
 * SoftWalker 2.24x (3.94x irregular), Ideal 2.58x (averages).
 */

#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(fig16_overall_speedup)
{
    banner("Figure 16", "overall speedup over the 32-PTW baseline");

    auto suite = wholeSuite();
    // One job pool for all 7 configurations x the whole suite; SW_JOBS
    // workers drain it and the groups come back in the order listed.
    auto runs = runSuites(suite, {{baselineCfg(), "baseline"},
                                  {nhaCfg(), "nha"},
                                  {fsHptCfg(), "fs-hpt"},
                                  {swNoInTlbCfg(), "sw-no-intlb"},
                                  {swCfg(), "softwalker"},
                                  {hybridCfg(), "hybrid"},
                                  {idealCfg(), "ideal"}});
    auto &base = runs[0];
    auto &nha = runs[1];
    auto &hpt = runs[2];
    auto &sw_no = runs[3];
    auto &sw_full = runs[4];
    auto &hybrid = runs[5];
    auto &ideal = runs[6];

    TextTable table({"bench", "type", "NHA", "FS-HPT", "SW w/o In-TLB",
                     "SoftWalker", "SW Hybrid", "Ideal"});
    for (std::size_t i = 0; i < suite.size(); ++i) {
        table.addRow({suite[i]->abbr,
                      suite[i]->irregular ? "irr" : "reg",
                      TextTable::num(speedup(base[i], nha[i])),
                      TextTable::num(speedup(base[i], hpt[i])),
                      TextTable::num(speedup(base[i], sw_no[i])),
                      TextTable::num(speedup(base[i], sw_full[i])),
                      TextTable::num(speedup(base[i], hybrid[i])),
                      TextTable::num(speedup(base[i], ideal[i]))});
    }
    std::printf("%s\n", table.str().c_str());

    auto split = [&](bool irregular) {
        std::vector<RunResult> b, n, h, s0, s1, hy, id;
        for (std::size_t i = 0; i < suite.size(); ++i) {
            if (suite[i]->irregular != irregular)
                continue;
            b.push_back(base[i]);
            n.push_back(nha[i]);
            h.push_back(hpt[i]);
            s0.push_back(sw_no[i]);
            s1.push_back(sw_full[i]);
            hy.push_back(hybrid[i]);
            id.push_back(ideal[i]);
        }
        std::printf("%s geomean: NHA %.2fx  FS-HPT %.2fx  SW w/o In-TLB "
                    "%.2fx  SoftWalker %.2fx  Hybrid %.2fx  Ideal %.2fx\n",
                    irregular ? "irregular" : "regular  ",
                    geomeanSpeedup(b, n), geomeanSpeedup(b, h),
                    geomeanSpeedup(b, s0), geomeanSpeedup(b, s1),
                    geomeanSpeedup(b, hy), geomeanSpeedup(b, id));
    };
    split(true);
    split(false);

    std::printf("overall   geomean: NHA %.2fx  FS-HPT %.2fx  SW w/o In-TLB "
                "%.2fx  SoftWalker %.2fx  Hybrid %.2fx  Ideal %.2fx\n",
                geomeanSpeedup(base, nha), geomeanSpeedup(base, hpt),
                geomeanSpeedup(base, sw_no), geomeanSpeedup(base, sw_full),
                geomeanSpeedup(base, hybrid), geomeanSpeedup(base, ideal));
    std::printf("\npaper: NHA 1.22x, FS-HPT 1.13x, SW w/o In-TLB 1.63x, "
                "SoftWalker 2.24x (3.94x irregular), Ideal 2.58x\n");
    return 0;
}
