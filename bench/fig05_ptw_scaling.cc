/**
 * @file
 * Figure 5 — Impact of increasing hardware PTWs on performance.
 *
 * Speedup vs. PTW count (MSHRs and PWB scaled proportionally, as the paper
 * does), normalised to the 32-PTW baseline, plus the ideal upper bound.
 * The paper's headline: ideal reaches 2.58x average (4.84x irregular);
 * irregular apps need 256-1024 PTWs to saturate, regular apps are happy
 * at 32.  Also prints the "Required # PTWs" column of Table 4 (smallest
 * count reaching 95% of ideal).
 */

#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(fig05_ptw_scaling)
{
    banner("Figure 5", "speedup vs number of hardware PTWs");

    const std::vector<std::uint32_t> ptws = {32, 64, 128, 256, 512, 1024};
    auto suite = wholeSuite();

    std::vector<SuiteRun> specs = {{baselineCfg(), "32-ptw"}};
    for (std::uint32_t n : ptws) {
        if (n == 32)
            continue;
        GpuConfig cfg = baselineCfg();
        scalePtwSubsystem(cfg, n);
        specs.push_back({cfg, strprintf("%u-ptw", n)});
    }
    specs.push_back({idealCfg(), "ideal"});
    auto groups = runSuites(suite, specs);

    auto &base = groups.front();
    auto &ideal = groups.back();
    std::vector<std::vector<RunResult>> scaled;
    scaled.push_back(base);   // ptws[0] == 32 is the baseline itself
    for (std::size_t g = 1; g + 1 < groups.size(); ++g)
        scaled.push_back(groups[g]);

    std::vector<std::string> header = {"bench", "type"};
    for (std::uint32_t n : ptws)
        header.push_back(strprintf("%u", n));
    header.push_back("ideal");
    header.push_back("req#PTW");
    TextTable table(header);

    for (std::size_t i = 0; i < suite.size(); ++i) {
        std::vector<std::string> row = {suite[i]->abbr,
                                        suite[i]->irregular ? "irr" : "reg"};
        double ideal_speedup = speedup(base[i], ideal[i]);
        std::uint32_t required = ptws.back();
        for (std::size_t p = 0; p < ptws.size(); ++p) {
            double s = speedup(base[i], scaled[p][i]);
            row.push_back(TextTable::num(s));
            if (s >= 0.95 * ideal_speedup && required == ptws.back() &&
                ptws[p] < required) {
                required = ptws[p];
            }
        }
        row.push_back(TextTable::num(ideal_speedup));
        row.push_back(strprintf("%u", required));
        table.addRow(row);
    }
    std::printf("%s\n", table.str().c_str());

    // Geomeans per class, as the paper quotes them.
    auto classGeomean = [&](bool irregular, const std::vector<RunResult> &r) {
        std::vector<RunResult> b, o;
        for (std::size_t i = 0; i < suite.size(); ++i) {
            if (suite[i]->irregular == irregular) {
                b.push_back(base[i]);
                o.push_back(r[i]);
            }
        }
        return geomeanSpeedup(b, o);
    };
    std::printf("ideal geomean: irregular %.2fx  regular %.2fx  overall "
                "%.2fx\n",
                classGeomean(true, ideal), classGeomean(false, ideal),
                geomeanSpeedup(base, ideal));
    std::printf("\npaper: ideal 2.58x average, 4.84x irregular; regular "
                "apps saturate at 32 PTWs\n");
    return 0;
}
