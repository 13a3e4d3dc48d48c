/**
 * @file
 * Figure 6 — PTW contention persists under prior techniques: (a) page-walk
 * coalescing (NHA) and (b) 2 MB large pages.  Speedup from scaling PTWs
 * with each technique already applied.
 *
 * Footprints are scaled beyond the large-page L2 TLB coverage on the ten
 * scalable benchmarks, as in the paper.
 */

#include "bench_common.hh"

using namespace swbench;

namespace {

void
sweep(const char *title, const GpuConfig &base, double footprint_scale)
{
    std::printf("---- %s ----\n", title);
    const std::vector<std::uint32_t> ptws = {32, 128, 512};
    auto suite = scalableSuite();

    auto scale_of = [footprint_scale,
                     &base](const BenchmarkInfo &info) {
        return base.pageBytes > 64 * 1024 ? largePageScale(info)
                                          : footprint_scale;
    };
    std::vector<SuiteRun> specs;
    for (std::uint32_t n : ptws) {
        GpuConfig cfg = base;
        scalePtwSubsystem(cfg, n);
        specs.push_back({cfg, strprintf("%u-ptw", n), scale_of});
    }
    auto runs = runSuites(suite, specs);

    std::vector<std::string> header = {"bench"};
    for (std::uint32_t n : ptws)
        header.push_back(strprintf("%u PTWs", n));
    TextTable table(header);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        std::vector<std::string> row = {suite[i]->abbr};
        for (std::size_t p = 0; p < ptws.size(); ++p)
            row.push_back(TextTable::num(speedup(runs[0][i], runs[p][i])));
        table.addRow(row);
    }
    std::printf("%s", table.str().c_str());
    std::printf("geomean at 512 PTWs: %.2fx over 32 PTWs\n\n",
                geomeanSpeedup(runs[0], runs[2]));
}

} // namespace

SW_FIGURE(fig06_prior_techniques)
{
    banner("Figure 6", "PTW scaling under NHA coalescing and 2MB pages");

    sweep("(a) page-walk coalescing (NHA)", nhaCfg(), 4.0);

    GpuConfig large = baselineCfg();
    large.pageBytes = 2ull * 1024 * 1024;
    sweep("(b) 2MB large pages", large, 8.0);

    std::printf("paper: increasing PTWs still helps substantially under "
                "both techniques\n");
    return 0;
}
