/**
 * @file
 * Figure 12 — Scaling PTWs and L2 TLB MSHRs independently and jointly,
 * for 64 KB and 2 MB pages, normalised to 32 PTWs + 128 MSHRs.
 *
 * Paper: with 64 KB pages, scaling only PTWs reaches 59.3% of ideal and
 * only MSHRs just 30.4%; both must scale together.
 */

#include "bench_common.hh"

using namespace swbench;

namespace {

void
sweep(std::uint64_t page_bytes, double footprint_scale)
{
    std::printf("---- %s pages ----\n",
                page_bytes >= 2ull << 20 ? "2MB" : "64KB");
    auto suite = irregularSuite();
    auto scale_of = [=](const BenchmarkInfo &info) {
        return page_bytes > 64 * 1024 ? largePageScale(info)
                                      : footprint_scale;
    };

    GpuConfig base = baselineCfg();
    base.pageBytes = page_bytes;

    GpuConfig ptws_only = base;
    scalePtwSubsystem(ptws_only, 512, /*scale_mshrs=*/false);

    GpuConfig mshrs_only = base;
    mshrs_only.l2TlbMshrs = 1024;

    GpuConfig both = base;
    scalePtwSubsystem(both, 512, /*scale_mshrs=*/false);
    both.l2TlbMshrs = 1024;

    GpuConfig ideal = idealCfg();
    ideal.pageBytes = page_bytes;

    auto groups = runSuites(suite, {{base, "base", scale_of},
                                    {ptws_only, "ptws", scale_of},
                                    {mshrs_only, "mshrs", scale_of},
                                    {both, "both", scale_of},
                                    {ideal, "ideal", scale_of}});
    auto &base_r = groups[0];
    auto &ptw_r = groups[1];
    auto &mshr_r = groups[2];
    auto &both_r = groups[3];
    auto &ideal_r = groups[4];

    TextTable table({"bench", "PTWs", "MSHRs", "PTWs+MSHRs", "ideal"});
    for (std::size_t i = 0; i < suite.size(); ++i) {
        table.addRow({suite[i]->abbr,
                      TextTable::num(speedup(base_r[i], ptw_r[i])),
                      TextTable::num(speedup(base_r[i], mshr_r[i])),
                      TextTable::num(speedup(base_r[i], both_r[i])),
                      TextTable::num(speedup(base_r[i], ideal_r[i]))});
    }
    std::printf("%s", table.str().c_str());
    double g_ptw = geomeanSpeedup(base_r, ptw_r);
    double g_mshr = geomeanSpeedup(base_r, mshr_r);
    double g_both = geomeanSpeedup(base_r, both_r);
    double g_ideal = geomeanSpeedup(base_r, ideal_r);
    std::printf("geomean: PTWs %.2fx (%.0f%% of ideal)  MSHRs %.2fx "
                "(%.0f%% of ideal)  both %.2fx  ideal %.2fx\n\n",
                g_ptw, 100.0 * g_ptw / g_ideal, g_mshr,
                100.0 * g_mshr / g_ideal, g_both, g_ideal);
}

} // namespace

SW_FIGURE(fig12_ptw_mshr_scaling)
{
    banner("Figure 12", "scaling PTWs vs L2 TLB MSHRs vs both");
    sweep(64 * 1024, 1.0);
    // 2 MB pages: grow the footprints past the large-page L2 TLB coverage
    // (2 GB at 1024 entries), as the paper does for Figs 6 and 25.
    sweep(2ull * 1024 * 1024, 0.0 /*per-benchmark largePageScale*/);
    std::printf("paper (64KB): PTWs-only 59.3%% of ideal, MSHRs-only "
                "30.4%%; (2MB): 83.4%% and 63.7%%\n");
    return 0;
}
