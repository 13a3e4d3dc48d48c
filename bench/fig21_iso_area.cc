/**
 * @file
 * Figure 21 — SoftWalker vs an iso-area hardware baseline (128 PTWs),
 * each with and without the In-TLB MSHR.
 *
 * Paper: SoftWalker beats the 128-PTW configuration by ~18.5% on irregular
 * workloads, and In-TLB MSHR alone (without matching walker throughput)
 * does not help — it can even hurt (gc, xsb, bfs, sy2k) by polluting the
 * L2 TLB with long-lived pending entries.
 */

#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(fig21_iso_area)
{
    banner("Figure 21", "iso-area comparison: SoftWalker vs 128 PTWs");

    auto suite = irregularSuite();

    GpuConfig base_intlb = baselineCfg();
    base_intlb.inTlbMshrMax = 1024;

    GpuConfig hw128 = baselineCfg();
    scalePtwSubsystem(hw128, 128);

    GpuConfig hw128_intlb = hw128;
    hw128_intlb.inTlbMshrMax = 1024;

    auto groups = runSuites(suite, {{baselineCfg(), "32-ptw"},
                                    {base_intlb, "32-ptw+intlb"},
                                    {hw128, "128-ptw"},
                                    {hw128_intlb, "128-ptw+intlb"},
                                    {swNoInTlbCfg(), "sw-no-intlb"},
                                    {swCfg(), "softwalker"}});
    auto &base = groups[0];
    auto &base_intlb_r = groups[1];
    auto &hw128_r = groups[2];
    auto &hw128_intlb_r = groups[3];
    auto &sw_no = groups[4];
    auto &sw_full = groups[5];

    TextTable table({"bench", "32+InTLB", "128 PTWs", "128+InTLB",
                     "SW w/o InTLB", "SoftWalker"});
    for (std::size_t i = 0; i < suite.size(); ++i) {
        table.addRow({suite[i]->abbr,
                      TextTable::num(speedup(base[i], base_intlb_r[i])),
                      TextTable::num(speedup(base[i], hw128_r[i])),
                      TextTable::num(speedup(base[i], hw128_intlb_r[i])),
                      TextTable::num(speedup(base[i], sw_no[i])),
                      TextTable::num(speedup(base[i], sw_full[i]))});
    }
    std::printf("%s\n", table.str().c_str());
    double g128 = geomeanSpeedup(base, hw128_r);
    double gsw = geomeanSpeedup(base, sw_full);
    std::printf("geomean: 32+InTLB %.2fx  128 PTWs %.2fx  128+InTLB %.2fx  "
                "SW w/o InTLB %.2fx  SoftWalker %.2fx\n",
                geomeanSpeedup(base, base_intlb_r), g128,
                geomeanSpeedup(base, hw128_intlb_r),
                geomeanSpeedup(base, sw_no), gsw);
    std::printf("SoftWalker over iso-area 128 PTWs: %+.1f%%\n",
                100.0 * (gsw / g128 - 1.0));
    std::printf("\npaper: SoftWalker ~18.5%% over 128 PTWs; In-TLB MSHR "
                "alone does not help\n");
    return 0;
}
