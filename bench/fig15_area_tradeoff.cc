/**
 * @file
 * Figure 15 — Speedup versus area overhead of hardware page-walk scaling
 * (PTW count x PWB port count), compared with SoftWalker's near-zero
 * added area.
 *
 * Area comes from the CACTI-lite model (src/area): PWB/MSHR CAMs grow
 * super-linearly with ports.  Paper: within a relative-area budget of
 * 16-64x, hardware reaches 1.1-2.1x while SoftWalker exceeds 2.6x.
 */

#include "area/cacti_lite.hh"
#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(fig15_area_tradeoff)
{
    banner("Figure 15", "speedup vs area overhead of PTW scaling");

    auto suite = irregularSuite();
    double base_area = ptwSubsystemArea(32, 64, 1, 128).totalMm2;

    const std::vector<std::uint32_t> ptw_counts = {64, 128, 256};
    const std::vector<std::uint32_t> port_counts = {1, 4, 8};
    std::vector<SuiteRun> specs = {{baselineCfg(), "32-ptw/1-port"}};
    std::vector<double> rel_areas;
    for (std::uint32_t n : ptw_counts) {
        for (std::uint32_t ports : port_counts) {
            GpuConfig cfg = baselineCfg();
            scalePtwSubsystem(cfg, n);
            cfg.pwbPorts = ports;
            specs.push_back({cfg, strprintf("%up/%uport", n, ports)});
            rel_areas.push_back(ptwSubsystemArea(n, cfg.pwbEntries, ports,
                                                 cfg.l2TlbMshrs).totalMm2 /
                                base_area);
        }
    }
    specs.push_back({swCfg(), "softwalker"});
    auto groups = runSuites(suite, specs);
    auto &base = groups.front();
    auto &sw_run = groups.back();

    TextTable table({"config", "ports", "rel area", "geomean speedup"});
    table.addRow({"32 PTWs", "1", "1.00", "1.00"});

    std::size_t g = 1;
    for (std::uint32_t n : ptw_counts) {
        for (std::uint32_t ports : port_counts) {
            table.addRow({strprintf("%u PTWs", n), strprintf("%u", ports),
                          TextTable::num(rel_areas[g - 1]),
                          TextTable::num(geomeanSpeedup(base, groups[g]))});
            ++g;
        }
    }
    GpuConfig table3 = baselineCfg();
    double sw_area = base_area +
        softwalkerOverheadMm2(table3.numSms, table3.l2TlbEntries);
    table.addRow({"SoftWalker", "-", TextTable::num(sw_area / base_area),
                  TextTable::num(geomeanSpeedup(base, sw_run))});

    std::printf("%s\n", table.str().c_str());
    std::printf("paper: hardware reaches 1.1-2.1x within a 16-64x area "
                "budget; SoftWalker >2.6x at ~baseline area\n");
    return 0;
}
