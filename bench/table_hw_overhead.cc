/**
 * @file
 * §5.2 — Hardware overhead of SoftWalker: per-SM context bits, In-TLB
 * MSHR pending bits, and the synthesized control-logic area, put in
 * perspective against the GA102 die.
 */

#include "area/cacti_lite.hh"
#include "bench_common.hh"
#include "core/isa.hh"

using namespace swbench;

SW_FIGURE(table_hw_overhead)
{
    banner("Section 5.2", "SoftWalker hardware overhead");

    GpuConfig cfg = makeDefaultConfig();
    PwWarpContextBits bits;

    TextTable table({"structure", "cost"});
    table.addRow({"SoftPWB status bitmap (per SM)",
                  strprintf("%u bits (2 b x %u threads)", bits.statusBitmap,
                            cfg.pwWarpThreads)});
    table.addRow({"PW Warp instruction buffer",
                  strprintf("%u bits", bits.instructionBuffer)});
    table.addRow({"PW Warp scoreboard entry",
                  strprintf("%u bits", bits.scoreboardEntry)});
    table.addRow({"PW Warp SIMT stack (8 x 160 b)",
                  strprintf("%u bits", bits.simtStackEntries)});
    table.addRow({"PW Warp context total (per SM)",
                  strprintf("%u bits (paper: 1470)", bits.total())});
    table.addRow({"PW Warp registers",
                  strprintf("%u registers", kPwWarpRegisters)});
    table.addRow({"In-TLB MSHR pending bits",
                  strprintf("%u bits (1 b per L2 TLB entry)",
                            cfg.l2TlbEntries)});
    table.addRow({"In-TLB MSHR control logic",
                  strprintf("%.4f mm^2 (paper, 28 nm synthesis)",
                            kInTlbMshrLogicMm2)});
    double total = softwalkerOverheadMm2(cfg.numSms, cfg.l2TlbEntries);
    table.addRow({"Total modeled area",
                  strprintf("%.4f mm^2 (%.5f%% of the GA102's %.1f mm^2)",
                            total, 100.0 * total / kGa102ChipMm2,
                            kGa102ChipMm2)});
    std::printf("%s\n", table.str().c_str());

    std::printf("for contrast, hardware PTW scaling (CACTI-lite):\n");
    TextTable hw({"config", "area mm^2", "vs 32-PTW baseline"});
    double base = ptwSubsystemArea(32, 64, 1, 128).totalMm2;
    for (std::uint32_t n : {32u, 64u, 128u, 256u, 1024u}) {
        double area = ptwSubsystemArea(n, n * 2, 1, n * 4).totalMm2;
        hw.addRow({strprintf("%u PTWs", n), TextTable::num(area, 3),
                   TextTable::num(area / base, 1)});
    }
    std::printf("%s\n", hw.str().c_str());
    return 0;
}
