/**
 * @file
 * Table 3 — Experimental setup.  Prints the default simulated-machine
 * configuration so runs are self-documenting.
 */

#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(table3_config)
{
    banner("Table 3", "experimental setup (simulated machine)");

    GpuConfig cfg = makeDefaultConfig();
    TextTable table({"component", "parameter"});
    table.addRow({"# of SMs", strprintf("%u SMs", cfg.numSms)});
    table.addRow({"Clock frequency", strprintf("%.0f MHz",
                                               cfg.clockGhz * 1000)});
    table.addRow({"Max warps", strprintf("%u warps per SM",
                                         cfg.maxWarpsPerSm)});
    table.addRow({"L1 TLB (per SM)",
                  strprintf("%u entries, %llu KB page, %llu cycles, "
                            "fully-assoc, %u MSHRs, %u merges",
                            cfg.l1TlbEntries,
                            (unsigned long long)(cfg.pageBytes / 1024),
                            (unsigned long long)cfg.l1TlbLatency,
                            cfg.l1TlbMshrs, cfg.l1TlbMergesPerMshr)});
    table.addRow({"L2 TLB (shared)",
                  strprintf("%u entries, %llu cycles, %u-way, %u MSHRs, "
                            "%u merges",
                            cfg.l2TlbEntries,
                            (unsigned long long)cfg.l2TlbLatency,
                            cfg.l2TlbWays, cfg.l2TlbMshrs,
                            cfg.l2TlbMergesPerMshr)});
    table.addRow({"L1D cache",
                  strprintf("%llu KB per SM, %llu cycles, %u B line "
                            "(%u B sector)",
                            (unsigned long long)(cfg.l1dBytes / 1024),
                            (unsigned long long)cfg.l1dLatency,
                            cfg.lineBytes, cfg.sectorBytes)});
    table.addRow({"L2D cache",
                  strprintf("%llu MB, %llu cycles",
                            (unsigned long long)(cfg.l2dBytes >> 20),
                            (unsigned long long)cfg.l2dLatency)});
    table.addRow({"Memory",
                  strprintf("GDDR6, %u channels, ~448 GB/s aggregate",
                            cfg.dramChannels)});
    table.addRow({"Page table", strprintf("%u-level radix",
                                          cfg.pageTableLevels())});
    table.addRow({"Page walk cache", strprintf("%u entries, fully-assoc",
                                               cfg.pwcEntries)});
    table.addRow({"Page table walkers", strprintf("%u walkers",
                                                  cfg.numPtws)});
    GpuConfig sw = makeSoftWalkerConfig();
    table.addRow({"SoftWalker",
                  strprintf("%u PW threads/SM, %u SoftPWB entries/SM, "
                            "up to %u In-TLB MSHRs",
                            sw.pwWarpThreads, sw.softPwbEntries,
                            sw.inTlbMshrMax)});
    std::printf("%s\n", table.str().c_str());
    return 0;
}
