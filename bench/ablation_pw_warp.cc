/**
 * @file
 * Ablation — SoftWalker design parameters the paper fixes (32 PW-Warp
 * threads and 32 SoftPWB entries per SM, Table 3): how much concurrency
 * per SM does the software walker actually need?
 *
 * Sweeps PW-Warp lanes x SoftPWB entries on the irregular suite.  The
 * expectation: speedup saturates once the per-SM walk concurrency covers
 * the per-SM miss demand; tiny buffers re-create the queueing problem in
 * the distributor.
 */

#include "bench_common.hh"

using namespace swbench;

SW_FIGURE(ablation_pw_warp)
{
    banner("Ablation", "PW-Warp lanes x SoftPWB entries per SM");

    // A representative irregular trio keeps the sweep affordable.
    std::vector<const BenchmarkInfo *> suite = {
        &findBenchmark("bfs"), &findBenchmark("sssp"),
        &findBenchmark("gups")};

    const std::vector<std::uint32_t> lanes = {4, 8, 16, 32};
    std::vector<SuiteRun> specs = {{baselineCfg(), "baseline"}};
    for (std::uint32_t n : lanes) {
        GpuConfig cfg = swCfg();
        cfg.pwWarpThreads = n;
        cfg.softPwbEntries = n;
        specs.push_back({cfg, strprintf("%u-lane", n)});
    }
    // Decouple buffer depth from lane count: extra buffering without extra
    // lanes only smooths bursts.
    GpuConfig deep = swCfg();
    deep.pwWarpThreads = 16;
    deep.softPwbEntries = 64;
    specs.push_back({deep, "16-lane/64-pwb"});

    auto groups = runSuites(suite, specs);
    auto &base = groups.front();

    TextTable table({"PW lanes", "SoftPWB entries", "geomean speedup"});
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        table.addRow({strprintf("%u", lanes[l]),
                      strprintf("%u", lanes[l]),
                      TextTable::num(geomeanSpeedup(base, groups[1 + l]))});
    }
    table.addRow({"16", "64",
                  TextTable::num(geomeanSpeedup(base, groups.back()))});
    std::printf("%s\n", table.str().c_str());
    std::printf("expectation: saturation near the Table 3 design point "
                "(32 lanes, 32 entries)\n");
    return 0;
}
