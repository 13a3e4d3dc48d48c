#include "workload/benchmarks.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "vm/address.hh"
#include "workload/generators.hh"

namespace sw {

namespace {

constexpr std::uint64_t MB = 1024ull * 1024;

/**
 * Fatal unless @p bytes, benchmark @p name's scaled footprint, holds its
 * hot window of @p window_pages and at least one warp-cursor partition.
 */
void
requireFootprint(const std::string &name, std::uint64_t bytes,
                 std::uint64_t window_pages)
{
    std::uint64_t need =
        std::max(window_pages * SyntheticWorkload::kWindowPageBytes,
                 SyntheticWorkload::kCursorBytes);
    if (bytes < need) {
        fatal("benchmark '%s': its scaled footprint of %llu bytes is below "
              "the %llu bytes it needs", name.c_str(),
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(need));
    }
}

std::vector<BenchmarkInfo>
buildSuite()
{
    std::vector<BenchmarkInfo> suite;

    // The window slide rate (pages per warp instruction) is calibrated to
    // each benchmark's published L2 TLB MPKI: rate ~= 32 * MPKI / 1000.
    auto graph = [](std::string name, double gather, double rate,
                    double cold, bool irregular, std::uint32_t gap) {
        return [=](std::uint64_t bytes) -> std::unique_ptr<Workload> {
            GraphWorkload::Params params;
            params.gatherFraction = gather;
            params.pagesPerInstr = rate;
            params.coldFraction = cold;
            requireFootprint(name, bytes, params.windowPages);
            return std::make_unique<GraphWorkload>(name, bytes, irregular,
                                                   gap, params);
        };
    };
    auto sparse = [](std::string name, double gather, double rate,
                     double cold, std::uint64_t set_stride,
                     std::uint32_t gap) {
        return [=](std::uint64_t bytes) -> std::unique_ptr<Workload> {
            SparseWorkload::Params params;
            params.gatherFraction = gather;
            params.pagesPerInstr = rate;
            params.coldFraction = cold;
            params.setStridePages = set_stride;
            requireFootprint(name, bytes, params.windowPages);
            return std::make_unique<SparseWorkload>(name, bytes, gap,
                                                    params);
        };
    };
    auto streaming = [](std::string name, bool irregular, std::uint32_t gap,
                        std::uint64_t stride, std::uint32_t streams) {
        return [=](std::uint64_t bytes) -> std::unique_ptr<Workload> {
            StreamingWorkload::Params params;
            params.strideBytes = stride;
            params.numStreams = streams;
            requireFootprint(name, bytes, 0);
            return std::make_unique<StreamingWorkload>(name, bytes,
                                                       irregular, gap,
                                                       params);
        };
    };

    // ---- Irregular (required # PTWs > 32), Table 4 order ----------------
    suite.push_back({"bc", "betweenness centrality [GraphBIG]", 1194,
                     9.0819, 256, true, false,
                     graph("bc", 0.35, 0.29, 0.0, true, 30)});
    suite.push_back({"dc", "degree centrality [GraphBIG]", 1138, 26.17,
                     512, true, true,
                     graph("dc", 0.60, 0.84, 0.0, true, 25)});
    suite.push_back({"sssp", "single-source shortest path [GraphBIG]",
                     1788, 30.2808, 512, true, true,
                     graph("sssp", 0.65, 0.97, 0.0, true, 25)});
    suite.push_back({"gc", "graph coloring [GraphBIG]", 1294, 13.7029,
                     256, true, true,
                     graph("gc", 0.45, 0.44, 0.0, true, 30)});
    suite.push_back({"nw", "needleman-wunsch [Rodinia]", 612, 44.5329,
                     512, true, true,
                     [](std::uint64_t bytes) -> std::unique_ptr<Workload> {
                         WavefrontWorkload::Params params;
                         params.windowPages = 32;
                         params.pagesPerInstr = 1.42;
                         requireFootprint("nw", bytes, params.windowPages);
                         return std::make_unique<WavefrontWorkload>(
                             "nw", bytes, 20, params);
                     }});
    suite.push_back({"st2d", "stencil2d [SHOC]", 612, 4.8493, 256, true,
                     false,
                     streaming("st2d", true, 20, 8 * 1024, 3)});
    suite.push_back({"xsb", "xsbench [XSBench]", 360, 57.9595, 512, true,
                     true,
                     [](std::uint64_t bytes) -> std::unique_ptr<Workload> {
                         constexpr std::uint64_t window_pages = 28;
                         requireFootprint("xsb", bytes, window_pages);
                         return std::make_unique<HashProbeWorkload>(
                             "xsb", bytes, 35, 0.10, window_pages, 1.85);
                     }});
    suite.push_back({"bfs", "breadth-first search [GraphBIG]", 1396,
                     22.1519, 256, true, true,
                     graph("bfs", 0.55, 0.71, 0.0, true, 25)});
    suite.push_back({"sy2k", "syr2k [Polybench]", 192, 120.696, 1024,
                     true, true, sparse("sy2k", 0.80, 3.86, 0.0, 0, 15)});
    suite.push_back({"spmv", "sparse matrix-vector multiply [SHOC]", 288,
                     2517.196, 512, true, true,
                     sparse("spmv", 0.85, 2.0, 0.0, 16, 15)});
    suite.push_back({"gesv", "gesummv [Polybench]", 226, 1320.543, 512,
                     true, true, sparse("gesv", 0.80, 1.0, 0.5, 0, 15)});
    suite.push_back({"gups", "giga-updates per second [GUPS]", 308,
                     318.8202, 1024, true, true,
                     [](std::uint64_t bytes) -> std::unique_ptr<Workload> {
                         // The hot region shrinks to fit, to one page.
                         requireFootprint("gups", bytes, 1);
                         return std::make_unique<RandomAccessWorkload>(
                             "gups", bytes, 40, /*cold_fraction=*/0.30);
                     }});

    // ---- Regular (required # PTWs <= 32) ---------------------------------
    suite.push_back({"cc", "connected components [GraphBIG]", 2306,
                     0.1309, 32, false, false,
                     graph("cc", 0.10, 0.004, 0.0, false, 30)});
    suite.push_back({"kc", "kcore [GraphBIG]", 1152, 0.5271, 32, false,
                     false, graph("kc", 0.10, 0.017, 0.0, false, 30)});
    suite.push_back({"2dc", "2dconv [Polybench]", 1120, 0.0767, 32, false,
                     false, streaming("2dc", false, 25, 0, 1)});
    suite.push_back({"fft", "fast fourier transform [SHOC]", 610, 0.077,
                     32, false, false, streaming("fft", false, 30, 0, 1)});
    suite.push_back({"histo", "histogram [CUDA samples]", 1124, 0.0976,
                     32, false, false,
                     [](std::uint64_t bytes) -> std::unique_ptr<Workload> {
                         requireFootprint("histo", bytes, 0);
                         return std::make_unique<HistogramWorkload>(
                             "histo", bytes, 25);
                     }});
    suite.push_back({"red", "reduction [CUDA samples]", 1124, 0.3383, 32,
                     false, false, streaming("red", false, 15, 0, 1)});
    suite.push_back({"scan", "scan [CUDA samples]", 516, 0.1458, 32,
                     false, false, streaming("scan", false, 20, 0, 1)});
    suite.push_back({"gemm", "gemm [CUDA samples]", 288, 0.0614, 32,
                     false, false, streaming("gemm", false, 10, 0, 1)});
    return suite;
}

} // namespace

const std::vector<BenchmarkInfo> &
benchmarkSuite()
{
    static const std::vector<BenchmarkInfo> suite = buildSuite();
    return suite;
}

const BenchmarkInfo *
findBenchmarkOrNull(const std::string &abbr)
{
    for (const auto &info : benchmarkSuite())
        if (info.abbr == abbr)
            return &info;
    return nullptr;
}

const BenchmarkInfo &
findBenchmark(const std::string &abbr)
{
    if (const BenchmarkInfo *info = findBenchmarkOrNull(abbr))
        return *info;
    std::string valid;
    for (const auto &info : benchmarkSuite()) {
        if (!valid.empty())
            valid += ", ";
        valid += info.abbr;
    }
    fatal("unknown benchmark '%s' (valid: %s)", abbr.c_str(),
          valid.c_str());
}

std::vector<const BenchmarkInfo *>
irregularSuite()
{
    std::vector<const BenchmarkInfo *> out;
    for (const auto &info : benchmarkSuite())
        if (info.irregular)
            out.push_back(&info);
    return out;
}

std::vector<const BenchmarkInfo *>
regularSuite()
{
    std::vector<const BenchmarkInfo *> out;
    for (const auto &info : benchmarkSuite())
        if (!info.irregular)
            out.push_back(&info);
    return out;
}

std::vector<const BenchmarkInfo *>
scalableSuite()
{
    std::vector<const BenchmarkInfo *> out;
    for (const auto &info : benchmarkSuite())
        if (info.footprintScalable)
            out.push_back(&info);
    return out;
}

std::unique_ptr<Workload>
makeWorkload(const BenchmarkInfo &info, double footprint_scale)
{
    SW_ASSERT(footprint_scale > 0.0, "footprint scale must be positive");
    // Every address must stay below 2^kVirtAddrBits, where the page table
    // ends: past it, distinct pages would share one PTE.  Checked on the
    // double, since the cast is undefined from 2^64 bytes on.
    constexpr std::uint64_t kMaxBytes =
        (std::uint64_t(1) << kVirtAddrBits) - SyntheticWorkload::kHeapBase;
    double bytes = double(info.footprintMb * MB) * footprint_scale;
    if (!(bytes <= double(kMaxBytes))) {
        fatal("benchmark '%s': its scaled footprint of %.6g bytes exceeds "
              "the 2^%u-byte virtual address space (%llu bytes above its "
              "heap base)", info.abbr.c_str(), bytes, kVirtAddrBits,
              static_cast<unsigned long long>(kMaxBytes));
    }
    return info.factory(static_cast<std::uint64_t>(bytes));
}

} // namespace sw
