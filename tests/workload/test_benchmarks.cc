/** @file Tests for the Table 4 benchmark suite. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "sim/rng.hh"
#include "vm/address.hh"
#include "workload/benchmarks.hh"
#include "workload/generators.hh"

using namespace sw;

namespace {

TEST(Benchmarks, TwentyEntriesInPaperSplit)
{
    EXPECT_EQ(benchmarkSuite().size(), 20u);
    EXPECT_EQ(irregularSuite().size(), 12u);
    EXPECT_EQ(regularSuite().size(), 8u);
    EXPECT_EQ(scalableSuite().size(), 10u);
}

TEST(Benchmarks, AbbreviationsAreUnique)
{
    std::set<std::string> names;
    for (const auto &info : benchmarkSuite())
        names.insert(info.abbr);
    EXPECT_EQ(names.size(), 20u);
}

TEST(Benchmarks, Table4FootprintsMatchPaper)
{
    EXPECT_EQ(findBenchmark("bc").footprintMb, 1194u);
    EXPECT_EQ(findBenchmark("dc").footprintMb, 1138u);
    EXPECT_EQ(findBenchmark("sssp").footprintMb, 1788u);
    EXPECT_EQ(findBenchmark("gc").footprintMb, 1294u);
    EXPECT_EQ(findBenchmark("nw").footprintMb, 612u);
    EXPECT_EQ(findBenchmark("st2d").footprintMb, 612u);
    EXPECT_EQ(findBenchmark("xsb").footprintMb, 360u);
    EXPECT_EQ(findBenchmark("bfs").footprintMb, 1396u);
    EXPECT_EQ(findBenchmark("sy2k").footprintMb, 192u);
    EXPECT_EQ(findBenchmark("spmv").footprintMb, 288u);
    EXPECT_EQ(findBenchmark("gesv").footprintMb, 226u);
    EXPECT_EQ(findBenchmark("gups").footprintMb, 308u);
    EXPECT_EQ(findBenchmark("cc").footprintMb, 2306u);
    EXPECT_EQ(findBenchmark("kc").footprintMb, 1152u);
    EXPECT_EQ(findBenchmark("2dc").footprintMb, 1120u);
    EXPECT_EQ(findBenchmark("fft").footprintMb, 610u);
    EXPECT_EQ(findBenchmark("histo").footprintMb, 1124u);
    EXPECT_EQ(findBenchmark("red").footprintMb, 1124u);
    EXPECT_EQ(findBenchmark("scan").footprintMb, 516u);
    EXPECT_EQ(findBenchmark("gemm").footprintMb, 288u);
}

TEST(Benchmarks, Table4RequiredPtwsMatchPaper)
{
    EXPECT_EQ(findBenchmark("sy2k").paperRequiredPtws, 1024u);
    EXPECT_EQ(findBenchmark("gups").paperRequiredPtws, 1024u);
    EXPECT_EQ(findBenchmark("nw").paperRequiredPtws, 512u);
    EXPECT_EQ(findBenchmark("bc").paperRequiredPtws, 256u);
    for (const auto *info : regularSuite())
        EXPECT_EQ(info->paperRequiredPtws, 32u);
}

TEST(Benchmarks, IrregularsHaveHigherPaperMpkiThanRegulars)
{
    double min_irregular = 1e18;
    double max_regular = 0.0;
    for (const auto *info : irregularSuite())
        min_irregular = std::min(min_irregular, info->paperMpki);
    for (const auto *info : regularSuite())
        max_regular = std::max(max_regular, info->paperMpki);
    EXPECT_GT(min_irregular, max_regular);
}

TEST(Benchmarks, FactoriesProduceNamedWorkloads)
{
    for (const auto &info : benchmarkSuite()) {
        auto wl = makeWorkload(info);
        ASSERT_NE(wl, nullptr);
        EXPECT_EQ(wl->name(), info.abbr);
        EXPECT_EQ(wl->irregular(), info.irregular);
        EXPECT_EQ(wl->footprintBytes(), info.footprintMb * 1024 * 1024);
    }
}

TEST(Benchmarks, FootprintScaleMultiplies)
{
    const BenchmarkInfo &info = findBenchmark("bfs");
    auto wl = makeWorkload(info, 2.0);
    EXPECT_EQ(wl->footprintBytes(), info.footprintMb * 1024 * 1024 * 2);
}

TEST(Benchmarks, GeneratorsProduceValidInstructions)
{
    Rng rng(1);
    for (const auto &info : benchmarkSuite()) {
        auto wl = makeWorkload(info);
        for (int i = 0; i < 20; ++i) {
            WarpInstr instr = wl->next(SmId(i % 4), WarpId(i % 8), rng);
            ASSERT_GE(instr.activeLanes, 1u);
            ASSERT_LE(instr.activeLanes, 32u);
        }
    }
}

TEST(Benchmarks, ScalableSubsetIsIrregular)
{
    for (const auto *info : scalableSuite())
        EXPECT_TRUE(info->irregular) << info->abbr;
}

TEST(BenchmarksDeath, UnknownAbbreviationIsFatal)
{
    EXPECT_DEATH(findBenchmark("nope"), "unknown benchmark");
}

TEST(BenchmarksDeath, UnknownAbbreviationListsValidNames)
{
    // The diagnostic enumerates the registry so a typo is self-serviced.
    EXPECT_DEATH(findBenchmark("bsf"), "valid:.*bfs");
}

// A footprint scale too small for a benchmark ends in a fatal from the
// workload factory that names the benchmark, its scaled footprint and the
// footprint it needs.

TEST(BenchmarksDeath, FootprintBelowTheHotWindowIsFatal)
{
    EXPECT_DEATH(makeWorkload(findBenchmark("bfs"), 1e-4),
                 "benchmark 'bfs': its scaled footprint of 146381 bytes is "
                 "below the 1572864 bytes it needs");
}

TEST(BenchmarksDeath, ZeroFootprintIsFatal)
{
    for (const char *abbr : {"bfs", "gups", "2dc", "spmv", "nw", "xsb",
                             "gemm", "st2d", "histo"}) {
        EXPECT_DEATH(makeWorkload(findBenchmark(abbr), 1e-15),
                     std::string("benchmark '") + abbr +
                         "': its scaled footprint of 0 bytes");
    }
}

TEST(BenchmarksDeath, FootprintBelowOneCursorPartitionIsFatal)
{
    // 117 bytes would leave the warp cursors no 256-byte partition to
    // start on: a division by zero on the first instruction.
    EXPECT_DEATH(
        {
            auto wl = makeWorkload(findBenchmark("2dc"), 1e-7);
            Rng rng(1);
            wl->next(0, 0, rng);
        },
        "benchmark '2dc': its scaled footprint of 117 bytes is below the "
        "256 bytes it needs");
}

// A footprint past the 2^49-byte virtual address space would alias pages
// onto one PTE, and one past 2^64 bytes would not even convert: both end
// in a fatal that names the benchmark, its scaled size and the limit.

TEST(BenchmarksDeath, FootprintBeyondTheVirtualAddressSpaceIsFatal)
{
    EXPECT_DEATH(makeWorkload(findBenchmark("bfs"), 1e6),
                 "benchmark 'bfs': its scaled footprint of 1.46381e\\+15 "
                 "bytes exceeds the 2\\^49-byte virtual address space "
                 "\\(562932773552128 bytes above its heap base\\)");
    EXPECT_DEATH(makeWorkload(findBenchmark("bfs"), 1e12),
                 "benchmark 'bfs': its scaled footprint of 1.46381e\\+21 "
                 "bytes exceeds the 2\\^49-byte virtual address space");
    EXPECT_DEATH(makeWorkload(findBenchmark("gups"), 1e300),
                 "benchmark 'gups': its scaled footprint of .* bytes "
                 "exceeds the 2\\^49-byte virtual address space");
}

TEST(Benchmarks, FootprintFillingTheVirtualAddressSpaceRuns)
{
    // A footprint just inside the limit builds, and its addresses stay
    // below 2^kVirtAddrBits.
    const VirtAddr top = VirtAddr(1) << kVirtAddrBits;
    const std::uint64_t limit = top - SyntheticWorkload::kHeapBase;
    const BenchmarkInfo &info = findBenchmark("gups");
    const double scale = 0.999999 * double(limit) /
                         double(info.footprintMb * 1024 * 1024);
    auto wl = makeWorkload(info, scale);
    EXPECT_LE(wl->footprintBytes(), limit);
    EXPECT_GT(wl->footprintBytes(), limit / 2);
    Rng rng(1);
    for (int i = 0; i < 64; ++i) {
        WarpInstr instr = wl->next(SmId(i % 4), WarpId(i), rng);
        for (std::uint32_t lane = 0; lane < instr.activeLanes; ++lane)
            EXPECT_LT(instr.addrs[lane], top);
    }
}

TEST(Benchmarks, FindBenchmarkOrNull)
{
    ASSERT_NE(findBenchmarkOrNull("bfs"), nullptr);
    EXPECT_EQ(findBenchmarkOrNull("bfs")->abbr, "bfs");
    EXPECT_EQ(findBenchmarkOrNull("nope"), nullptr);
    EXPECT_EQ(findBenchmarkOrNull(""), nullptr);
}

} // namespace
