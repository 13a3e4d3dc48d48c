/** @file Unit & property tests for the synthetic workload generators. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "workload/generators.hh"

using namespace sw;

namespace {

constexpr std::uint64_t kMB = 1024 * 1024;
constexpr std::uint64_t kPage = 64 * 1024;

/** Count distinct 64 KB pages one instruction touches. */
std::size_t
distinctPages(const WarpInstr &instr)
{
    std::set<std::uint64_t> pages;
    for (std::uint32_t lane = 0; lane < instr.activeLanes; ++lane)
        pages.insert(instr.addrs[lane] / kPage);
    return pages.size();
}

TEST(StreamingWorkload, LanesAreContiguous)
{
    StreamingWorkload::Params params;
    StreamingWorkload wl("s", 64 * kMB, false, 10, params);
    Rng rng(1);
    WarpInstr instr = wl.next(0, 0, rng);
    for (std::uint32_t lane = 1; lane < 32; ++lane)
        EXPECT_EQ(instr.addrs[lane], instr.addrs[lane - 1] + 4);
    EXPECT_EQ(distinctPages(instr), 1u);
}

TEST(StreamingWorkload, CursorAdvances)
{
    StreamingWorkload::Params params;
    StreamingWorkload wl("s", 64 * kMB, false, 10, params);
    Rng rng(1);
    WarpInstr a = wl.next(0, 0, rng);
    WarpInstr b = wl.next(0, 0, rng);
    EXPECT_EQ(b.addrs[0], a.addrs[0] + 128);
}

TEST(StreamingWorkload, WarpsOnOneSmShareTheStream)
{
    StreamingWorkload::Params params;
    StreamingWorkload wl("s", 64 * kMB, false, 10, params);
    Rng rng(1);
    WarpInstr a = wl.next(0, 0, rng);
    WarpInstr b = wl.next(0, 5, rng);
    EXPECT_EQ(b.addrs[0], a.addrs[0] + 128) << "shared per-SM cursor";
}

TEST(StreamingWorkload, DistinctSmsHaveDistinctPartitions)
{
    StreamingWorkload::Params params;
    StreamingWorkload wl("s", 512 * kMB, false, 10, params);
    Rng rng(1);
    WarpInstr a = wl.next(0, 0, rng);
    WarpInstr b = wl.next(1, 0, rng);
    EXPECT_NE(a.addrs[0] / kPage, b.addrs[0] / kPage);
}

TEST(StreamingWorkload, MultiStreamRotates)
{
    StreamingWorkload::Params params;
    params.numStreams = 3;
    params.streamPitchBytes = 8 * kMB;
    StreamingWorkload wl("st", 64 * kMB, true, 10, params);
    Rng rng(1);
    std::set<std::uint64_t> pages;
    for (int i = 0; i < 9; ++i)
        pages.insert(wl.next(0, 0, rng).addrs[0] / kPage);
    EXPECT_GE(pages.size(), 3u);
}

TEST(StreamingWorkload, AddressesStayInFootprint)
{
    StreamingWorkload::Params params;
    params.strideBytes = 8 * 1024;
    StreamingWorkload wl("s", 16 * kMB, false, 10, params);
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        WarpInstr instr = wl.next(0, 0, rng);
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
            EXPECT_GE(instr.addrs[lane], 1ull << 34);
            EXPECT_LT(instr.addrs[lane], (1ull << 34) + 16 * kMB);
        }
    }
}

TEST(RandomAccessWorkload, FullyColdIsHighlyDivergent)
{
    RandomAccessWorkload wl("gups", 512 * kMB, 10, /*cold=*/1.0);
    Rng rng(1);
    WarpInstr instr = wl.next(0, 0, rng);
    EXPECT_TRUE(instr.write);
    EXPECT_GE(distinctPages(instr), 28u);
}

TEST(RandomAccessWorkload, HotRegionReducesDivergenceScope)
{
    RandomAccessWorkload wl("gups", 512 * kMB, 10, /*cold=*/0.0);
    Rng rng(1);
    std::set<std::uint64_t> pages;
    for (int i = 0; i < 50; ++i) {
        WarpInstr instr = wl.next(0, 0, rng);
        for (std::uint32_t lane = 0; lane < 32; ++lane)
            pages.insert(instr.addrs[lane] / kPage);
    }
    EXPECT_LE(pages.size(), 512u) << "static hot window bounds the reach";
}

TEST(GraphWorkload, GatherFractionZeroIsPureStream)
{
    GraphWorkload::Params params;
    params.gatherFraction = 0.0;
    params.pagesPerInstr = 0.1;
    GraphWorkload wl("g", 256 * kMB, true, 10, params);
    Rng rng(1);
    WarpInstr instr = wl.next(0, 0, rng);
    EXPECT_EQ(distinctPages(instr), 1u);
}

TEST(GraphWorkload, GatherBasesBoundDivergence)
{
    GraphWorkload::Params params;
    params.gatherFraction = 1.0;
    params.gatherBases = 4;
    params.pagesPerInstr = 0.5;
    GraphWorkload wl("g", 256 * kMB, true, 10, params);
    Rng rng(1);
    WarpInstr instr = wl.next(0, 0, rng);
    EXPECT_LE(distinctPages(instr), 8u) << "4 bases, runs may straddle";
}

TEST(GraphWorkload, WindowSlidesWithInstructions)
{
    GraphWorkload::Params params;
    params.gatherFraction = 1.0;
    params.windowPages = 4;
    params.pagesPerInstr = 2.0;
    GraphWorkload wl("g", 256 * kMB, true, 10, params);
    Rng rng(1);
    std::set<std::uint64_t> early, late;
    for (int i = 0; i < 5; ++i) {
        WarpInstr instr = wl.next(0, 0, rng);
        for (std::uint32_t lane = 0; lane < 4; ++lane)
            early.insert(instr.addrs[lane] / kPage);
    }
    for (int i = 0; i < 200; ++i)
        wl.next(0, 0, rng);
    for (int i = 0; i < 5; ++i) {
        WarpInstr instr = wl.next(0, 0, rng);
        for (std::uint32_t lane = 0; lane < 4; ++lane)
            late.insert(instr.addrs[lane] / kPage);
    }
    // After 200 instructions at 2 pages/instr the window moved far away.
    for (std::uint64_t page : late)
        EXPECT_EQ(early.count(page), 0u);
}

TEST(GraphWorkload, ColdFractionEscapesWindow)
{
    GraphWorkload::Params params;
    params.gatherFraction = 1.0;
    params.coldFraction = 1.0;
    params.windowPages = 2;
    params.pagesPerInstr = 0.0;
    GraphWorkload wl("g", 1024 * kMB, true, 10, params);
    Rng rng(1);
    std::set<std::uint64_t> pages;
    for (int i = 0; i < 30; ++i) {
        WarpInstr instr = wl.next(0, 0, rng);
        for (std::uint32_t lane = 0; lane < 32; ++lane)
            pages.insert(instr.addrs[lane] / kPage);
    }
    EXPECT_GT(pages.size(), 100u);
}

TEST(SparseWorkload, SetStrideClustersGatherPages)
{
    SparseWorkload::Params params;
    params.gatherFraction = 1.0;
    params.setStridePages = 16;
    params.pagesPerInstr = 0.0;   // pure set-conflict mode
    SparseWorkload wl("spmv", 288 * kMB, 10, params);
    Rng rng(1);
    std::set<std::uint64_t> sets;
    for (int i = 0; i < 100; ++i) {
        WarpInstr instr = wl.next(0, 0, rng);
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
            std::uint64_t vpn = (instr.addrs[lane] - (1ull << 34)) / kPage;
            sets.insert(vpn % 64);   // RTX3070 L2 TLB has 64 sets
        }
    }
    EXPECT_LE(sets.size(), 4u)
        << "spmv gathers contend for a handful of L2 TLB sets";
}

TEST(SparseWorkload, MixedModeAlternatesStrideAndWindow)
{
    // With both a window slide and a set-stride configured, half the
    // gather bases stay set-clustered and half follow the sliding window.
    SparseWorkload::Params params;
    params.gatherFraction = 1.0;
    params.setStridePages = 16;
    params.pagesPerInstr = 2.0;
    SparseWorkload wl("spmv", 288 * kMB, 10, params);
    Rng rng(1);
    std::set<std::uint64_t> clustered_sets;
    std::size_t clustered = 0, total = 0;
    for (int i = 0; i < 200; ++i) {
        WarpInstr instr = wl.next(0, 0, rng);
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
            std::uint64_t vpn = (instr.addrs[lane] - (1ull << 34)) / kPage;
            ++total;
            if (vpn % 16 == 0) {
                ++clustered;
                clustered_sets.insert(vpn % 64);
            }
        }
    }
    EXPECT_GT(double(clustered) / double(total), 0.3);
    EXPECT_LE(clustered_sets.size(), 4u);
}

TEST(GraphWorkload, WindowSpreadScattersSlotsAcrossLargePages)
{
    GraphWorkload::Params params;
    params.gatherFraction = 1.0;
    params.windowPages = 16;
    params.pagesPerInstr = 0.0;
    GraphWorkload contiguous("g", 1024 * kMB, true, 10, params);
    GraphWorkload spread("g", 1024 * kMB, true, 10, params);
    spread.setWindowSpread(2 * kMB + 64 * 1024);

    Rng rng_a(1), rng_b(1);
    std::set<std::uint64_t> big_pages_contig, big_pages_spread;
    constexpr std::uint64_t kBig = 2 * kMB;
    for (int i = 0; i < 40; ++i) {
        WarpInstr a = contiguous.next(0, 0, rng_a);
        WarpInstr b = spread.next(0, 0, rng_b);
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
            big_pages_contig.insert(a.addrs[lane] / kBig);
            big_pages_spread.insert(b.addrs[lane] / kBig);
        }
    }
    // A contiguous 1 MB window fits in one or two 2 MB pages; the spread
    // window lands each 64 KB slot on its own 2 MB page.
    EXPECT_LE(big_pages_contig.size(), 2u);
    EXPECT_GE(big_pages_spread.size(), 10u);
}

TEST(GraphWorkload, WindowSpreadKeepsSmallPageCountSimilar)
{
    GraphWorkload::Params params;
    params.gatherFraction = 1.0;
    params.windowPages = 16;
    params.pagesPerInstr = 0.0;
    GraphWorkload contiguous("g", 1024 * kMB, true, 10, params);
    GraphWorkload spread("g", 1024 * kMB, true, 10, params);
    spread.setWindowSpread(2 * kMB + 64 * 1024);

    Rng rng_a(1), rng_b(1);
    std::set<std::uint64_t> pages_a, pages_b;
    for (int i = 0; i < 60; ++i) {
        WarpInstr a = contiguous.next(0, 0, rng_a);
        WarpInstr b = spread.next(0, 0, rng_b);
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
            pages_a.insert(a.addrs[lane] / kPage);
            pages_b.insert(b.addrs[lane] / kPage);
        }
    }
    // 64 KB translation behaviour is unchanged: same window slot count.
    EXPECT_NEAR(double(pages_a.size()), double(pages_b.size()),
                double(pages_a.size()) * 0.4 + 4);
}

TEST(WavefrontWorkload, LanesSpreadAcrossBand)
{
    WavefrontWorkload::Params params;
    params.windowPages = 32;
    WavefrontWorkload wl("nw", 612 * kMB, 10, params);
    Rng rng(1);
    WarpInstr instr = wl.next(0, 0, rng);
    EXPECT_GE(distinctPages(instr), 16u)
        << "anti-diagonal lanes land on distinct rows/pages";
}

TEST(HashProbeWorkload, ProbesClusterIntoGroups)
{
    HashProbeWorkload wl("xsb", 360 * kMB, 10, 0.0, 28, 1.0);
    Rng rng(1);
    WarpInstr instr = wl.next(0, 0, rng);
    EXPECT_LE(distinctPages(instr), 10u);
    EXPECT_GE(distinctPages(instr), 2u);
}

TEST(HistogramWorkload, AlternatesStreamAndTablePhases)
{
    HistogramWorkload wl("h", 512 * kMB, 10, /*table=*/1 * kMB);
    Rng rng(1);
    bool saw_write = false, saw_read = false;
    for (int i = 0; i < 64; ++i) {
        WarpInstr instr = wl.next(0, 0, rng);
        (instr.write ? saw_write : saw_read) = true;
    }
    EXPECT_TRUE(saw_write);
    EXPECT_TRUE(saw_read);
}

TEST(PointerChaseWorkload, OneActiveLane)
{
    PointerChaseWorkload wl(128 * kMB);
    Rng rng(1);
    WarpInstr instr = wl.next(0, 0, rng);
    EXPECT_EQ(instr.activeLanes, 1u);
    EXPECT_EQ(instr.addrs[0] % 128, 0u) << "distinct cache lines (Fig 4)";
}

TEST(PointerChaseWorkload, AddressesAreScattered)
{
    PointerChaseWorkload wl(512 * kMB);
    Rng rng(1);
    std::set<std::uint64_t> pages;
    for (int i = 0; i < 100; ++i)
        pages.insert(wl.next(0, 0, rng).addrs[0] / kPage);
    EXPECT_GT(pages.size(), 90u);
}

TEST(SyntheticWorkloadDeath, ZeroFootprintRejected)
{
    StreamingWorkload::Params params;
    EXPECT_DEATH(StreamingWorkload("bad", 0, false, 1, params),
                 "footprint");
}

/** Property: every generator keeps addresses element-aligned and inside
 *  [heap, heap+footprint). */
class GeneratorBounds : public ::testing::TestWithParam<int>
{
  public:
    static std::unique_ptr<Workload>
    make(int kind)
    {
        switch (kind) {
          case 0: {
            StreamingWorkload::Params params;
            return std::make_unique<StreamingWorkload>("s", 128 * kMB,
                                                       false, 5, params);
          }
          case 1:
            return std::make_unique<RandomAccessWorkload>("r", 128 * kMB,
                                                          5, 0.5);
          case 2: {
            GraphWorkload::Params params;
            params.pagesPerInstr = 0.5;
            return std::make_unique<GraphWorkload>("g", 128 * kMB, true,
                                                   5, params);
          }
          case 3: {
            SparseWorkload::Params params;
            params.pagesPerInstr = 1.0;
            return std::make_unique<SparseWorkload>("sp", 128 * kMB, 5,
                                                    params);
          }
          case 4:
            return std::make_unique<HashProbeWorkload>("x", 128 * kMB, 5);
          case 5: {
            WavefrontWorkload::Params params;
            return std::make_unique<WavefrontWorkload>("w", 128 * kMB, 5,
                                                       params);
          }
          default:
            return std::make_unique<HistogramWorkload>("h", 128 * kMB, 5);
        }
    }
};

TEST_P(GeneratorBounds, AddressesInBounds)
{
    auto wl = make(GetParam());
    Rng rng(123);
    constexpr VirtAddr heap = 1ull << 34;
    for (int i = 0; i < 500; ++i) {
        WarpInstr instr = wl->next(SmId(i % 4), WarpId(i % 8), rng);
        ASSERT_GE(instr.activeLanes, 1u);
        ASSERT_LE(instr.activeLanes, 32u);
        for (std::uint32_t lane = 0; lane < instr.activeLanes; ++lane) {
            ASSERT_GE(instr.addrs[lane], heap);
            ASSERT_LT(instr.addrs[lane], heap + 130 * kMB)
                << "generator " << GetParam();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, GeneratorBounds,
                         ::testing::Range(0, 7));

// ---- Differential: the lane offsets against the % formulation ----------
//
// Each generator steps its lane offsets modulo the footprint with one
// conditional subtract a lane.  The reference generators below keep the
// formulation that divides for every lane; they draw from the shared
// SyntheticWorkload helpers exactly as the generators do, so with equal
// parameters and equal Rng seeds the two address streams must be equal.

/** Old StreamingWorkload::next(). */
class RefStreaming : public SyntheticWorkload
{
  public:
    RefStreaming(std::uint64_t footprint_bytes,
                 StreamingWorkload::Params params)
        : SyntheticWorkload("ref", footprint_bytes, false, 5), p(params)
    {
    }

    WarpInstr
    next(SmId sm, WarpId, Rng &) override
    {
        std::uint64_t &pos = sharedCursor(sm);
        WarpInstr instr;
        instr.computeGap = computeGap;
        instr.activeLanes = 32;
        std::uint64_t stream = (pos / (32 * p.elemBytes)) % p.numStreams;
        std::uint64_t stream_offset = stream * p.streamPitchBytes;
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
            std::uint64_t offset =
                (pos + stream_offset + lane * p.elemBytes) % footprint;
            instr.addrs[lane] = kHeapBase + offset;
        }
        pos = (pos + 32 * p.elemBytes + p.strideBytes) % footprint;
        return instr;
    }

  private:
    StreamingWorkload::Params p;
};

/** Old GraphWorkload::next() and SparseWorkload::next(). */
template <typename Params, bool kSparse>
class RefGather : public SyntheticWorkload
{
  public:
    RefGather(std::uint64_t footprint_bytes, Params params)
        : SyntheticWorkload("ref", footprint_bytes, true, 5), p(params)
    {
        initWindow(p.windowPages, p.pagesPerInstr);
    }

    WarpInstr
    next(SmId sm, WarpId, Rng &rng) override
    {
        windowTick(sm);
        std::uint64_t &pos = sharedCursor(sm);
        WarpInstr instr;
        instr.computeGap = computeGap;
        instr.activeLanes = 32;
        std::uint32_t num_bases = std::max<std::uint32_t>(1, p.gatherBases);
        VirtAddr bases[32];
        for (std::uint32_t b = 0; b < num_bases; ++b)
            bases[b] = base(sm, b, rng);
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
            if (rng.uniform() < p.gatherFraction) {
                instr.addrs[lane] = bases[lane % num_bases] +
                    (lane / num_bases) * p.elemBytes;
            } else {
                std::uint64_t offset =
                    (pos + lane * p.elemBytes) % footprint;
                instr.addrs[lane] = kHeapBase + offset;
            }
        }
        pos = (pos + 32 * p.elemBytes) % footprint;
        return instr;
    }

  private:
    VirtAddr
    base(SmId sm, std::uint32_t b, Rng &rng)
    {
        if constexpr (kSparse) {
            std::uint64_t page = p.pageBytesHint;
            std::uint64_t pages = std::max<std::uint64_t>(1, footprint / page);
            if (p.setStridePages > 0 &&
                (p.pagesPerInstr <= 0.0 || b % 2 == 0)) {
                std::uint64_t cluster = pages / p.setStridePages;
                std::uint64_t k =
                    rng.range(std::max<std::uint64_t>(1, cluster));
                std::uint64_t target_page = (k * p.setStridePages) % pages;
                std::uint64_t in_page =
                    rng.range(page / p.elemBytes) * p.elemBytes;
                return kHeapBase + target_page * page + in_page;
            }
        }
        if (p.coldFraction > 0.0 && rng.uniform() < p.coldFraction)
            return randomAddr(rng, p.elemBytes);
        return windowAddr(sm, rng, p.elemBytes);
    }

    Params p;
};

/** Old HashProbeWorkload::next(). */
class RefHashProbe : public SyntheticWorkload
{
  public:
    RefHashProbe(std::uint64_t footprint_bytes, double seq_fraction,
                 std::uint64_t window_pages, double pages_per_instr)
        : SyntheticWorkload("ref", footprint_bytes, true, 5),
          seqFraction(seq_fraction)
    {
        initWindow(window_pages, pages_per_instr);
    }

    WarpInstr
    next(SmId sm, WarpId, Rng &rng) override
    {
        windowTick(sm);
        std::uint64_t &pos = sharedCursor(sm);
        WarpInstr instr;
        instr.computeGap = computeGap;
        instr.activeLanes = 32;
        VirtAddr bases[8];
        for (VirtAddr &base : bases)
            base = windowAddr(sm, rng, 16);
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
            if (rng.uniform() < seqFraction) {
                std::uint64_t offset = (pos + lane * 8) % footprint;
                instr.addrs[lane] = kHeapBase + offset;
            } else {
                instr.addrs[lane] = bases[lane % 8] + (lane / 8) * 16;
            }
        }
        pos = (pos + 32 * 8) % footprint;
        return instr;
    }

  private:
    double seqFraction;
};

/** Old WavefrontWorkload::next(). */
class RefWavefront : public SyntheticWorkload
{
  public:
    RefWavefront(std::uint64_t footprint_bytes,
                 WavefrontWorkload::Params params)
        : SyntheticWorkload("ref", footprint_bytes, true, 5), p(params)
    {
        initWindow(p.windowPages, p.pagesPerInstr);
    }

    WarpInstr
    next(SmId sm, WarpId warp, Rng &rng) override
    {
        windowTick(sm);
        std::uint64_t &diag = cursor(sm, warp);
        WarpInstr instr;
        instr.computeGap = computeGap;
        instr.activeLanes = 32;
        std::uint64_t lane_pitch = (p.windowPages * kWindowPageBytes) / 32;
        VirtAddr band = windowAddr(sm, rng, p.elemBytes);
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
            std::uint64_t offset = (band - kHeapBase + lane * lane_pitch +
                                    (diag % lane_pitch)) % footprint;
            instr.addrs[lane] = kHeapBase + offset;
        }
        diag = (diag + p.elemBytes * 32) % footprint;
        return instr;
    }

  private:
    WavefrontWorkload::Params p;
};

/** Old HistogramWorkload::next(). */
class RefHistogram : public SyntheticWorkload
{
  public:
    RefHistogram(std::uint64_t footprint_bytes, std::uint64_t table_bytes)
        : SyntheticWorkload("ref", footprint_bytes, false, 5),
          tableBytes(table_bytes)
    {
    }

    WarpInstr
    next(SmId sm, WarpId, Rng &rng) override
    {
        std::uint64_t &pos = sharedCursor(sm);
        WarpInstr instr;
        instr.computeGap = computeGap;
        instr.activeLanes = 32;
        if ((pos / 128) % 2 == 1) {
            instr.write = true;
            for (std::uint32_t lane = 0; lane < 32; ++lane)
                instr.addrs[lane] = kHeapBase + rng.range(tableBytes / 4) * 4;
        } else {
            for (std::uint32_t lane = 0; lane < 32; ++lane) {
                std::uint64_t offset = (pos + lane * 4) % footprint;
                instr.addrs[lane] = kHeapBase + tableBytes + offset;
            }
        }
        pos = (pos + 32 * 4) % footprint;
        return instr;
    }

  private:
    std::uint64_t tableBytes;
};

/**
 * Random parameters that stress the reduction: footprints that are not
 * powers of two, and element sizes and strides that are small, arbitrary
 * or at least the footprint.  Lane offsets stay below 2^32 so the
 * reference's 32-bit lane products do not wrap.
 */
struct DiffParams
{
    explicit DiffParams(Rng &rng, std::uint64_t min_footprint)
    {
        footprint = min_footprint + rng.range(1ull << 24);
        switch (rng.range(3)) {
          case 0:
            elemBytes = std::uint32_t(4 << rng.range(2));
            break;
          case 1:
            elemBytes = std::uint32_t(1 + rng.range(4096));
            break;
          default:   // an element at least the footprint
            elemBytes = std::uint32_t(footprint + rng.range(footprint));
            break;
        }
        stride = rng.range(2) ? rng.range(3 * footprint) + footprint
                              : rng.range(4096);
    }

    std::uint64_t footprint;
    std::uint32_t elemBytes;
    std::uint64_t stride;
};

void
expectSameStream(Workload &got, Workload &want, std::uint64_t seed,
                 const std::string &what)
{
    Rng got_rng(seed);
    Rng want_rng(seed);
    for (int i = 0; i < 400; ++i) {
        SmId sm = SmId(i % 3);
        WarpId warp = WarpId(i % 5);
        WarpInstr a = got.next(sm, warp, got_rng);
        WarpInstr b = want.next(sm, warp, want_rng);
        ASSERT_EQ(a.computeGap, b.computeGap) << what << " call " << i;
        ASSERT_EQ(a.activeLanes, b.activeLanes) << what << " call " << i;
        ASSERT_EQ(a.write, b.write) << what << " call " << i;
        ASSERT_EQ(a.addrs, b.addrs) << what << " call " << i;
    }
}

TEST(GeneratorDifferential, LaneOffsetsMatchThePerLaneModulo)
{
    Rng rng(0xd1ff);
    bool big_elem = false;
    bool big_stride = false;
    bool odd_footprint = false;
    for (int trial = 0; trial < 40; ++trial) {
        const std::string what = "trial " + std::to_string(trial);
        const std::uint64_t seed = 1000 + std::uint64_t(trial);
        const std::uint64_t window_pages = 1 + rng.range(4);
        const double slide = rng.range(2) ? 0.25 : 0.0;
        DiffParams d(rng, window_pages * kPage);
        big_elem = big_elem || d.elemBytes >= d.footprint;
        big_stride = big_stride || d.stride >= d.footprint;
        odd_footprint = odd_footprint || (d.footprint & (d.footprint - 1));

        StreamingWorkload::Params sp;
        sp.elemBytes = d.elemBytes;
        sp.strideBytes = d.stride;
        sp.numStreams = std::uint32_t(1 + rng.range(3));
        sp.streamPitchBytes = rng.range(2 * d.footprint);
        StreamingWorkload streaming("s", d.footprint, false, 5, sp);
        RefStreaming ref_streaming(d.footprint, sp);
        expectSameStream(streaming, ref_streaming, seed, "streaming " + what);

        GraphWorkload::Params gp;
        gp.windowPages = window_pages;
        gp.pagesPerInstr = slide;
        gp.gatherFraction = 0.5;
        gp.coldFraction = 0.1;
        gp.gatherBases = std::uint32_t(1 + rng.range(32));
        gp.elemBytes = d.elemBytes;
        GraphWorkload graph("g", d.footprint, true, 5, gp);
        RefGather<GraphWorkload::Params, false> ref_graph(d.footprint, gp);
        expectSameStream(graph, ref_graph, seed, "graph " + what);

        SparseWorkload::Params pp;
        pp.windowPages = window_pages;
        pp.pagesPerInstr = slide;
        pp.gatherFraction = 0.5;
        pp.coldFraction = 0.1;
        pp.gatherBases = std::uint32_t(1 + rng.range(32));
        pp.setStridePages = rng.range(3);
        pp.elemBytes = d.elemBytes;
        SparseWorkload sparse("p", d.footprint, 5, pp);
        RefGather<SparseWorkload::Params, true> ref_sparse(d.footprint, pp);
        expectSameStream(sparse, ref_sparse, seed, "sparse " + what);

        HashProbeWorkload probe("x", d.footprint, 5, 0.5, window_pages,
                                slide);
        RefHashProbe ref_probe(d.footprint, 0.5, window_pages, slide);
        expectSameStream(probe, ref_probe, seed, "hash probe " + what);

        WavefrontWorkload::Params wp;
        wp.windowPages = window_pages;
        wp.pagesPerInstr = slide;
        wp.elemBytes = d.elemBytes;
        WavefrontWorkload wave("w", d.footprint, 5, wp);
        RefWavefront ref_wave(d.footprint, wp);
        expectSameStream(wave, ref_wave, seed, "wavefront " + what);

        std::uint64_t table = 4 + rng.range(1u << 20);
        HistogramWorkload histo("h", d.footprint, 5, table);
        RefHistogram ref_histo(d.footprint, table);
        expectSameStream(histo, ref_histo, seed, "histogram " + what);
    }
    // The draws covered every case the reduction must get right.
    EXPECT_TRUE(big_elem);
    EXPECT_TRUE(big_stride);
    EXPECT_TRUE(odd_footprint);
}

} // namespace
