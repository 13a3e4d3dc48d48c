/** @file Unit tests for the sectored non-blocking cache model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "ckpt/ckpt_io.hh"
#include "mem/cache.hh"
#include "sim/rng.hh"
#include "test_util.hh"

using namespace sw;

namespace {

/** Fixed-latency "memory" below a cache under test. */
struct ScriptedBelow : Cache::Below
{
    explicit ScriptedBelow(EventQueue &queue) : eq(queue) {}

    void
    fetch(Cache &from, const Request &missed) override
    {
        ++accesses;
        Cache *cache = &from;
        PhysAddr addr = missed.addr;
        eq.scheduleIn(latency, [cache, addr]() { cache->fill(addr); });
    }

    EventQueue &eq;
    Cycle latency = 100;
    int accesses = 0;
};

/** Fixture: a small cache over a scripted "memory" with fixed latency. */
class CacheTest : public ::testing::Test
{
  protected:
    CacheTest() : client(pool, {Done::SmAccess}), below(eq) {}

    Cache::Params
    smallParams()
    {
        Cache::Params params;
        params.name = "test";
        params.sizeBytes = 4 * 1024;   // 32 lines of 128 B
        params.ways = 4;
        params.lineBytes = 128;
        params.sectorBytes = 32;
        params.latency = 10;
        params.mshrEntries = 4;
        params.maxMergesPerMshr = 4;
        return params;
    }

    std::unique_ptr<Cache>
    makeCache(Cache::Params params, Cycle mem_latency = 100)
    {
        below.latency = mem_latency;
        return std::make_unique<Cache>(eq, params, pool, below);
    }

    /** Issue one access; @p done runs when it completes. */
    void
    access(Cache &cache, PhysAddr addr, bool write,
           std::function<void()> done)
    {
        cache.access(client.issue({.addr = addr, .write = write},
                                  [done = std::move(done)](const Request &) {
                                      done();
                                  }));
    }

    /** Issue access number @p tag; its (tag, cycle) lands in `order`. */
    void
    tagged(Cache &cache, PhysAddr addr, int tag)
    {
        access(cache, addr, false,
               [this, tag]() { order.emplace_back(tag, eq.now()); });
    }

    /** Blocking helper: access and run until completion; returns latency. */
    Cycle
    accessAndWait(Cache &cache, PhysAddr addr, bool write = false)
    {
        Cycle start = eq.now();
        bool done = false;
        access(cache, addr, write, [&]() { done = true; });
        while (!done && eq.runOne()) {
        }
        return eq.now() - start;
    }

    EventQueue eq;
    RequestPool pool;
    test::RequestClient client;
    ScriptedBelow below;
    const int &memAccesses = below.accesses;
    std::vector<std::pair<int, Cycle>> order;
};

TEST_F(CacheTest, ColdMissGoesToMemory)
{
    auto cache = makeCache(smallParams());
    Cycle latency = accessAndWait(*cache, 0x1000);
    EXPECT_EQ(memAccesses, 1);
    EXPECT_EQ(cache->stats().misses, 1u);
    EXPECT_GE(latency, 110u);   // lookup + memory
}

TEST_F(CacheTest, SecondAccessHits)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, 0x1000);
    Cycle latency = accessAndWait(*cache, 0x1000);
    EXPECT_EQ(cache->stats().hits, 1u);
    EXPECT_EQ(latency, 10u);    // hit latency only
    EXPECT_EQ(memAccesses, 1);
}

TEST_F(CacheTest, DifferentSectorSameLineIsSectorMiss)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, 0x1000);
    accessAndWait(*cache, 0x1000 + 32);   // next sector, same 128 B line
    EXPECT_EQ(cache->stats().sectorMisses, 1u);
    EXPECT_EQ(cache->stats().misses, 2u);
    EXPECT_EQ(memAccesses, 2);
}

TEST_F(CacheTest, SameSectorDifferentOffsetHits)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, 0x1000);
    Cycle latency = accessAndWait(*cache, 0x1000 + 8);
    EXPECT_EQ(latency, 10u);
    EXPECT_EQ(cache->stats().hits, 1u);
}

TEST_F(CacheTest, ConcurrentMissesToSameSectorMerge)
{
    auto cache = makeCache(smallParams());
    int done = 0;
    access(*cache, 0x2000, false, [&]() { ++done; });
    access(*cache, 0x2000, false, [&]() { ++done; });
    access(*cache, 0x2008, false, [&]() { ++done; });
    eq.run();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(memAccesses, 1);
    EXPECT_EQ(cache->stats().mshrMerges, 2u);
}

TEST_F(CacheTest, MshrFileFullParksRequests)
{
    Cache::Params params = smallParams();
    params.mshrEntries = 2;
    auto cache = makeCache(params);
    int done = 0;
    // Three distinct sectors: third must wait for an MSHR.
    access(*cache, 0x0000, false, [&]() { ++done; });
    access(*cache, 0x1000, false, [&]() { ++done; });
    access(*cache, 0x2000, false, [&]() { ++done; });
    eq.run();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(cache->stats().mshrFailures, 1u);
    EXPECT_EQ(memAccesses, 3);
}

TEST_F(CacheTest, MergeCapacityExhaustedParksAndEventuallyCompletes)
{
    Cache::Params params = smallParams();
    params.maxMergesPerMshr = 2;
    auto cache = makeCache(params);
    int done = 0;
    for (int i = 0; i < 6; ++i)
        access(*cache, 0x3000, false, [&]() { ++done; });
    eq.run();
    EXPECT_EQ(done, 6);
    EXPECT_GT(cache->stats().mshrFailures, 0u);
}

TEST_F(CacheTest, MergedWaitersCompleteInArrivalOrder)
{
    auto cache = makeCache(smallParams());
    tagged(*cache, 0x2000, 0);   // allocates the 0x2000 MSHR
    tagged(*cache, 0x3000, 1);   // allocates the 0x3000 MSHR
    tagged(*cache, 0x2000, 2);   // merges
    tagged(*cache, 0x2008, 3);   // same sector: merges
    eq.run();
    // Both fills land at 10 + 100; 0x2000 was fetched first and wakes its
    // waiters in arrival order before 0x3000's.
    std::vector<std::pair<int, Cycle>> expect = {
        {0, 110}, {2, 110}, {3, 110}, {1, 110}};
    EXPECT_EQ(order, expect);
    EXPECT_EQ(cache->stats().mshrMerges, 2u);
    EXPECT_EQ(pool.live(), 0u);
}

TEST_F(CacheTest, ParkedRetriesStopWhenTheQueueMakesNoProgress)
{
    Cache::Params params = smallParams();
    params.mshrEntries = 2;
    params.maxMergesPerMshr = 1;   // every second request to a sector parks
    auto cache = makeCache(params);
    tagged(*cache, 0x0000, 0);     // A: MSHR, filled at 110
    eq.schedule(50, [&]() {
        tagged(*cache, 0x1000, 1); // B: MSHR, filled at 160
        tagged(*cache, 0x1000, 2); // B merge-full: parks
        tagged(*cache, 0x2000, 3); // C: MSHR file full: parks
    });
    eq.run();
    // At 110 A's fill frees an MSHR, but the head retry (2) re-parks on
    // B's merge-full MSHR: no progress, so C is not retried until B's fill
    // at 160, which fetches C (filled at 260) and lets 2 hit.
    std::vector<std::pair<int, Cycle>> expect = {
        {0, 110}, {1, 160}, {2, 160}, {3, 260}};
    EXPECT_EQ(order, expect);
    EXPECT_EQ(cache->stats().mshrFailures, 3u);
    EXPECT_EQ(cache->waitingForMshrCount(), 0u);
    EXPECT_EQ(pool.live(), 0u);
}

TEST_F(CacheTest, LruEvictionOnSetOverflow)
{
    Cache::Params params = smallParams();
    auto cache = makeCache(params);
    // 8 sets; lines mapping to set 0 are 1024 B apart.
    for (PhysAddr i = 0; i < 5; ++i)
        accessAndWait(*cache, i * 1024);
    EXPECT_EQ(cache->stats().evictions, 1u);
    // The first line (LRU victim) is gone; the others are resident.
    EXPECT_FALSE(cache->isResident(0));
    EXPECT_TRUE(cache->isResident(4 * 1024));
}

TEST_F(CacheTest, LruKeepsRecentlyUsed)
{
    auto cache = makeCache(smallParams());
    for (PhysAddr i = 0; i < 4; ++i)
        accessAndWait(*cache, i * 1024);
    accessAndWait(*cache, 0);          // refresh line 0
    accessAndWait(*cache, 4 * 1024);   // evicts line 1, not 0
    EXPECT_TRUE(cache->isResident(0));
    EXPECT_FALSE(cache->isResident(1024));
}

TEST_F(CacheTest, FlushInvalidatesAll)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, 0x1000);
    cache->flush();
    EXPECT_FALSE(cache->isResident(0x1000));
    accessAndWait(*cache, 0x1000);
    EXPECT_EQ(cache->stats().misses, 2u);
}

TEST_F(CacheTest, WritesAllocateLikeReads)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, 0x1000, /*write=*/true);
    EXPECT_TRUE(cache->isResident(0x1000));
    Cycle latency = accessAndWait(*cache, 0x1000, /*write=*/false);
    EXPECT_EQ(latency, 10u);
}

TEST_F(CacheTest, StatsResetZeroesCounters)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, 0x1000);
    cache->resetStats();
    EXPECT_EQ(cache->stats().accesses, 0u);
    EXPECT_EQ(cache->stats().misses, 0u);
    // Contents survive the reset.
    EXPECT_TRUE(cache->isResident(0x1000));
}

TEST_F(CacheTest, MissRateComputation)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, 0x1000);
    accessAndWait(*cache, 0x1000);
    accessAndWait(*cache, 0x1000);
    EXPECT_NEAR(cache->stats().missRate(), 1.0 / 3.0, 1e-9);
}

TEST_F(CacheTest, TopLineOfTheAddressSpaceSurvivesACheckpoint)
{
    auto cache = makeCache(smallParams());
    const PhysAddr top = ~PhysAddr(0) - 127;   // the last 128 B line
    accessAndWait(*cache, top);
    CkptWriter w;
    cache->saveState(w);
    auto restored = makeCache(smallParams());
    CkptReader r(w.bytes().data(), w.size());
    restored->restoreState(r);
    EXPECT_TRUE(restored->isResident(top));
    EXPECT_FALSE(restored->isResident(top - 128));
}

TEST_F(CacheTest, RestoredTagPastTheTopLineIsFatal)
{
    auto cache = makeCache(smallParams());
    accessAndWait(*cache, ~PhysAddr(0) - 127);
    CkptWriter w;
    cache->saveState(w);
    // "cache", "test", u32 lines, u32 valid, u32 index, then the u64 tag
    // of the one valid line: the largest a physical address produces.
    std::vector<std::uint8_t> bytes = w.bytes();
    const std::size_t tag_at = (4 + 5) + (4 + 4) + 4 + 4 + 4;
    std::uint64_t tag = 0;
    for (std::size_t i = 0; i < 8; ++i)
        tag |= std::uint64_t(bytes[tag_at + i]) << (8 * i);
    ++tag;
    for (std::size_t i = 0; i < 8; ++i)
        bytes[tag_at + i] = std::uint8_t(tag >> (8 * i));
    auto restored = makeCache(smallParams());
    CkptReader r(bytes.data(), bytes.size());
    EXPECT_DEATH(restored->restoreState(r),
                 "'test' line [0-9]+: tag 0x40000000000000 overflows");
}

/**
 * Property sweep: for any (ways, sectors) the cache stays consistent.  The
 * cache holds 64 / ways sets, so ways that do not divide 64 give set
 * counts that are not powers of two.
 */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{
};

TEST_P(CacheGeometry, FillThenProbeConsistent)
{
    auto [ways, sector] = GetParam();
    const std::uint32_t sets = 64 / ways;
    const PhysAddr set_stride = PhysAddr(sets) * 128;
    EventQueue eq;
    Cache::Params params;
    params.sizeBytes = set_stride * ways;
    params.ways = ways;
    params.lineBytes = 128;
    params.sectorBytes = sector;
    params.latency = 1;
    params.mshrEntries = 64;
    RequestPool pool;
    test::RequestClient client(pool, {Done::SmAccess});
    ScriptedBelow below(eq);
    below.latency = 5;
    Cache cache(eq, params, pool, below);
    // Touch a set-worth of lines; all must be resident afterwards.
    for (std::uint32_t i = 0; i < ways; ++i) {
        cache.access(client.issue({.addr = i * set_stride}));
        eq.run();
        ASSERT_EQ(client.completed, i + 1);
    }
    for (std::uint32_t i = 0; i < ways; ++i)
        EXPECT_TRUE(cache.isResident(i * set_stride));
    EXPECT_EQ(cache.stats().evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(32u, 64u, 128u)));

// 21, 12 and 5 sets.
INSTANTIATE_TEST_SUITE_P(
    OddSetCounts, CacheGeometry,
    ::testing::Combine(::testing::Values(3u, 5u, 12u),
                       ::testing::Values(32u, 128u)));

/**
 * Reference model: the tag store Cache kept before its compact layout.
 * One Line struct per way, addresses split with divisions, la / sets as
 * the tag; access() is that version's demand lookup followed, on a miss,
 * by its install (a sequential stream fills each miss before the next
 * access).  saveState() writes the checkpoint section that version wrote.
 */
class LineArrayModel
{
  public:
    explicit LineArrayModel(const Cache::Params &params)
        : name(params.name), ways(params.ways),
          lineBytes(params.lineBytes), sectorBytes(params.sectorBytes),
          sectorsPerLine(params.lineBytes / params.sectorBytes),
          numSets(params.sizeBytes / params.lineBytes / params.ways),
          lines(params.sizeBytes / params.lineBytes)
    {
    }

    void
    access(PhysAddr addr)
    {
        ++stats.accesses;
        std::uint64_t la = addr / lineBytes;
        std::uint64_t set = la % numSets;
        std::uint64_t tag = la / numSets;
        for (std::uint32_t w = 0; w < ways; ++w) {
            Line &line = lines[set * ways + w];
            if (line.valid && line.tag == tag) {
                if (line.sectorMask & sectorBit(addr)) {
                    ++stats.hits;
                    line.lruTick = ++lruCounter;
                    return;
                }
                ++stats.sectorMisses;
                break;
            }
        }
        ++stats.misses;
        install(addr);
    }

    bool
    isResident(PhysAddr addr) const
    {
        std::uint64_t la = addr / lineBytes;
        std::uint64_t set = la % numSets;
        for (std::uint32_t w = 0; w < ways; ++w) {
            const Line &line = lines[set * ways + w];
            if (line.valid && line.tag == la / numSets &&
                (line.sectorMask & sectorBit(addr)))
                return true;
        }
        return false;
    }

    void
    saveState(CkptWriter &w) const
    {
        w.section("cache");
        w.str(name);
        std::uint32_t valid = 0;
        for (const Line &line : lines)
            valid += line.valid ? 1 : 0;
        w.u32(std::uint32_t(lines.size()));
        w.u32(valid);
        for (std::uint32_t i = 0; i < lines.size(); ++i) {
            if (!lines[i].valid)
                continue;
            w.u32(i);
            w.u64(lines[i].tag);
            w.u32(lines[i].sectorMask);
            w.u64(lines[i].lruTick);
        }
        w.u64(lruCounter);
        w.u64(stats.accesses);
        w.u64(stats.hits);
        w.u64(stats.misses);
        w.u64(stats.sectorMisses);
        w.u64(stats.mshrMerges);
        w.u64(stats.mshrFailures);
        w.u64(stats.evictions);
    }

    Cache::Stats stats;

  private:
    struct Line
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint32_t sectorMask = 0;   ///< bit per resident sector
        std::uint64_t lruTick = 0;
    };

    std::uint32_t
    sectorBit(PhysAddr addr) const
    {
        return 1u << ((addr / sectorBytes) % sectorsPerLine);
    }

    void
    install(PhysAddr addr)
    {
        std::uint64_t la = addr / lineBytes;
        std::uint64_t set = la % numSets;
        std::uint64_t tag = la / numSets;
        // Existing line: just set the sector bit.
        for (std::uint32_t w = 0; w < ways; ++w) {
            Line &line = lines[set * ways + w];
            if (line.valid && line.tag == tag) {
                line.sectorMask |= sectorBit(addr);
                line.lruTick = ++lruCounter;
                return;
            }
        }
        // Pick invalid way, else LRU victim.
        Line *victim = nullptr;
        for (std::uint32_t w = 0; w < ways; ++w) {
            Line &line = lines[set * ways + w];
            if (!line.valid) {
                victim = &line;
                break;
            }
            if (!victim || line.lruTick < victim->lruTick)
                victim = &line;
        }
        if (victim->valid)
            ++stats.evictions;
        victim->valid = true;
        victim->tag = tag;
        victim->sectorMask = sectorBit(addr);
        victim->lruTick = ++lruCounter;
    }

    std::string name;
    std::uint32_t ways;
    std::uint32_t lineBytes;
    std::uint32_t sectorBytes;
    std::uint32_t sectorsPerLine;
    std::uint64_t numSets;
    std::vector<Line> lines;
    std::uint64_t lruCounter = 0;
};

/** Byte offset of the first difference between two images, or -1. */
std::ptrdiff_t
firstDifference(const std::vector<std::uint8_t> &a,
                const std::vector<std::uint8_t> &b)
{
    auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    return ia == a.end() && ib == b.end() ? -1 : ia - a.begin();
}

/** ((sets, ways), sector bytes) of a 128 B-line cache. */
class CacheDifferential
    : public ::testing::TestWithParam<
          std::tuple<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t>>
{
};

/**
 * Cache against the reference model on a seeded stream of 100k sequential
 * accesses: half to a hot half-capacity region (hits and sector misses),
 * half over four times the capacity (misses and evictions).  Counters and
 * residency must agree after every access; checkpoint sections, which
 * record the way each line sits in, every 1000 accesses and at the end.
 */
TEST_P(CacheDifferential, MatchesTheLineArrayModel)
{
    auto [geometry, sector] = GetParam();
    auto [sets, ways] = geometry;
    Cache::Params params;
    params.name = "diff";
    params.sizeBytes = std::uint64_t(sets) * ways * 128;
    params.ways = ways;
    params.lineBytes = 128;
    params.sectorBytes = sector;
    params.latency = 1;
    EventQueue eq;
    RequestPool pool;
    test::RequestClient client(pool, {Done::SmAccess});
    ScriptedBelow below(eq);
    below.latency = 1;
    Cache cache(eq, params, pool, below);
    LineArrayModel model(params);

    const std::uint64_t lines = std::uint64_t(sets) * ways;
    const std::uint64_t hot = std::max<std::uint64_t>(lines / 2, 1);
    const PhysAddr base = 0x7f3a00000000ull;
    Rng rng(0x5eed0000ull + sets * 131 + ways * 7 + sector);
    auto next_addr = [&]() {
        std::uint64_t line = rng.range(2) ? rng.range(hot)
                                          : rng.range(4 * lines);
        return base + line * 128 + rng.range(128);
    };
    auto image_difference = [&]() {
        CkptWriter got;
        CkptWriter want;
        cache.saveState(got);
        model.saveState(want);
        return firstDifference(got.bytes(), want.bytes());
    };

    for (int i = 0; i < 100000; ++i) {
        PhysAddr addr = next_addr();
        cache.access(client.issue({.addr = addr}));
        eq.run();
        model.access(addr);
        const Cache::Stats &got = cache.stats();
        ASSERT_EQ(got.hits, model.stats.hits) << "access " << i;
        ASSERT_EQ(got.sectorMisses, model.stats.sectorMisses)
            << "access " << i;
        ASSERT_EQ(got.misses, model.stats.misses) << "access " << i;
        ASSERT_EQ(got.evictions, model.stats.evictions) << "access " << i;
        ASSERT_TRUE(cache.isResident(addr)) << "access " << i;
        PhysAddr probe = next_addr();
        ASSERT_EQ(cache.isResident(probe), model.isResident(probe))
            << "probe after access " << i;
        if (i % 1000 == 999) {
            ASSERT_EQ(image_difference(), -1)
                << "checkpoint sections differ after access " << i;
        }
    }
    ASSERT_EQ(image_difference(), -1);
    EXPECT_GT(model.stats.hits, 0u);
    EXPECT_GT(model.stats.sectorMisses, 0u);
    EXPECT_GT(model.stats.evictions, 0u);
}

/** "<sets>x<ways>_<sector>B". */
std::string
differentialName(const ::testing::TestParamInfo<CacheDifferential::ParamType>
                     &info)
{
    const auto &[geometry, sector] = info.param;
    return std::to_string(geometry.first) + "x" +
           std::to_string(geometry.second) + "_" + std::to_string(sector) +
           "B";
}

// 12 x 4 (sets not a power of two), fully associative, direct mapped, and
// the Table 3 L2D (4 MB, 16-way).
INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Combine(::testing::Values(std::pair(12u, 4u),
                                         std::pair(1u, 8u),
                                         std::pair(64u, 1u),
                                         std::pair(2048u, 16u)),
                       ::testing::Values(32u, 64u)),
    differentialName);

} // namespace
