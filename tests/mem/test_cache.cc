/** @file Unit tests for the sectored non-blocking cache model. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mem/cache.hh"
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
        eq.run(kCycleMax, [&]() { return done; });
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

/** Property sweep: for any (ways, sectors) the cache stays consistent. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{
};

TEST_P(CacheGeometry, FillThenProbeConsistent)
{
    auto [ways, sector] = GetParam();
    EventQueue eq;
    Cache::Params params;
    params.sizeBytes = 8 * 1024;
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
        cache.access(client.issue({.addr = PhysAddr(i) * 8 * 1024 / ways}));
        eq.run();
        ASSERT_EQ(client.completed, i + 1);
    }
    for (std::uint32_t i = 0; i < ways; ++i)
        EXPECT_TRUE(cache.isResident(PhysAddr(i) * 8 * 1024 / ways));
    EXPECT_EQ(cache.stats().evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(32u, 64u, 128u)));

} // namespace
