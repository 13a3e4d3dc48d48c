/** @file Precise timing-math tests for the PTW pool's port model. */

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "test_util.hh"
#include "vm/ptw.hh"

using namespace sw;

namespace {

/** Fixture with a fixed-latency memory so timing is exactly predictable. */
class PtwTimingTest : public ::testing::Test
{
  protected:
    PtwTimingTest()
        : geom(64 * 1024), alloc(64 * 1024), spaces(spacesConfig(), alloc),
          pt(spaces.tableFor(0)), pwc(32)
    {
    }

    static GpuConfig
    spacesConfig()
    {
        GpuConfig cfg = makeDefaultConfig();
        cfg.pageBytes = 64 * 1024;
        return cfg;
    }

    std::unique_ptr<HardwarePtwPool>
    makePool(HardwarePtwPool::Params params, Cycle mem_latency)
    {
        readers.push_back(std::make_unique<test::FixedLatencyReader>(
            eq, mem_latency, memReads));
        test::FixedLatencyReader &reader = *readers.back();
        auto pool = std::make_unique<HardwarePtwPool>(
            eq, params, spaces, pwc, walks, reader,
            [this](WalkId walk) {
                results.push_back(test::completeWalk(walks, walk, eq.now()));
            },
            lifecycle);
        HardwarePtwPool *raw = pool.get();
        reader.answer = [raw](std::uint32_t walker, std::uint32_t lane) {
            raw->ptReadDone(walker, lane);
        };
        return pool;
    }

    /** Leaf-level request (one memory read per walk). */
    WalkId
    leafRequest(Vpn vpn, std::uint64_t id)
    {
        pt.ensureMapped(vpn);
        WalkCursor cur = pt.startWalk();
        while (cur.level > 1)
            pt.advance(cur, vpn);
        return walks.alloc({.key = {0, vpn},
                            .cursor = pt.resumeWalk(1, cur.tableBase),
                            .created = eq.now(),
                            .id = id});
    }

    EventQueue eq;
    PageGeometry geom;
    FrameAllocator alloc;
    AddressSpaceManager spaces;
    PageTableBase &pt;
    PageWalkCache pwc;
    LifecycleStream lifecycle;
    WalkPool walks;
    int memReads = 0;
    std::vector<test::WalkOutcome> results;
    std::vector<std::unique_ptr<test::FixedLatencyReader>> readers;
};

TEST_F(PtwTimingTest, SingleLeafWalkExactLatency)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 1;
    auto pool = makePool(params, 100);
    pool->submit(leafRequest(1, 1));
    eq.run();
    ASSERT_EQ(results.size(), 1u);
    // enqueue port (1 cy) + dequeue port (1 cy) + one 100 cy read.
    EXPECT_EQ(eq.now(), 102u);
    EXPECT_EQ(results[0].accessLatency, 100u);
    EXPECT_EQ(results[0].queueDelay, 2u);
}

TEST_F(PtwTimingTest, OnePortSerialisesPortOperations)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 4;
    params.pwbPorts = 1;
    auto pool = makePool(params, 100);
    for (std::uint64_t i = 0; i < 4; ++i)
        pool->submit(leafRequest(Vpn(i) * 4096, i));
    eq.run();
    ASSERT_EQ(results.size(), 4u);
    // 4 enqueues + 4 dequeues share one port: the last walk cannot start
    // before cycle 8 even though walkers are idle.
    Cycle max_queue = 0;
    for (const auto &result : results)
        max_queue = std::max(max_queue, result.queueDelay);
    EXPECT_GE(max_queue, 7u);
}

TEST_F(PtwTimingTest, ManyPortsStartWalksTogether)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 4;
    params.pwbPorts = 8;
    auto pool = makePool(params, 100);
    for (std::uint64_t i = 0; i < 4; ++i)
        pool->submit(leafRequest(Vpn(i) * 4096, i));
    eq.run();
    for (const auto &result : results)
        EXPECT_LE(result.queueDelay, 3u);
    EXPECT_LE(eq.now(), 104u);
}

TEST_F(PtwTimingTest, WalkerReuseBackToBack)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 1;
    params.pwbPorts = 4;
    auto pool = makePool(params, 50);
    pool->submit(leafRequest(1, 1));
    pool->submit(leafRequest(4096, 2));
    eq.run();
    ASSERT_EQ(results.size(), 2u);
    // Second walk starts right after the first finishes (+1 port cycle).
    EXPECT_GE(results[1].queueDelay, 50u);
    EXPECT_LE(results[1].queueDelay, 54u);
}

TEST_F(PtwTimingTest, QueueDelayScalesLinearlyUnderSaturation)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 1;
    params.pwbPorts = 4;
    auto pool = makePool(params, 50);
    constexpr int n = 10;
    for (std::uint64_t i = 0; i < n; ++i)
        pool->submit(leafRequest(Vpn(i) * 4096, i));
    eq.run();
    ASSERT_EQ(results.size(), std::size_t(n));
    // k-th walk waits ~k * 50 cycles: the Fig 7 queueing mechanism in
    // miniature.
    EXPECT_GE(results[n - 1].queueDelay, Cycle((n - 1) * 50));
    EXPECT_LE(results[n - 1].queueDelay, Cycle((n - 1) * 50 + 3 * n));
}

} // namespace
