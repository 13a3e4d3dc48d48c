/** @file Unit tests for the memory-system façade (L1D/L2D/DRAM wiring). */

#include <gtest/gtest.h>

#include "mem/memory_system.hh"
#include "test_util.hh"

using namespace sw;

namespace {

class MemorySystemTest : public ::testing::Test
{
  protected:
    MemorySystemTest()
        : cfg(test::smallConfig()), mem(eq, cfg, pool),
          client(pool, {Done::SmAccess, Done::PtRead})
    {
    }

    Cycle
    accessAndWait(PhysAddr addr, bool pte, SmId sm = 0)
    {
        Cycle start = eq.now();
        bool done = false;
        mem.access(client.issue(
            {.addr = addr,
             .unit = sm,
             .done = pte ? Done::PtRead : Done::SmAccess},
            [&](const Request &) { done = true; }));
        eq.run();
        EXPECT_TRUE(done);
        return eq.now() - start;
    }

    EventQueue eq;
    GpuConfig cfg;
    RequestPool pool;
    MemorySystem mem;
    test::RequestClient client;
};

TEST_F(MemorySystemTest, DataAccessGoesThroughL1d)
{
    accessAndWait(0x10000, /*pte=*/false, /*sm=*/0);
    EXPECT_EQ(mem.l1d(0).stats().accesses, 1u);
    EXPECT_EQ(mem.l2d().stats().accesses, 1u);
    EXPECT_EQ(mem.dram().stats().accesses, 1u);
}

TEST_F(MemorySystemTest, PteAccessBypassesL1d)
{
    accessAndWait(0x20000, /*pte=*/true);
    for (SmId sm = 0; sm < cfg.numSms; ++sm)
        EXPECT_EQ(mem.l1d(sm).stats().accesses, 0u);
    EXPECT_EQ(mem.l2d().stats().accesses, 1u);
}

TEST_F(MemorySystemTest, PteCachedInL2Only)
{
    accessAndWait(0x20000, /*pte=*/true);
    Cycle second = accessAndWait(0x20000, /*pte=*/true);
    EXPECT_EQ(second, cfg.l2dLatency);   // L2D hit, no DRAM
    EXPECT_EQ(mem.dram().stats().accesses, 1u);
}

TEST_F(MemorySystemTest, L1dHitAfterFill)
{
    accessAndWait(0x30000, false, 1);
    Cycle second = accessAndWait(0x30000, false, 1);
    EXPECT_EQ(second, cfg.l1dLatency);
}

TEST_F(MemorySystemTest, L1dsArePerSm)
{
    accessAndWait(0x40000, false, 0);
    // Another SM missing the same line hits only in the shared L2D.
    Cycle other_sm = accessAndWait(0x40000, false, 1);
    EXPECT_EQ(other_sm, cfg.l1dLatency + cfg.l2dLatency);
    EXPECT_EQ(mem.dram().stats().accesses, 1u);
}

TEST_F(MemorySystemTest, ColdMissLatencyIsSumOfLevels)
{
    Cycle latency = accessAndWait(0x50000, false, 2);
    EXPECT_GE(latency, cfg.l1dLatency + cfg.l2dLatency + cfg.dramLatency);
}

TEST_F(MemorySystemTest, AggregateL1dStats)
{
    accessAndWait(0x60000, false, 0);
    accessAndWait(0x61000, false, 1);
    Cache::Stats agg = mem.aggregateL1dStats();
    EXPECT_EQ(agg.accesses, 2u);
    EXPECT_EQ(agg.misses, 2u);
}

TEST_F(MemorySystemTest, ResetStatsZeroesEverything)
{
    accessAndWait(0x70000, false, 0);
    mem.resetStats();
    EXPECT_EQ(mem.l2d().stats().accesses, 0u);
    EXPECT_EQ(mem.dram().stats().accesses, 0u);
    EXPECT_EQ(mem.aggregateL1dStats().accesses, 0u);
}

TEST_F(MemorySystemTest, L1dMissesShareOneL2dFillAndFreeEveryRecord)
{
    int done = 0;
    for (int i = 0; i < 3; ++i) {
        mem.access(client.issue({.addr = 0x80000, .unit = 0},
                                [&](const Request &) { ++done; }));
    }
    mem.access(client.issue({.addr = 0x80000, .unit = 1},
                            [&](const Request &) { ++done; }));
    eq.run();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(mem.l1d(0).stats().mshrMerges, 2u);
    EXPECT_EQ(mem.l2d().stats().mshrMerges, 1u);   // SM 1's L1D fill
    EXPECT_EQ(mem.dram().stats().accesses, 1u);
    EXPECT_EQ(pool.live(), 0u);
}

TEST(MemorySystemDeath, DataAccessFromUnknownSmPanics)
{
    EventQueue eq;
    GpuConfig cfg = test::smallConfig();
    RequestPool pool;
    MemorySystem mem(eq, cfg, pool);
    RequestId id = pool.alloc({.addr = 0x1000, .unit = 999});
    EXPECT_DEATH(mem.access(id), "unknown SM");
}

/** A tag has one owner per pool: a second owner would steal its fills. */
TEST(MemorySystemDeath, SecondOwnerOfAPoolPanics)
{
    EventQueue eq;
    GpuConfig cfg = test::smallConfig();
    RequestPool pool;
    MemorySystem first(eq, cfg, pool);
    EXPECT_DEATH({ MemorySystem second(eq, cfg, pool); },
                 "already has a sink");
}

/** An owner gives its tag back when it dies, so a successor can serve. */
TEST(MemorySystemSinks, SuccessorOwnsTheFillsOfADeadOwner)
{
    EventQueue eq;
    GpuConfig cfg = test::smallConfig();
    RequestPool pool;
    { MemorySystem first(eq, cfg, pool); }
    MemorySystem second(eq, cfg, pool);
    test::RequestClient client(pool, {Done::SmAccess});
    bool done = false;
    second.access(client.issue({.addr = 0x1000, .unit = 0},
                               [&](const Request &) { done = true; }));
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(pool.live(), 0u);
}

} // namespace
