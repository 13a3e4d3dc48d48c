/** @file Unit tests for the hardware PTW pool, PWB ports, and NHA. */

#include <gtest/gtest.h>

#include <vector>

#include "test_util.hh"
#include "vm/ptw.hh"

using namespace sw;

namespace {

/** These legacy tests are single-tenant: everything is tagged ASID 0. */
constexpr TranslationKey
K(Vpn vpn)
{
    return {0, vpn};
}

class PtwTest : public ::testing::Test
{
  protected:
    PtwTest()
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
    makePool(HardwarePtwPool::Params params, Cycle mem_latency = 50)
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

    /** A walk request: walk @p id of @p vpn, created now. */
    WalkId
    makeRequest(Vpn vpn, std::uint64_t id)
    {
        pt.ensureMapped(vpn);
        return walks.alloc({.key = K(vpn),
                            .cursor = pt.startWalk(),
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

TEST_F(PtwTest, SingleWalkCompletesWithCorrectPfn)
{
    auto pool = makePool({});
    Pfn expected = pt.translate(pt.ensureMapped(42) ? 42 : 42);
    pool->submit(makeRequest(42, 1));
    eq.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].id, 1u);
    EXPECT_FALSE(results[0].fault);
    EXPECT_EQ(results[0].pfn, pt.translate(42));
    (void)expected;
    EXPECT_EQ(memReads, 4) << "four radix levels read";
    EXPECT_EQ(results[0].ptReads, 4u);
    EXPECT_EQ(pool->inFlight(), 0u);
}

TEST_F(PtwTest, WalkLatencyIsLevelsTimesMemory)
{
    auto pool = makePool({}, /*mem_latency=*/50);
    pool->submit(makeRequest(7, 1));
    eq.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].accessLatency, 200u);
}

TEST_F(PtwTest, ResumedWalkSkipsLevels)
{
    auto pool = makePool({}, 50);
    pt.ensureMapped(9);
    // Learn the leaf base from a functional walk.
    WalkCursor cur = pt.startWalk();
    while (cur.level > 1)
        pt.advance(cur, 9);
    pool->submit(walks.alloc(
        {.key = K(9), .cursor = pt.resumeWalk(1, cur.tableBase), .id = 2}));
    eq.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].accessLatency, 50u) << "one read from the leaf";
}

TEST_F(PtwTest, ParallelWalkersOverlap)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 4;
    params.pwbPorts = 8;
    auto pool = makePool(params, 50);
    for (std::uint64_t i = 0; i < 4; ++i)
        pool->submit(makeRequest(100 + Vpn(i) * 1000, i));
    eq.run();
    EXPECT_EQ(results.size(), 4u);
    // Four walks of 4 levels at 50cy overlap: well under serial time.
    EXPECT_LT(eq.now(), 4 * 200u);
    // Walk i took slot i, and each record counts its own reads.
    for (const test::WalkOutcome &result : results) {
        EXPECT_EQ(result.walker, result.id);
        EXPECT_EQ(result.ptReads, 4u);
    }
}

TEST_F(PtwTest, LimitedWalkersSerialiseAndQueueDelayGrows)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 1;
    auto pool = makePool(params, 50);
    for (std::uint64_t i = 0; i < 3; ++i)
        pool->submit(makeRequest(100 + Vpn(i) * 1000, i));
    eq.run();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(pool->stats().queueDelay.maxv,
              results[2].queueDelay);
    EXPECT_GE(results[2].queueDelay, 2 * 200u);
}

TEST_F(PtwTest, QueueDelayMeasuredFromCreation)
{
    auto pool = makePool({});
    WalkId walk = makeRequest(5, 1);
    walks[walk].created = 0;
    eq.schedule(100, [&pool, walk]() { pool->submit(walk); });
    eq.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GE(results[0].queueDelay, 100u);
}

/**
 * A same-cycle burst through four PWB ports: the first four enqueues
 * finish in one cycle and every later cycle finishes four more.  One
 * walker takes the walks in PWB order, so their completion order is the
 * order they reached the PWB: the order they were submitted, through
 * the PWB and its overflow spill alike.
 */
TEST_F(PtwTest, SameCycleBurstReachesThePwbInSubmissionOrder)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 1;
    params.pwbEntries = 16;
    params.pwbPorts = 4;
    auto pool = makePool(params);
    constexpr std::uint64_t kWalks = 40;
    for (std::uint64_t id = 1; id <= kWalks; ++id)
        pool->submit(makeRequest(0x1000 * id, id));
    eq.run();
    ASSERT_EQ(results.size(), kWalks);
    for (std::uint64_t i = 0; i < kWalks; ++i)
        EXPECT_EQ(results[i].id, i + 1) << "walk " << i;
    EXPECT_GT(pool->stats().pwbOverflows, 0u);
}

/**
 * One port and a burst long enough that the last enqueues finish more
 * than a wheel span ahead, in the event queue's far heap: they still
 * reach the PWB in submission order.
 */
TEST_F(PtwTest, FarHeapEnqueuesReachThePwbInSubmissionOrder)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 1;
    params.pwbPorts = 1;
    auto pool = makePool(params, /*mem_latency=*/1);
    const std::uint64_t walks = EventQueue::kWheelSpan + 500;
    for (std::uint64_t id = 1; id <= walks; ++id)
        pool->submit(makeRequest(id, id));
    EXPECT_EQ(eq.pending(), walks);
    eq.run();
    ASSERT_EQ(results.size(), walks);
    for (std::uint64_t i = 0; i < walks; ++i)
        ASSERT_EQ(results[i].id, i + 1) << "walk " << i;
    // Each enqueue held the one port for a cycle: the last finished
    // past the wheel's span.
    EXPECT_GT(results.back().queueDelay, EventQueue::kWheelSpan);
}

TEST_F(PtwTest, WalksFillThePwc)
{
    auto pool = makePool({});
    pool->submit(makeRequest(0x500, 1));
    eq.run();
    int level = 0;
    PhysAddr base = 0;
    EXPECT_TRUE(pwc.lookup(pt, K(0x500), level, base));
    EXPECT_EQ(level, 1) << "leaf table base cached";
}

TEST_F(PtwTest, FaultReportedForUnmappedVpn)
{
    auto pool = makePool({});
    pool->submit(walks.alloc(
        {.key = K(0xFFFF), .cursor = pt.startWalk(), .id = 9}));
    eq.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].fault);
}

TEST_F(PtwTest, PwbOverflowSpillsAndRecovers)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 1;
    params.pwbEntries = 2;
    auto pool = makePool(params, 20);
    for (std::uint64_t i = 0; i < 8; ++i)
        pool->submit(makeRequest(Vpn(i) * 4096, i));
    eq.run();
    EXPECT_EQ(results.size(), 8u);
    EXPECT_GT(pool->stats().pwbOverflows, 0u);
}

TEST_F(PtwTest, SinglePortSerialisesDispatch)
{
    HardwarePtwPool::Params one_port;
    one_port.numWalkers = 16;
    one_port.pwbPorts = 1;
    auto pool_one = makePool(one_port, 400);
    for (std::uint64_t i = 0; i < 16; ++i)
        pool_one->submit(makeRequest(Vpn(i) * 4096, i));
    eq.run();
    Cycle one_port_time = eq.now();

    results.clear();
    eq.reset();
    HardwarePtwPool::Params many_ports = one_port;
    many_ports.pwbPorts = 16;
    auto pool_many = makePool(many_ports, 400);
    for (std::uint64_t i = 0; i < 16; ++i)
        pool_many->submit(makeRequest(Vpn(i) * 4096, 100 + i));
    eq.run();
    EXPECT_LE(eq.now(), one_port_time);
}

// ---- NHA coalescing (§2.3) --------------------------------------------

TEST_F(PtwTest, NhaMergesSameSectorWalks)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 1;
    params.nhaCoalescing = true;
    params.nhaSectorBytes = 32;   // 4 PTEs per sector
    auto pool = makePool(params, 30);
    // Four adjacent VPNs share the leaf-PTE sector.  The walker is busy
    // with the first; the next three are in the PWB and coalesce.
    for (std::uint64_t i = 0; i < 4; ++i)
        pool->submit(makeRequest(0x1000 + Vpn(i), i));
    eq.run();
    ASSERT_EQ(results.size(), 4u);
    EXPECT_GT(pool->stats().nhaMerged, 0u);
    // Riders get their own PFNs.
    for (const auto &result : results)
        EXPECT_EQ(result.pfn, pt.translate(result.key.vpn));
}

TEST_F(PtwTest, NhaRiderReportsNoReadsAndItsPrimarysSlot)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 2;
    params.nhaCoalescing = true;
    params.nhaSectorBytes = 32;   // 4 PTEs per sector
    auto pool = makePool(params, 30);
    // Walk 1 holds slot 0 for four reads.  Walk 2, resumed at the leaf,
    // frees slot 1 first; walk 3 takes it, and walks 4 and 5, which share
    // its leaf-PTE sector, ride along.
    pool->submit(makeRequest(0x9000, 1));
    WalkId leaf = makeRequest(0xa000, 2);
    while (walks[leaf].cursor.level > 1)
        pt.advance(walks[leaf].cursor, walks[leaf].key.vpn);
    pool->submit(leaf);
    for (std::uint64_t id = 3; id <= 5; ++id)
        pool->submit(makeRequest(0x1000 + Vpn(id - 3), id));
    eq.run();
    ASSERT_EQ(results.size(), 5u);
    EXPECT_EQ(pool->stats().nhaMerged, 2u);

    std::vector<std::pair<std::uint32_t, std::uint32_t>> by_id(6);
    for (const test::WalkOutcome &result : results)
        by_id[result.id] = {result.walker, result.ptReads};
    EXPECT_EQ(by_id[1], std::pair(0u, 4u));
    EXPECT_EQ(by_id[2], std::pair(1u, 1u));
    EXPECT_EQ(by_id[3], std::pair(1u, 4u));
    EXPECT_EQ(by_id[4], std::pair(1u, 0u));
    EXPECT_EQ(by_id[5], std::pair(1u, 0u));
}

TEST_F(PtwTest, NhaDoesNotMergeDistantVpns)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 1;
    params.nhaCoalescing = true;
    auto pool = makePool(params, 30);
    for (std::uint64_t i = 0; i < 4; ++i)
        pool->submit(makeRequest(Vpn(i) * (1 << 16), i));
    eq.run();
    EXPECT_EQ(pool->stats().nhaMerged, 0u);
    EXPECT_EQ(results.size(), 4u);
}

TEST_F(PtwTest, NhaMergeLimitIsSectorCapacity)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 1;
    params.nhaCoalescing = true;
    params.nhaSectorBytes = 32;
    auto pool = makePool(params, 30);
    // 8 adjacent VPNs: at most 3 can ride along with each primary (4 PTEs
    // per 32 B sector).
    for (std::uint64_t i = 0; i < 8; ++i)
        pool->submit(makeRequest(0x2000 + Vpn(i), i));
    eq.run();
    EXPECT_EQ(results.size(), 8u);
    EXPECT_LE(pool->stats().nhaMerged, 6u);
}

TEST_F(PtwTest, StatsResetPreservesInFlightAccounting)
{
    auto pool = makePool({});
    pool->submit(makeRequest(1, 1));
    pool->resetStats();
    eq.run();
    EXPECT_EQ(pool->stats().completed, 1u);
    EXPECT_EQ(pool->inFlight(), 0u);
}

TEST_F(PtwTest, PeakInFlightTracksBurst)
{
    HardwarePtwPool::Params params;
    params.numWalkers = 2;
    auto pool = makePool(params, 50);
    for (std::uint64_t i = 0; i < 6; ++i)
        pool->submit(makeRequest(Vpn(i) * 512, i));
    eq.run();
    EXPECT_EQ(pool->stats().peakInFlight, 6u);
}

} // namespace
