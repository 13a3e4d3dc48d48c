/** @file Unit tests for the PW Warp execution model (Fig 14 routine). */

#include <gtest/gtest.h>

#include <vector>

#include "core/pw_warp.hh"
#include "vm/page_table.hh"
#include "sim/config.hh"
#include "test_util.hh"

using namespace sw;

namespace {

/** These legacy tests are single-tenant: everything is tagged ASID 0. */
constexpr TranslationKey
K(Vpn vpn)
{
    return {0, vpn};
}

/** Fixture: PW Warp over a radix table with scripted memory + issue port. */
class PwWarpTest : public ::testing::Test
{
  protected:
    /** The SM the warp under test runs on. */
    static constexpr std::uint32_t kSm = 5;

    PwWarpTest()
        : geom(64 * 1024), alloc(64 * 1024), spaces(spacesConfig(), alloc),
          pt(spaces.tableFor(0)), pwb(8)
    {
    }

    static GpuConfig
    spacesConfig()
    {
        GpuConfig cfg = makeDefaultConfig();
        cfg.pageBytes = 64 * 1024;
        return cfg;
    }

    std::unique_ptr<PwWarp>
    makeWarp(std::uint32_t lanes = 8, Cycle comm = 40,
             Cycle mem_latency = 50, PwWarpCodeTiming timing = {})
    {
        PwWarp::Hooks hooks;
        hooks.reserveIssue = [this](std::uint32_t slots, Asid) {
            Cycle start = std::max(eq.now(), issueFree);
            issueFree = start + slots;
            issueSlots += slots;
            return start + slots;
        };
        readers.push_back(std::make_unique<test::FixedLatencyReader>(
            eq, mem_latency, memReads));
        test::FixedLatencyReader &reader = *readers.back();
        hooks.ptReader = &reader;
        hooks.walker = kSm;
        hooks.complete = [this](WalkId walk) {
            results.push_back(test::completeWalk(walks, walk, eq.now()));
            landedAt.push_back(eq.now());
        };
        auto warp = std::make_unique<PwWarp>(eq, spaces, pwc, pwb, walks,
                                             std::move(hooks), timing, lanes,
                                             comm, lifecycle);
        PwWarp *raw = warp.get();
        reader.answer = [raw](std::uint32_t, std::uint32_t lane) {
            raw->ptReadDone(lane);
        };
        return warp;
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
    SoftPwb pwb;
    WalkPool walks;
    LifecycleStream lifecycle;
    Cycle issueFree = 0;
    std::uint64_t issueSlots = 0;
    int memReads = 0;
    std::vector<test::WalkOutcome> results;
    std::vector<Cycle> landedAt;   ///< cycle each result reached complete
    std::vector<std::unique_ptr<test::FixedLatencyReader>> readers;
};

TEST_F(PwWarpTest, IdleWithoutWork)
{
    auto warp = makeWarp();
    warp->notifyWork();
    EXPECT_FALSE(warp->busy());
    eq.run();
    EXPECT_TRUE(results.empty());
}

TEST_F(PwWarpTest, SingleWalkCompletes)
{
    auto warp = makeWarp();
    pwb.insert(makeRequest(0x42, 1), eq.now());
    warp->notifyWork();
    EXPECT_TRUE(warp->busy());
    eq.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].pfn, pt.translate(0x42));
    EXPECT_FALSE(results[0].fault);
    EXPECT_EQ(memReads, 4);
    EXPECT_FALSE(warp->busy());
    EXPECT_EQ(pwb.freeSlots(), 8u);
}

TEST_F(PwWarpTest, InstructionAccounting)
{
    PwWarpCodeTiming timing;
    auto warp = makeWarp(8, 40, 50, timing);
    pwb.insert(makeRequest(0x42, 1), eq.now());
    warp->notifyWork();
    eq.run();
    // setup + 4 levels * perLevel + FL2T
    std::uint64_t expected = timing.setupInstrs +
        4 * timing.perLevelInstrs + timing.finishInstrs;
    EXPECT_EQ(warp->stats().instructionsIssued, expected);
    EXPECT_EQ(issueSlots, expected);
    EXPECT_EQ(warp->stats().ldptIssued, 4u);
    EXPECT_EQ(warp->stats().fl2tIssued, 1u);
}

TEST_F(PwWarpTest, CommunicationLatencyDelaysCompletion)
{
    auto warp = makeWarp(8, /*comm=*/1000, /*mem=*/10);
    pwb.insert(makeRequest(0x1, 1), eq.now());
    warp->notifyWork();
    eq.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GE(results[0].accessLatency, 1000u);
}

TEST_F(PwWarpTest, BatchProcessesMultipleLanes)
{
    auto warp = makeWarp(8, 40, 50);
    for (std::uint64_t i = 0; i < 5; ++i)
        pwb.insert(makeRequest(Vpn(i) * 999 + 7, i), eq.now());
    warp->notifyWork();
    eq.run();
    EXPECT_EQ(results.size(), 5u);
    EXPECT_EQ(warp->stats().batches, 1u);
    EXPECT_DOUBLE_EQ(warp->stats().batchSize.mean(), 5.0);
    for (const auto &result : results)
        EXPECT_EQ(result.pfn, pt.translate(result.key.vpn));
}

TEST_F(PwWarpTest, BatchBoundedByLaneCount)
{
    auto warp = makeWarp(/*lanes=*/4, 40, 50);
    for (std::uint64_t i = 0; i < 8; ++i)
        pwb.insert(makeRequest(Vpn(i) * 999 + 7, i), eq.now());
    warp->notifyWork();
    eq.run();
    EXPECT_EQ(results.size(), 8u);
    EXPECT_EQ(warp->stats().batches, 2u);
}

TEST_F(PwWarpTest, LockstepLanesShareLevelIterations)
{
    // 8 lanes walking 4 levels each issue their LDPTs in the same four
    // iterations: per-level instruction cost is paid once per iteration.
    PwWarpCodeTiming timing;
    auto warp = makeWarp(8, 40, 50, timing);
    for (std::uint64_t i = 0; i < 8; ++i)
        pwb.insert(makeRequest(Vpn(i) * 999 + 7, i), eq.now());
    warp->notifyWork();
    eq.run();
    std::uint64_t expected = timing.setupInstrs +
        4 * timing.perLevelInstrs + timing.finishInstrs;
    EXPECT_EQ(warp->stats().instructionsIssued, expected);
    EXPECT_EQ(memReads, 32) << "8 lanes x 4 levels";
}

TEST_F(PwWarpTest, FaultLaneIssuesFfb)
{
    auto warp = makeWarp();
    WalkId bad = walks.alloc({.key = K(0xBAD),   // unmapped
                              .cursor = pt.startWalk(),
                              .id = 1});
    pwb.insert(bad, eq.now());
    warp->notifyWork();
    eq.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].fault);
    EXPECT_EQ(warp->stats().ffbIssued, 1u);
    EXPECT_EQ(warp->stats().fl2tIssued, 0u);
}

TEST_F(PwWarpTest, FpwcFillsOnDescent)
{
    auto warp = makeWarp();
    pwb.insert(makeRequest(0x42, 1), eq.now());
    warp->notifyWork();
    eq.run();
    // Levels 3, 2, 1 learned table bases.
    EXPECT_EQ(pwc.stats().fills, 3u);
    EXPECT_EQ(warp->stats().fpwcIssued, 3u);
    // The deepest one, the leaf table's, now resumes a walk of the page.
    WalkCursor cur = pt.startWalk();
    while (cur.level > 1)
        pt.advance(cur, 0x42);
    int level = 0;
    PhysAddr base = 0;
    ASSERT_TRUE(pwc.lookup(pt, K(0x42), level, base));
    EXPECT_EQ(level, 1);
    EXPECT_EQ(base, cur.tableBase);
}

TEST_F(PwWarpTest, RequestsArrivingMidBatchJoinNextBatch)
{
    auto warp = makeWarp(8, 40, 200);
    pwb.insert(makeRequest(0x1, 1), eq.now());
    warp->notifyWork();
    // Arrives while the first batch is in flight.
    eq.scheduleIn(50, [&]() {
        pwb.insert(makeRequest(0x2222, 2), eq.now());
        warp->notifyWork();
    });
    eq.run();
    EXPECT_EQ(results.size(), 2u);
    EXPECT_EQ(warp->stats().batches, 2u);
}

/**
 * Two back-to-back batches whose fills are all in transit at once (the
 * interconnect trip outlasts the second batch): they land in batch order
 * and, within a batch, in lane order, each at the cycle its record says.
 */
TEST_F(PwWarpTest, BackToBackBatchesFillInBatchAndLaneOrder)
{
    auto warp = makeWarp(/*lanes=*/4, /*comm=*/1000, /*mem_latency=*/10);
    for (std::uint64_t id = 1; id <= 8; ++id)
        pwb.insert(makeRequest(0x1000 * id, id), eq.now());
    warp->notifyWork();
    eq.run(/*cycle_limit=*/500);
    EXPECT_EQ(warp->stats().batches, 2u);
    EXPECT_EQ(warp->fillsInTransit(), 8u);
    EXPECT_TRUE(results.empty());

    eq.run();
    EXPECT_EQ(warp->fillsInTransit(), 0u);
    ASSERT_EQ(results.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(results[i].id, i + 1) << "fill " << i;
        // Every request was created at cycle 0.
        EXPECT_EQ(landedAt[i],
                  results[i].queueDelay + results[i].accessLatency)
            << "fill " << i;
    }
    EXPECT_EQ(landedAt[0], landedAt[3]);
    EXPECT_LT(landedAt[3], landedAt[4]);
    EXPECT_GT(results[4].queueDelay, results[3].queueDelay)
        << "the second batch started later";
}

TEST_F(PwWarpTest, QueueDelayMeasuredToPickup)
{
    auto warp = makeWarp(8, 40, 200);
    pwb.insert(makeRequest(0x1, 1), eq.now());
    warp->notifyWork();
    eq.scheduleIn(10, [&]() {
        pwb.insert(makeRequest(0x2222, 2), eq.now());
        warp->notifyWork();
    });
    eq.run();
    ASSERT_EQ(results.size(), 2u);
    // The second request waited for batch 1 to finish.
    EXPECT_GT(results[1].queueDelay, 500u);
}

TEST_F(PwWarpTest, ResumedCursorsSkipLevels)
{
    auto warp = makeWarp();
    pt.ensureMapped(0x300);
    WalkCursor cur = pt.startWalk();
    while (cur.level > 1)
        pt.advance(cur, 0x300);
    pwb.insert(walks.alloc({.key = K(0x300),
                            .cursor = pt.resumeWalk(1, cur.tableBase),
                            .id = 5}),
               eq.now());
    warp->notifyWork();
    eq.run();
    EXPECT_EQ(memReads, 1);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].pfn, pt.translate(0x300));
}

TEST_F(PwWarpTest, WalkRecordCountsEachLanesLdpts)
{
    auto warp = makeWarp();
    pwb.insert(makeRequest(0x42, 1), eq.now());
    // Lane 2 resumes at the leaf and reads one level.
    WalkId leaf = makeRequest(0x300, 2);
    while (walks[leaf].cursor.level > 1)
        pt.advance(walks[leaf].cursor, walks[leaf].key.vpn);
    pwb.insert(leaf, eq.now());
    warp->notifyWork();
    eq.run();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(warp->stats().batches, 1u);
    for (const test::WalkOutcome &result : results) {
        EXPECT_EQ(result.walker, kSm);
        EXPECT_EQ(result.ptReads, result.id == 1 ? 4u : 1u);
    }
}

TEST_F(PwWarpTest, PwOpcodeNames)
{
    EXPECT_STREQ(toString(PwOpcode::Ldpt), "LDPT");
    EXPECT_STREQ(toString(PwOpcode::Fl2t), "FL2T");
    EXPECT_STREQ(toString(PwOpcode::Fpwc), "FPWC");
    EXPECT_STREQ(toString(PwOpcode::Ffb), "FFB");
    EXPECT_STREQ(toString(PwOpcode::Alu), "ALU");
}

TEST_F(PwWarpTest, ContextBitsMatchPaperSection52)
{
    PwWarpContextBits bits;
    EXPECT_EQ(bits.total(), 1470u) << "64 + 126 + 8x160, as in §5.2";
    EXPECT_EQ(bits.statusBitmap, 64u);
    EXPECT_EQ(kPwWarpRegisters, 16u);
}

} // namespace
