/**
 * @file
 * Unit tests for the top-down cycle ledger (src/obs/cycle_ledger), driven
 * through the lifecycle stream the machine emits into: span attribution
 * across scheduler states, deepest-stage selection over the
 * translation-wait subtree, key-wide track-stage moves, the PW-occupancy
 * carve-out with its host/walk interference matrix, per-ASID slicing,
 * reset semantics, stat registration, and — through AuditTester — the
 * negative paths proving auditConservation() detects every class of
 * leak it guards against.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/audit_tester.hh"
#include "obs/cycle_ledger.hh"
#include "obs/lifecycle.hh"
#include "obs/stat_registry.hh"

using namespace sw;

namespace {

const TranslationKey kKeyA{0, 0x1234};
const TranslationKey kKeyB{0, 0x5678};

/** A ledger fed through its own lifecycle stream, as the Gpu wires it. */
struct LedgerStream
{
    LedgerStream() { stream.observe(nullptr, &ledger, nullptr); }

    /** A translation event of @p sm for @p key. */
    void
    emit(LifecyclePhase phase, Cycle now, SmId sm, TranslationKey key,
         bool software = false)
    {
        SW_LIFECYCLE(stream, phase, now, 0, key, sm, software);
    }

    /** A walk-wide event (dispatch, fault, fill) for @p key. */
    void
    walk(LifecyclePhase phase, Cycle now, TranslationKey key,
         bool software = false)
    {
        emit(phase, now, LifecycleEvent::kNoWhere, key, software);
    }

    void
    sched(SmId sm, Cycle now, bool anyLive, bool stalled)
    {
        SW_LIFECYCLE(stream, LifecyclePhase::SmSched, now, 0, {}, sm, false,
                     anyLive, stalled);
    }

    void
    pwReserve(SmId sm, Cycle start, Cycle end, Asid walkAsid)
    {
        SW_LIFECYCLE(stream, LifecyclePhase::PwReserve, start, 0,
                     TranslationKey{walkAsid, 0}, sm, true, start, end);
    }

    void
    pwHosted(SmId sm, Asid walkAsid)
    {
        SW_LIFECYCLE(stream, LifecyclePhase::PwHosted, 0, 0,
                     TranslationKey{walkAsid, 0}, sm, true);
    }

    CycleLedger ledger;
    LifecycleStream stream;
};

TEST(CycleLedger, AttachStartsEveryoneIdleAndConserved)
{
    LedgerStream feed;
    CycleLedger &ledger = feed.ledger;
    EXPECT_FALSE(ledger.attached());
    ledger.attach({0, 0}, 0);
    EXPECT_TRUE(ledger.attached());
    EXPECT_EQ(ledger.numSms(), 2u);

    ledger.syncAll(100);
    EXPECT_EQ(ledger.account(0, LedgerCategory::Idle), 100u);
    EXPECT_EQ(ledger.account(1, LedgerCategory::Idle), 100u);
    EXPECT_EQ(ledger.categoryTotals()[static_cast<std::size_t>(
                  LedgerCategory::Idle)],
              200u);
    EXPECT_EQ(ledger.auditConservation(100), "");
}

TEST(CycleLedger, HooksAreNoOpsBeforeAttach)
{
    LedgerStream feed;
    CycleLedger &ledger = feed.ledger;
    feed.sched(0, 10, true, true);
    feed.emit(LifecyclePhase::L1Miss, 10, 0, kKeyA);
    feed.emit(LifecyclePhase::InTlbAlloc, 10, 0, kKeyA);
    feed.pwReserve(0, 10, 20, 0);
    feed.pwHosted(0, 0);
    ledger.syncAll(50);
    EXPECT_EQ(ledger.auditConservation(50), "");
}

TEST(CycleLedger, SchedStateTransitionsSplitTheTimeline)
{
    LedgerStream feed;
    CycleLedger &ledger = feed.ledger;
    ledger.attach({0}, 0);
    feed.sched(0, 10, true, false); // warps became live
    feed.sched(0, 50, true, true);  // all of them blocked
    ledger.syncAll(80);

    EXPECT_EQ(ledger.account(0, LedgerCategory::Idle), 10u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::IssueExecute), 40u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::MemWait), 30u);
    EXPECT_EQ(ledger.auditConservation(80), "");
}

TEST(CycleLedger, LifecycleStagesAttributeAStalledSm)
{
    LedgerStream feed;
    CycleLedger &ledger = feed.ledger;
    ledger.attach({0, 0}, 0);
    feed.sched(0, 0, true, true);

    feed.emit(LifecyclePhase::L1Miss, 10, 0, kKeyA);   // [0,10) stalled
    feed.emit(LifecyclePhase::MshrFail, 30, 0, kKeyA); // [10,30) L1 miss
    // SM1's request creates the walk while SM0 is parked: parked SMs stay
    // at their sm-local stage until their own L2Merge wakeup.
    feed.emit(LifecyclePhase::InTlbAlloc, 45, 1, kKeyA);
    feed.emit(LifecyclePhase::L2Merge, 50, 0, kKeyA);  // [30,50) L2 queue
    feed.walk(LifecyclePhase::WalkDispatch, 70, kKeyA, true);
    feed.walk(LifecyclePhase::WalkFill, 80, kKeyA);    // accounting-neutral
    feed.emit(LifecyclePhase::Wakeup, 80, 0, kKeyA);   // [70,80) PW exec
    ledger.syncAll(100); // [80,100) stalled again, no walk

    EXPECT_EQ(ledger.account(0, LedgerCategory::MemWait), 30u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::TransL1Miss), 20u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::TransL2Queue), 20u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::TransInTlbMshr), 20u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::TransPwExec), 10u);
    EXPECT_EQ(ledger.auditConservation(100), "");
}

TEST(CycleLedger, DeepestOutstandingStageWins)
{
    LedgerStream feed;
    CycleLedger &ledger = feed.ledger;
    ledger.attach({0}, 0);
    feed.sched(0, 0, true, true);

    // Two outstanding translations: kKeyA still in L1-miss handling,
    // kKeyB ridden to a hardware PTW.  The PTW explains the stall.
    feed.emit(LifecyclePhase::L1Miss, 0, 0, kKeyA);
    feed.emit(LifecyclePhase::L1Miss, 0, 0, kKeyB);
    feed.emit(LifecyclePhase::InTlbAlloc, 0, 0, kKeyB);
    feed.walk(LifecyclePhase::WalkDispatch, 0, kKeyB);
    ledger.syncAll(50);
    EXPECT_EQ(ledger.account(0, LedgerCategory::TransPtwExec), 50u);

    // With the PTW walk delivered, the L1 miss is the deepest again.
    feed.emit(LifecyclePhase::Wakeup, 50, 0, kKeyB);
    ledger.syncAll(80);
    EXPECT_EQ(ledger.account(0, LedgerCategory::TransL1Miss), 30u);
    EXPECT_EQ(ledger.auditConservation(80), "");
}

TEST(CycleLedger, WaitersAcrossSmSetWordBoundariesKeepTheirAccounts)
{
    // 130 SMs: a key's SM sets take three 64-bit words, and SMs 0, 63,
    // 64 and 129 sit at the first and last bit of the words they use.
    LedgerStream feed;
    CycleLedger &ledger = feed.ledger;
    ledger.attach(std::vector<Asid>(130, 0), 0);
    const SmId sm0 = 0, sm63 = 63, sm64 = 64, sm129 = 129;
    for (SmId sm : {sm0, sm63, sm64, sm129}) {
        feed.sched(sm, 0, true, true);
        feed.emit(LifecyclePhase::L1Miss, 10, sm, kKeyA);
    }
    feed.emit(LifecyclePhase::MshrFail, 20, sm63, kKeyA);
    feed.emit(LifecyclePhase::InTlbAlloc, 30, sm0, kKeyA);
    feed.emit(LifecyclePhase::L2Merge, 35, sm64, kKeyA);
    // Each rider sits at the live track stage, the joiner too.
    ledger.syncAll(40);
    EXPECT_EQ(ledger.account(sm0, LedgerCategory::TransInTlbMshr), 10u);
    EXPECT_EQ(ledger.account(sm64, LedgerCategory::TransInTlbMshr), 5u);

    feed.walk(LifecyclePhase::WalkDispatch, 40, kKeyA, true);
    feed.walk(LifecyclePhase::Fault, 50, kKeyA);
    feed.emit(LifecyclePhase::L2Merge, 55, sm129, kKeyA);
    ledger.syncAll(60);
    EXPECT_EQ(ledger.account(sm0, LedgerCategory::TransFault), 10u);
    EXPECT_EQ(ledger.account(sm64, LedgerCategory::TransFault), 10u);
    EXPECT_EQ(ledger.account(sm129, LedgerCategory::TransFault), 5u);

    // The replayed walk holds an In-TLB MSHR slot (a = 1).
    SW_LIFECYCLE(feed.stream, LifecyclePhase::FaultReplay, 60, 0, kKeyA,
                 LifecycleEvent::kNoWhere, false, 1);
    feed.walk(LifecyclePhase::WalkDispatch, 70, kKeyA, true);
    feed.emit(LifecyclePhase::L2Merge, 80, sm63, kKeyA);
    ledger.syncAll(90);
    EXPECT_EQ(ledger.account(sm63, LedgerCategory::TransPwExec), 10u);
    EXPECT_EQ(ledger.account(sm129, LedgerCategory::TransPwExec), 20u);

    // Riders keep their last stage after the fill until their wakeup.
    feed.walk(LifecyclePhase::WalkFill, 90, kKeyA);
    feed.emit(LifecyclePhase::Wakeup, 95, sm0, kKeyA);
    feed.emit(LifecyclePhase::Wakeup, 100, sm63, kKeyA);
    feed.emit(LifecyclePhase::Wakeup, 105, sm64, kKeyA);
    feed.emit(LifecyclePhase::Wakeup, 110, sm129, kKeyA);
    ledger.syncAll(120);

    using C = LedgerCategory;
    struct Want
    {
        SmId sm;
        Cycle memWait, l1Miss, l2Queue, inTlb, pwExec, fault;
    };
    for (const Want &want : {Want{sm0, 35, 20, 0, 20, 35, 10},
                             Want{sm63, 30, 10, 60, 0, 20, 0},
                             Want{sm64, 25, 25, 0, 15, 45, 10},
                             Want{sm129, 20, 45, 0, 10, 40, 5}}) {
        SCOPED_TRACE(want.sm);
        EXPECT_EQ(ledger.account(want.sm, C::MemWait), want.memWait);
        EXPECT_EQ(ledger.account(want.sm, C::TransL1Miss), want.l1Miss);
        EXPECT_EQ(ledger.account(want.sm, C::TransL2Queue), want.l2Queue);
        EXPECT_EQ(ledger.account(want.sm, C::TransInTlbMshr), want.inTlb);
        EXPECT_EQ(ledger.account(want.sm, C::TransPwExec), want.pwExec);
        EXPECT_EQ(ledger.account(want.sm, C::TransFault), want.fault);
    }
    EXPECT_EQ(ledger.account(1, C::Idle), 120u);
    EXPECT_EQ(ledger.auditConservation(120), "");

    // The key is gone: a new miss on it starts from a clean set.
    feed.emit(LifecyclePhase::L1Miss, 120, sm64, kKeyA);
    ledger.syncAll(130);
    EXPECT_EQ(ledger.account(sm64, C::TransL1Miss), 35u);
    EXPECT_EQ(ledger.account(sm0, C::MemWait), 45u);
}

TEST(CycleLedger, PwReservationIsCarvedOutOfTheStallSpan)
{
    LedgerStream feed;
    CycleLedger &ledger = feed.ledger;
    ledger.attach({0, 1}, 0); // SM0 tenant 0, SM1 tenant 1
    feed.sched(0, 0, true, true);

    // SM0 (tenant 0) hosts a walk for tenant 1 in issue slots [20,30).
    feed.pwHosted(0, 1);
    feed.pwReserve(0, 20, 30, 1);
    ledger.syncAll(50);

    EXPECT_EQ(ledger.account(0, LedgerCategory::MemWait), 40u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::PwOccupancy), 10u);
    EXPECT_EQ(ledger.hostedCycles(0, 1), 10u);
    EXPECT_EQ(ledger.hostedWalks(0, 1), 1u);
    EXPECT_EQ(ledger.hostedCycles(1, 0), 0u);
    EXPECT_EQ(ledger.asidAccount(0, LedgerCategory::PwOccupancy), 10u);
    EXPECT_EQ(ledger.auditConservation(50), "");
}

TEST(CycleLedger, PwOccupancyStalledCountsOnlyStallCarvedCycles)
{
    LedgerStream feed;
    CycleLedger &ledger = feed.ledger;
    ledger.attach({0}, 0);

    // [0,40) stalled with a [10,20) reservation: 10 stall-carved cycles.
    feed.sched(0, 0, true, true);
    feed.pwReserve(0, 10, 20, 0);
    ledger.syncAll(40);
    EXPECT_EQ(ledger.pwOccupancyStalled(), 10u);

    // [40,80) issuing with a [50,60) reservation: carved to PwOccupancy
    // but NOT stall-carved — the scheduler never counted those cycles.
    feed.sched(0, 40, true, false);
    feed.pwReserve(0, 50, 60, 0);
    ledger.syncAll(80);
    EXPECT_EQ(ledger.account(0, LedgerCategory::PwOccupancy), 20u);
    EXPECT_EQ(ledger.pwOccupancyStalled(), 10u);
    EXPECT_EQ(ledger.auditConservation(80), "");

    // Reconstructs the scheduler's view: stall accounts + stall-carved
    // PwOccupancy == the [0,40) stall window.
    Cycle stall = ledger.account(0, LedgerCategory::MemWait);
    EXPECT_EQ(stall + ledger.pwOccupancyStalled(), 40u);

    // reset() zeroes it with the rest of the accounts.
    ledger.reset(80);
    EXPECT_EQ(ledger.pwOccupancyStalled(), 0u);
}

TEST(CycleLedger, PwReservationSplitsAcrossSyncPoints)
{
    LedgerStream feed;
    CycleLedger &ledger = feed.ledger;
    ledger.attach({0}, 0);
    feed.sched(0, 0, true, true);

    // A reservation straddling a sync must carve exactly once per half.
    feed.pwReserve(0, 10, 30, 0);
    ledger.syncAll(20);
    EXPECT_EQ(ledger.account(0, LedgerCategory::PwOccupancy), 10u);
    ledger.syncAll(40);
    EXPECT_EQ(ledger.account(0, LedgerCategory::PwOccupancy), 20u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::MemWait), 20u);
    EXPECT_EQ(ledger.auditConservation(40), "");
}

TEST(CycleLedger, PerAsidAccountsSumTheirSmSlices)
{
    LedgerStream feed;
    CycleLedger &ledger = feed.ledger;
    ledger.attach({0, 0, 1}, 0); // tenant 0 owns two SMs, tenant 1 one
    ledger.syncAll(100);
    EXPECT_EQ(ledger.asidAccount(0, LedgerCategory::Idle), 200u);
    EXPECT_EQ(ledger.asidAccount(1, LedgerCategory::Idle), 100u);
    EXPECT_EQ(ledger.auditConservation(100), "");
}

TEST(CycleLedger, ResetZeroesAccountsButKeepsMachineState)
{
    LedgerStream feed;
    CycleLedger &ledger = feed.ledger;
    ledger.attach({0}, 0);
    feed.sched(0, 0, true, true);
    feed.emit(LifecyclePhase::L1Miss, 0, 0, kKeyA);
    ledger.syncAll(50);
    EXPECT_EQ(ledger.account(0, LedgerCategory::TransL1Miss), 50u);

    // Warmup-end: the measurement window restarts, the machine does not.
    ledger.reset(60);
    EXPECT_EQ(ledger.account(0, LedgerCategory::TransL1Miss), 0u);
    ledger.syncAll(100);
    EXPECT_EQ(ledger.account(0, LedgerCategory::TransL1Miss), 40u);
    EXPECT_EQ(ledger.account(0, LedgerCategory::MemWait), 0u);
    EXPECT_EQ(ledger.auditConservation(100), "");
}

TEST(CycleLedger, DumpJsonCarriesTheFullBreakdown)
{
    LedgerStream feed;
    CycleLedger &ledger = feed.ledger;
    ledger.attach({0, 1}, 0);
    feed.pwHosted(0, 1);
    ledger.syncAll(25);

    std::string json = ledger.dumpJson();
    EXPECT_NE(json.find("\"elapsed\":25"), std::string::npos);
    EXPECT_NE(json.find("\"per_sm\":["), std::string::npos);
    EXPECT_NE(json.find("\"per_asid\":["), std::string::npos);
    EXPECT_NE(json.find("\"interference\":["), std::string::npos);
    EXPECT_NE(json.find("\"totals\":{"), std::string::npos);
    EXPECT_NE(json.find("\"idle\":25"), std::string::npos);
}

TEST(CycleLedger, RegisterStatsExposesEveryAccount)
{
    StatRegistry registry;
    LedgerStream feed;
    CycleLedger &ledger = feed.ledger;
    ledger.attach({0, 1}, 0);
    ledger.registerStats(registry.root().group("ledger"));

    EXPECT_TRUE(registry.has("ledger.sm0.idle"));
    EXPECT_TRUE(registry.has("ledger.sm1.trans_pw_exec"));
    EXPECT_TRUE(registry.has("ledger.asid0.mem_wait"));
    EXPECT_TRUE(registry.has("ledger.asid1.pw_occupancy"));
    EXPECT_TRUE(registry.has("ledger.asid0.hosted_cycles.asid1"));
    EXPECT_TRUE(registry.has("ledger.asid0.hosted_walks.asid1"));
    EXPECT_TRUE(registry.has("ledger.elapsed"));
}

// ------------------------------------------------- conservation audit --

TEST(CycleLedgerAudit, CorruptedSmAccountIsDetected)
{
    CycleLedger ledger;
    ledger.attach({0, 0}, 0);
    ledger.syncAll(100);
    ASSERT_EQ(ledger.auditConservation(100), "");

    AuditTester::ledgerAccount(ledger, 0, LedgerCategory::Idle) += 7;
    std::string err = ledger.auditConservation(100);
    EXPECT_NE(err.find("sm0"), std::string::npos) << err;
    EXPECT_NE(err.find("leaks cycles"), std::string::npos) << err;
}

TEST(CycleLedgerAudit, CorruptedAsidAccountIsDetected)
{
    CycleLedger ledger;
    ledger.attach({0, 1}, 0);
    ledger.syncAll(100);
    ASSERT_EQ(ledger.auditConservation(100), "");

    // Per-SM rows still foot; only the tenant rollup is off by one.
    AuditTester::ledgerAsidAccount(ledger, 1, LedgerCategory::MemWait) += 1;
    std::string err = ledger.auditConservation(100);
    EXPECT_NE(err.find("asid1"), std::string::npos) << err;
}

TEST(CycleLedgerAudit, FutureSpanStartIsDetected)
{
    CycleLedger ledger;
    ledger.attach({0}, 0);
    ledger.syncAll(100);
    ASSERT_EQ(ledger.auditConservation(100), "");

    AuditTester::ledgerSpanStart(ledger, 0) = 250;
    std::string err = ledger.auditConservation(100);
    EXPECT_NE(err.find("future"), std::string::npos) << err;
}

TEST(CycleLedgerAudit, OpenSpansCountTowardConservation)
{
    // The audit must hold between syncs too: an SM with an open span is
    // conserved because the open time is counted, not because the
    // accounts happen to be current.
    LedgerStream feed;
    CycleLedger &ledger = feed.ledger;
    ledger.attach({0}, 0);
    feed.sched(0, 10, true, false);
    EXPECT_EQ(ledger.auditConservation(75), "");
    ledger.syncAll(75);
    EXPECT_EQ(ledger.auditConservation(75), "");
}

} // namespace
