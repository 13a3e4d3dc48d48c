/**
 * @file
 * Negative-path tests for every registered conservation audit.
 *
 * Each test corrupts one piece of private bookkeeping through AuditTester
 * (a friend of the audited components) and asserts the matching audit
 * fires under FailurePolicy::Record.  Positive runs first prove the full
 * audit set stays silent on healthy simulations in every translation mode.
 */

#include <gtest/gtest.h>

#include <memory>

#include "check/audit_tester.hh"
#include "core/softwalker.hh"
#include "gpu/gpu.hh"
#include "test_util.hh"
#include "workload/generators.hh"

using namespace sw;

namespace {

std::unique_ptr<Workload>
irregularWorkload()
{
    GraphWorkload::Params params;
    params.pagesPerInstr = 0.5;
    return std::make_unique<GraphWorkload>("audit", 256ull << 20, true, 10,
                                           params);
}

/** GPU with recorded (non-fatal) audits sweeping every 500 cycles. */
std::unique_ptr<Gpu>
makeGpu(GpuConfig cfg)
{
    cfg.auditIntervalCycles = 500;
    auto gpu = std::make_unique<Gpu>(cfg, irregularWorkload());
    gpu->auditor().setPolicy(Auditor::FailurePolicy::Record);
    return gpu;
}

void
runQuota(Gpu &gpu, std::uint64_t quota = 300)
{
    Gpu::RunLimits limits;
    limits.warpInstrQuota = quota;
    gpu.run(limits);
}

/** A healthy run in every mode: sweeps happen, nothing fires. */
TEST(AuditPositive, AllModesRunClean)
{
    for (TranslationMode mode :
         {TranslationMode::HardwarePtw, TranslationMode::SoftWalker,
          TranslationMode::Hybrid, TranslationMode::Ideal}) {
        GpuConfig cfg = test::smallSoftWalkerConfig();
        cfg.mode = mode;
        if (mode == TranslationMode::HardwarePtw ||
            mode == TranslationMode::Ideal)
            cfg.inTlbMshrMax = 0;
        auto gpu = makeGpu(cfg);
        installWalkBackend(*gpu);
        runQuota(*gpu);
        EXPECT_GT(gpu->auditor().stats().sweeps, 0u)
            << toString(mode);
        EXPECT_TRUE(gpu->auditor().violations().empty())
            << toString(mode) << ": "
            << (gpu->auditor().violations().empty()
                    ? ""
                    : gpu->auditor().violations().front().audit + ": " +
                          gpu->auditor().violations().front().detail);
    }
}

/** The issue's floor: at least eight distinct conservation invariants. */
TEST(AuditPositive, RegistersTheFullInvariantCatalogue)
{
    GpuConfig cfg = test::smallSoftWalkerConfig();
    cfg.mode = TranslationMode::Hybrid;
    auto gpu = makeGpu(cfg);
    installWalkBackend(*gpu);

    const Auditor &auditor = gpu->auditor();
    EXPECT_GE(auditor.numAudits(), 8u);
    for (const char *name :
         {"sim.event-queue.monotonic-time", "gpu.stats.cross-foot",
          "vm.tlb.pending-count", "vm.l2.mshr-conservation",
          "vm.l2.walks-vs-backend", "vm.l2.no-leaked-miss",
          "vm.ptw.slot-conservation", "vm.ptw.inflight-conservation",
          "core.distributor.credit-conservation",
          "core.pwwarp.slot-lifecycle", "mem.cache.mshr-capacity",
          "mem.cache.no-leaked-mshr", "vm.tlb.no-cross-asid-leak",
          "gpu.requests.no-leaked-record", "vm.walks.no-leaked-record"})
        EXPECT_TRUE(auditor.hasAudit(name)) << name;
}

// ---------------------------------------------------------------- sim --

TEST(AuditNegative, EventClockMovingBackwardsFires)
{
    auto gpu = makeGpu(test::smallConfig());
    runQuota(*gpu);
    ASSERT_GT(gpu->cycles(), 0u);
    gpu->auditor().clearViolations();

    AuditTester::rewindClock(gpu->eventQueue(), 0);
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(gpu->auditor().fired("sim.event-queue.monotonic-time"));
}

TEST(AuditNegative, LeakedRequestRecordFiresWhenQuiescent)
{
    auto gpu = makeGpu(test::smallConfig());
    runQuota(*gpu);
    EXPECT_FALSE(gpu->auditor().fired("gpu.requests.no-leaked-record"));

    gpu->memory().requests().alloc({.addr = 0x80});
    gpu->auditor().finalCheck(gpu->cycles(), /*quiescent=*/true);
    EXPECT_TRUE(gpu->auditor().fired("gpu.requests.no-leaked-record"));

    // While the machine is still running records are in flight legally.
    gpu->auditor().clearViolations();
    gpu->auditor().checkNow(gpu->cycles(), /*quiescent=*/false);
    EXPECT_FALSE(gpu->auditor().fired("gpu.requests.no-leaked-record"));
}

TEST(AuditNegative, StatsThatDoNotCrossFootFire)
{
    auto gpu = makeGpu(test::smallConfig());
    runQuota(*gpu);
    gpu->auditor().clearViolations();

    ++AuditTester::engineStats(gpu->engine()).requests;
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(gpu->auditor().fired("gpu.stats.cross-foot"));

    gpu->auditor().clearViolations();
    ++AuditTester::engineStats(gpu->engine()).l2Accesses;
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(gpu->auditor().fired("gpu.stats.cross-foot"));
}

// ----------------------------------------------------------------- vm --

TEST(AuditNegative, DriftedTlbPendingCounterFires)
{
    auto gpu = makeGpu(test::smallConfig());
    runQuota(*gpu);
    gpu->auditor().clearViolations();

    ++AuditTester::tlbPendingCounter(AuditTester::l2Tlb(gpu->engine()));
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(gpu->auditor().fired("vm.tlb.pending-count"));
}

/** Mandated scenario: deliberately leak an In-TLB MSHR. */
TEST(AuditNegative, LeakedInTlbMshrFires)
{
    auto gpu = makeGpu(test::smallSoftWalkerConfig());
    installWalkBackend(*gpu);
    runQuota(*gpu);
    gpu->auditor().clearViolations();

    // A pending L2 TLB way with no outstanding-walk track: the In-TLB
    // MSHR was allocated but its walk will never clear it.
    ASSERT_TRUE(AuditTester::l2Tlb(gpu->engine()).allocPending({0, 0x1234}));
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(gpu->auditor().fired("vm.l2.mshr-conservation"));

    // At end-of-sim the same leak violates "every L2 miss resolved".
    gpu->auditor().clearViolations();
    gpu->auditor().finalCheck(gpu->cycles(), /*quiescent=*/true);
    EXPECT_TRUE(gpu->auditor().fired("vm.l2.no-leaked-miss"));
}

/** A TLB entry tagged with an ASID the machine never created. */
TEST(AuditNegative, UnknownAsidInTlbFires)
{
    auto gpu = makeGpu(test::smallConfig());
    runQuota(*gpu);
    gpu->auditor().clearViolations();

    // Single-tenant machine: ASID 1 has no address space.
    ASSERT_TRUE(AuditTester::l2Tlb(gpu->engine()).fill({1, 0x42}, 7));
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(gpu->auditor().fired("vm.tlb.no-cross-asid-leak"));
}

/** A cached PFN disagreeing with the owning address space's mapping. */
TEST(AuditNegative, CrossAsidPfnLeakFires)
{
    auto gpu = makeGpu(test::smallConfig());
    runQuota(*gpu);
    gpu->auditor().clearViolations();

    // A valid ASID caching a PFN its page table never handed out models a
    // fill that crossed tenants (or corrupted the translation).
    ASSERT_TRUE(
        AuditTester::l2Tlb(gpu->engine()).fill({0, 0xdeadbeef}, 0x31337));
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(gpu->auditor().fired("vm.tlb.no-cross-asid-leak"));
}

TEST(AuditNegative, DriftedRegularMshrCounterFires)
{
    auto gpu = makeGpu(test::smallConfig());
    runQuota(*gpu);
    gpu->auditor().clearViolations();

    ++AuditTester::regularMshrInUse(gpu->engine());
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(gpu->auditor().fired("vm.l2.mshr-conservation"));
}

/** A backend claiming more walks than the engine tracks is lying. */
TEST(AuditNegative, BackendInFlightAboveTrackedWalksFires)
{
    auto gpu = makeGpu(test::smallConfig());
    runQuota(*gpu);
    gpu->auditor().clearViolations();

    auto *pool = static_cast<HardwarePtwPool *>(gpu->engine().backend());
    ASSERT_NE(pool, nullptr);
    ++AuditTester::ptwInFlight(*pool);
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(gpu->auditor().fired("vm.l2.walks-vs-backend"));
}

/** Mandated scenario: a backend that drops PTW completions on the floor. */
TEST(AuditNegative, DroppedWalkCompletionFiresAtEndOfSim)
{
    class DroppingBackend : public WalkBackend
    {
      public:
        void submit(WalkId) override { ++dropped; }
        std::uint64_t inFlight() const override { return dropped; }
        void ptReadDone(std::uint32_t, std::uint32_t) override {}
        std::string name() const override { return "dropping"; }
        void resetStats() override {}
        std::uint64_t dropped = 0;
    };

    // SoftWalker mode so construction installs no backend of its own.
    auto gpu = makeGpu(test::smallSoftWalkerConfig());
    auto backend = std::make_unique<DroppingBackend>();
    DroppingBackend *raw = backend.get();
    gpu->installBackend(std::move(backend));

    // Every warp eventually blocks on a swallowed walk; the queue drains
    // with the quota unmet and the machine quiescent-but-leaking.
    runQuota(*gpu);
    ASSERT_GT(raw->dropped, 0u);
    ASSERT_TRUE(gpu->eventQueue().empty());
    EXPECT_TRUE(gpu->auditor().fired("vm.l2.no-leaked-miss"));
    // The swallowed walks' records are never freed either.
    EXPECT_TRUE(gpu->auditor().fired("vm.walks.no-leaked-record"));
    EXPECT_EQ(gpu->engine().walks().live(), raw->dropped);
}

TEST(AuditNegative, LeakedWalkRecordFiresWhenQuiescent)
{
    auto gpu = makeGpu(test::smallConfig());
    runQuota(*gpu);
    EXPECT_FALSE(gpu->auditor().fired("vm.walks.no-leaked-record"));

    gpu->engine().walks().alloc({.key = {0, 0x80}});
    gpu->auditor().finalCheck(gpu->cycles(), /*quiescent=*/true);
    EXPECT_TRUE(gpu->auditor().fired("vm.walks.no-leaked-record"));

    // While the machine is still running walks are in flight legally.
    gpu->auditor().clearViolations();
    gpu->auditor().checkNow(gpu->cycles(), /*quiescent=*/false);
    EXPECT_FALSE(gpu->auditor().fired("vm.walks.no-leaked-record"));
}

TEST(AuditNegative, LostPtwWalkerSlotFires)
{
    auto gpu = makeGpu(test::smallConfig());
    runQuota(*gpu);
    gpu->auditor().clearViolations();

    auto *pool = static_cast<HardwarePtwPool *>(gpu->engine().backend());
    ASSERT_NE(pool, nullptr);
    ASSERT_FALSE(AuditTester::ptwIdleSlots(*pool).empty());
    AuditTester::ptwIdleSlots(*pool).pop_back();
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(gpu->auditor().fired("vm.ptw.slot-conservation"));
}

TEST(AuditNegative, PtwInFlightImbalanceFires)
{
    auto gpu = makeGpu(test::smallConfig());
    runQuota(*gpu);
    gpu->auditor().clearViolations();

    auto *pool = static_cast<HardwarePtwPool *>(gpu->engine().backend());
    ASSERT_NE(pool, nullptr);
    ++AuditTester::ptwInFlight(*pool);
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(gpu->auditor().fired("vm.ptw.inflight-conservation"));
}

// --------------------------------------------------------------- core --

TEST(AuditNegative, DistributorCreditChargedWithoutDispatchFires)
{
    auto gpu = makeGpu(test::smallSoftWalkerConfig());
    installWalkBackend(*gpu);
    runQuota(*gpu);
    gpu->auditor().clearViolations();

    SoftWalkerBackend *backend = softWalkerOf(*gpu);
    ASSERT_NE(backend, nullptr);
    ASSERT_NE(AuditTester::distributor(*backend).select(), kInvalidSm);
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(
        gpu->auditor().fired("core.distributor.credit-conservation"));
}

TEST(AuditNegative, ProcessingSlotUnderIdleWarpFires)
{
    auto gpu = makeGpu(test::smallSoftWalkerConfig());
    installWalkBackend(*gpu);
    runQuota(*gpu);
    gpu->auditor().clearViolations();

    SoftWalkerBackend *backend = softWalkerOf(*gpu);
    ASSERT_NE(backend, nullptr);
    SoftPwb &pwb = AuditTester::softPwb(*backend, 0);
    ASSERT_EQ(pwb.slot(0).state, SoftPwb::SlotState::Invalid);
    pwb.slot(0).state = SoftPwb::SlotState::Processing;
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(gpu->auditor().fired("core.pwwarp.slot-lifecycle"));
}

/**
 * Replacing an installed backend would destroy it under its registered
 * audits (they capture the backend); the GPU refuses.
 */
TEST(AuditNegative, ReinstallingABackendPanics)
{
    auto gpu = makeGpu(test::smallSoftWalkerConfig());
    installWalkBackend(*gpu);
    EXPECT_DEATH(installWalkBackend(*gpu),
                 "walk backend is already installed");
}

// ---------------------------------------------------------------- obs --

/**
 * The cycle ledger's conservation audit registers with the machine's
 * auditor when observability is installed, and fires on a real run the
 * moment any closed account drifts from elapsed time.
 */
TEST(AuditNegative, LedgerCycleLeakFires)
{
    auto gpu = makeGpu(test::smallSoftWalkerConfig());
    installWalkBackend(*gpu);
    CycleLedger ledger;
    Observability obs;
    obs.ledger = &ledger;
    gpu->installObservability(obs);
    ASSERT_TRUE(gpu->auditor().hasAudit("obs.ledger.cycles-conserved"));

    runQuota(*gpu);
    gpu->auditor().clearViolations();

    AuditTester::ledgerAccount(ledger, 0, LedgerCategory::MemWait) += 3;
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(gpu->auditor().fired("obs.ledger.cycles-conserved"));
}

/** The per-tenant rollup is audited independently of the per-SM rows. */
TEST(AuditNegative, LedgerAsidRollupLeakFires)
{
    auto gpu = makeGpu(test::smallSoftWalkerConfig());
    installWalkBackend(*gpu);
    CycleLedger ledger;
    Observability obs;
    obs.ledger = &ledger;
    gpu->installObservability(obs);

    runQuota(*gpu);
    gpu->auditor().clearViolations();

    AuditTester::ledgerAsidAccount(ledger, 0, LedgerCategory::Idle) += 1;
    gpu->auditor().checkNow(gpu->cycles());
    EXPECT_TRUE(gpu->auditor().fired("obs.ledger.cycles-conserved"));
}

// ---------------------------------------------------------------- mem --

TEST(AuditNegative, CacheMshrsPastCapacityFire)
{
    auto gpu = makeGpu(test::smallConfig());
    Cache &l1d = AuditTester::l1d(gpu->memory(), 0);
    for (std::uint64_t i = 0; i <= l1d.params().mshrEntries; ++i)
        AuditTester::insertFakeMshr(l1d, i * l1d.params().sectorBytes);
    gpu->auditor().checkNow(0);
    EXPECT_TRUE(gpu->auditor().fired("mem.cache.mshr-capacity"));
}

TEST(AuditNegative, LeakedCacheMshrFiresWhenQuiescent)
{
    auto gpu = makeGpu(test::smallConfig());
    runQuota(*gpu);
    gpu->auditor().clearViolations();

    AuditTester::insertFakeMshr(AuditTester::l2d(gpu->memory()), 0x80);
    gpu->auditor().finalCheck(gpu->cycles(), /*quiescent=*/true);
    EXPECT_TRUE(gpu->auditor().fired("mem.cache.no-leaked-mshr"));

    // While the machine is still running the same state is legal.
    gpu->auditor().clearViolations();
    gpu->auditor().checkNow(gpu->cycles(), /*quiescent=*/false);
    EXPECT_FALSE(gpu->auditor().fired("mem.cache.no-leaked-mshr"));
}

} // namespace
