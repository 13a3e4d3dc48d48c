/**
 * @file
 * Test-only friend of every audited component.
 *
 * Negative-path audit tests corrupt private bookkeeping through these
 * accessors to prove each registered conservation invariant can actually
 * fire; the product code never grows test-only mutators.  This header is
 * compiled into sw_tests only.
 */

#ifndef SW_TESTS_CHECK_AUDIT_TESTER_HH
#define SW_TESTS_CHECK_AUDIT_TESTER_HH

#include <cstdint>
#include <vector>

#include "core/softwalker.hh"
#include "gpu/gpu.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "obs/cycle_ledger.hh"
#include "sim/event_queue.hh"
#include "vm/ptw.hh"
#include "vm/tlb.hh"
#include "vm/translation.hh"

namespace sw {

struct AuditTester
{
    // ---- sim --------------------------------------------------------
    /** Force the event clock backwards (a bug no real event can cause). */
    static void
    rewindClock(EventQueue &eq, Cycle cycle)
    {
        eq.curCycle = cycle;
    }

    // ---- vm ---------------------------------------------------------
    /** Drift the running pending-way counter away from the array. */
    static std::uint32_t &
    tlbPendingCounter(TlbArray &tlb)
    {
        return tlb.numPending;
    }

    /** Non-const L2 TLB array (leak an In-TLB MSHR via allocPending). */
    static TlbArray &
    l2Tlb(TranslationEngine &engine)
    {
        return engine.l2Array;
    }

    static std::uint32_t &
    regularMshrInUse(TranslationEngine &engine)
    {
        return engine.regularMshrInUse;
    }

    static TranslationEngine::Stats &
    engineStats(TranslationEngine &engine)
    {
        return engine.stats_;
    }

    static std::vector<std::uint32_t> &
    ptwIdleSlots(HardwarePtwPool &pool)
    {
        return pool.idleSlots;
    }

    static std::uint64_t &
    ptwInFlight(HardwarePtwPool &pool)
    {
        return pool.inFlightCount;
    }

    // ---- core -------------------------------------------------------
    static RequestDistributor &
    distributor(SoftWalkerBackend &backend)
    {
        return *backend.distributor_;
    }

    static SoftPwb &
    softPwb(SoftWalkerBackend &backend, SmId sm)
    {
        return backend.controllers.at(sm)->pwb;
    }

    // ---- obs --------------------------------------------------------
    /** Drift one closed per-SM ledger account away from elapsed time. */
    static Cycle &
    ledgerAccount(CycleLedger &ledger, SmId sm, LedgerCategory cat)
    {
        return ledger.sms_.at(sm).accounts[static_cast<std::size_t>(cat)];
    }

    /** Drift a per-ASID ledger account away from its SMs' sum. */
    static Cycle &
    ledgerAsidAccount(CycleLedger &ledger, Asid asid, LedgerCategory cat)
    {
        return ledger.asidAccounts_.at(asid)[static_cast<std::size_t>(cat)];
    }

    /** Push an SM's open-span start (legal only in the past). */
    static Cycle &
    ledgerSpanStart(CycleLedger &ledger, SmId sm)
    {
        return ledger.sms_.at(sm).spanStart;
    }

    // ---- mem --------------------------------------------------------
    static Cache &
    l1d(MemorySystem &mem, SmId sm)
    {
        return *mem.l1dCaches.at(sm);
    }

    static Cache &
    l2d(MemorySystem &mem)
    {
        return *mem.l2dCache;
    }

    /** Plant an MSHR entry no fill will ever clear. */
    static void
    insertFakeMshr(Cache &cache, std::uint64_t sector_addr)
    {
        if (!cache.mshrs.find(sector_addr))
            cache.mshrs.insert(sector_addr);
    }
};

} // namespace sw

#endif // SW_TESTS_CHECK_AUDIT_TESTER_HH
