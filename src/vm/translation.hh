/**
 * @file
 * Translation engine: the full GPU address-translation path of Fig 2.
 *
 * Per-SM L1 TLBs with MSHRs feed the shared L2 TLB; L2 misses allocate a
 * regular MSHR — or, when those are exhausted and In-TLB MSHR is enabled,
 * repurpose an L2 TLB entry (§4.5) — consult the page walk cache, and hand a
 * Walk to the configured backend (hardware PTW pool, SoftWalker, or
 * hybrid).  Completions fill the TLBs, wake all merged waiters, and record
 * the queueing-delay / access-latency split the paper's Figs 7 and 18 plot.
 *
 * The whole path is keyed by TranslationKey {asid, vpn}: each tenant
 * resolves against its own page table (AddressSpaceManager), TLB/PWC/MSHR
 * entries are ASID-tagged, and per-tenant counters keep attribution
 * separable.  A single-tenant machine runs everything at ASID 0 and is
 * bit-identical to the pre-multi-tenant engine.
 */

#ifndef SW_VM_TRANSLATION_HH
#define SW_VM_TRANSLATION_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/memory_system.hh"
#include "mem/request.hh"
#include "obs/lifecycle.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"
#include "vm/address_space.hh"
#include "vm/fault_buffer.hh"
#include "vm/page_walk_cache.hh"
#include "vm/subentry_tlb.hh"
#include "vm/tlb.hh"
#include "vm/walk.hh"

namespace sw {

class Auditor;

/** Outcome of a functional (zero-time) translation touch. */
enum class TouchResult
{
    L1Hit,
    L2Hit,
    Walk,   ///< missed both TLB levels; a full walk ran functionally
};

/**
 * Orchestrates L1 TLB -> L2 TLB -> PWC -> walk backend.  Translations and
 * page-table reads are RequestPool records (mem/request.hh); MSHR files
 * are FlatMaps of intrusive request FIFOs.
 */
class TranslationEngine : public PtReader, private RequestSink
{
  public:
    struct Stats
    {
        std::uint64_t requests = 0;
        std::uint64_t l1Hits = 0;
        std::uint64_t l1Misses = 0;
        std::uint64_t l1MshrMerges = 0;
        std::uint64_t l1MshrFailures = 0;
        std::uint64_t l2Accesses = 0;
        std::uint64_t l2Hits = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t l2MshrMerges = 0;
        /** Rejected reservation attempts at the L2 TLB ("MSHR failures"). */
        std::uint64_t l2MshrFailures = 0;
        std::uint64_t inTlbMshrAllocs = 0;
        std::uint64_t walksCreated = 0;
        std::uint64_t walksCompleted = 0;
        std::uint64_t faults = 0;
        std::uint64_t regularMshrPeak = 0;
        std::uint64_t inTlbMshrPeak = 0;
        LatencyStat walkQueueDelay;
        LatencyStat walkAccessLatency;
        LatencyStat translationLatency;   ///< translate() -> completion
        LatencyStat ptReadLatency;        ///< per page-table memory read
    };

    /** Per-tenant attribution (registered only when tenants > 1). */
    struct TenantStats
    {
        std::uint64_t requests = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t walksCompleted = 0;
        LatencyStat walkQueueDelay;       ///< walk-queue interference metric
        LatencyStat translationLatency;
    };

    /**
     * Requests come from (and PTE reads go to) @p mem's RequestPool; every
     * lifecycle transition is emitted into @p lifecycle.
     */
    TranslationEngine(EventQueue &eq, const GpuConfig &cfg,
                      MemorySystem &mem, AddressSpaceManager &spaces,
                      const LifecycleStream &lifecycle);
    ~TranslationEngine();

    TranslationEngine(const TranslationEngine &) = delete;
    TranslationEngine &operator=(const TranslationEngine &) = delete;

    /** Install the walk backend (must happen before the first miss). */
    void setBackend(std::unique_ptr<WalkBackend> backend);
    WalkBackend *backend() { return walkBackend.get(); }

    /**
     * Translate the Done::Translation request @p id: key {asid, addr} for
     * SM unit.  It completes through the pool with addr set to the PFN.
     */
    void translate(RequestId id);

    /**
     * Functional warmup touch (fast-forward, §checkpoints doc): performs
     * the same TLB/PWC/page-table state transitions as a timed translate
     * — L1 lookup, L2 lookup + L1 fill, or a complete walk with PWC fills
     * and TLB fills — but consumes no simulated time and allocates no
     * MSHR / queue state.  Pages are mapped on first touch.
     */
    TouchResult functionalTouch(SmId sm, TranslationKey key);

    /**
     * Page-table memory read used by all walk backends: routes to the
     * PTE path of the memory hierarchy, or to the fixed latency of the
     * Fig 23 sensitivity sweep, then answers the backend's ptReadDone().
     */
    void ptRead(PhysAddr addr, std::uint32_t walker,
                std::uint32_t lane) override;

    /** Walk-completion entry point, bound into backends at construction. */
    WalkCompleteFn
    completionFn()
    {
        return [this](WalkId walk) { onWalkComplete(walk); };
    }

    /**
     * Every walk in flight, from createWalk() until its completion frees
     * it; backends read and advance the records they are handed.
     */
    WalkPool &walks() { return walks_; }
    const WalkPool &walks() const { return walks_; }

    /**
     * When false, walks on unmapped pages fault into the Fault Buffer and
     * are replayed after the OS maps the page (UVM flow, §5.5).  Default
     * true: the OS maps pages on first touch, so no walk faults.
     */
    void setMapOnDemand(bool on) { mapOnDemand = on; }

    /**
     * TLB shootdown: drop @p key from every L1 TLB and the L2 TLB (page
     * migration / unmap).  In-flight walks are not cancelled — as in real
     * GPUs, the driver orders shootdowns against outstanding translations.
     */
    void shootdown(TranslationKey key);

    /**
     * ASID-selective flush (tenant teardown / context switch): drop every
     * *valid* entry belonging to @p asid from all L1 TLBs, the L2 TLB, and
     * the PWC.  Other tenants' entries are untouched; pending (In-TLB
     * MSHR) ways survive until their walks complete, like shootdown().
     */
    void flushAsid(Asid asid);

    PageWalkCache &pwc() { return pwcCache; }
    const PageWalkCache &pwc() const { return pwcCache; }
    /** The single-tenant (ASID 0) page table. */
    PageTableBase &pageTable() { return spaces_.tableFor(0); }
    AddressSpaceManager &spaces() { return spaces_; }
    const TlbArray &l2Tlb() const { return l2Array; }
    const FaultBuffer &faultBuffer() const { return faults_; }
    /** Zero all statistics (engine, TLBs, PWC) after warmup. */
    void resetStats();

    const Stats &stats() const { return stats_; }
    /** Per-tenant counters; always sized config().numTenants. */
    const TenantStats &tenantStats(Asid asid) const
    {
        return tenantStats_.at(asid);
    }
    const GpuConfig &config() const { return cfg; }
    EventQueue &eventQueue() { return eventq; }

    /** Outstanding L2 misses currently tracked (regular + In-TLB). */
    std::size_t outstandingWalks() const { return outstanding.size(); }

    /**
     * Register the translation-path conservation audits: In-TLB MSHR /
     * regular-MSHR bookkeeping, TLB pending counters, backend in-flight
     * accounting, cross-ASID PFN containment, and the end-of-sim "every
     * L2 miss resolved" check.
     */
    void registerAudits(Auditor &auditor);

    /**
     * Register the whole translation path with the unified stat registry:
     * per-SM L1 TLBs ("sm<N>.l1tlb.*"), the L2 TLB and its MSHRs
     * ("l2tlb.*", "l2tlb.intlb_mshr.*"), walks, the PWC, the fault
     * buffer, per-tenant groups ("tenant<N>.*", multi-tenant only), and
     * the installed backend ("ptw.*" / "softwalker.*").
     */
    void registerStats(StatGroup root);

    /**
     * Serialise the full translation path (L1/L2 TLBs, PWC, fault buffer,
     * walk counters, the installed backend) into a checkpoint.  Must only
     * be called at a quiesced tick: no MSHRs held, no parked requesters,
     * no outstanding walks.
     */
    void saveState(CkptWriter &w) const;

    /** Restore state saved by saveState(). */
    void restoreState(CkptReader &r);

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    /** Tracking record for one outstanding L2 TLB miss. */
    struct L2Track
    {
        bool inTlbSlot = false;     ///< held in an In-TLB MSHR
        std::uint32_t merges = 0;
        RequestFifo waiters;        ///< L2 requests, one per waiting SM
    };

    /** Key of a translation or L2 request record. */
    TranslationKey
    keyOf(RequestId id) const
    {
        return TranslationKey{pool[id].asid, pool[id].addr};
    }

    void l1Lookup(RequestId id);
    /**
     * Send SM @p sm's L1 miss on @p key to the L2 TLB as an engine-private
     * L2 request record (unit = SM, start = L2 arrival).
     */
    void sendToL2(SmId sm, TranslationKey key);
    void l2Access(RequestId id);
    /**
     * Merge L2 request @p id into or allocate L2 miss tracking; false when
     * saturated.  Its start is when it first reached the L2 TLB — walk
     * queueing delay is measured from there (§3.2), so time spent waiting
     * for an MSHR counts as queueing.
     */
    bool tryHandleL2Miss(RequestId id);
    void drainL2WaitQueue();
    void drainL1WaitQueue(SmId sm);
    void createWalk(TranslationKey key, Cycle created);
    void onWalkComplete(WalkId walk);
    void resolveL1(SmId sm, TranslationKey key, Pfn pfn);
    /** A PTE read returned from the memory hierarchy. */
    void requestDone(RequestId id) override;
    void finishPtRead(RequestId id);

    // L2 array dispatch: the conventional TlbArray or (when configured)
    // the sub-entry-sharing SubEntryTlb of Li et al.
    bool l2Lookup(TranslationKey key, Pfn &pfn);
    void l2Fill(TranslationKey key, Pfn pfn);
    void l2Invalidate(TranslationKey key);

    EventQueue &eventq;
    GpuConfig cfg;
    MemorySystem &mem;
    RequestPool &pool;
    AddressSpaceManager &spaces_;
    const LifecycleStream &lifecycle_;

    std::vector<TlbArray> l1Arrays;
    /** Per-SM L1 MSHRs: key -> waiting translations, in arrival order. */
    std::vector<FlatMap<TranslationKey, RequestFifo>> l1Mshrs;

    /** Translations rejected by a full L1 MSHR file, woken on any resolve. */
    std::vector<RequestFifo> l1Parked;

    /** L2 requests rejected for lack of miss-tracking capacity. */
    RequestFifo l2Parked;

    TlbArray l2Array;
    std::unique_ptr<SubEntryTlb> subL2;   ///< replaces l2Array when set
    FlatMap<TranslationKey, L2Track> outstanding{kNoTranslationKey};
    std::uint32_t regularMshrInUse = 0;
    bool idealMshrs = false;

    PageWalkCache pwcCache;
    WalkPool walks_;
    FaultBuffer faults_;
    std::unique_ptr<WalkBackend> walkBackend;
    std::uint64_t nextWalkId = 1;
    bool mapOnDemand = true;

    /** Driver-side page-fault service time (UVM replay, §5.5). */
    static constexpr Cycle kOsFaultLatency = 2000;

    Stats stats_;
    std::vector<TenantStats> tenantStats_;
};

} // namespace sw

#endif // SW_VM_TRANSLATION_HH
