/**
 * @file
 * Page Walk Warp (§4.2, §4.6): the dedicated, isolated warp resident on
 * each SM that executes the Fig 14 software page-walk routine.
 *
 * The warp sits in a wait-execute loop.  When the SoftWalker Controller
 * signals valid SoftPWB entries, it claims a batch (one request per lane,
 * up to 32), charges the SM issue port for the routine's instructions
 * (with highest scheduling priority), performs the per-level LDPT memory
 * loads in SIMT lockstep, fills the PWC (FPWC), and finally sends FL2T
 * fills back to the L2 TLB across the interconnect.
 */

#ifndef SW_CORE_PW_WARP_HH
#define SW_CORE_PW_WARP_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "core/isa.hh"
#include "core/soft_pwb.hh"
#include "obs/lifecycle.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "vm/address_space.hh"
#include "vm/page_walk_cache.hh"
#include "vm/walk.hh"

namespace sw {

/** Per-lane software page walk executor. */
class PwWarp
{
  public:
    /** Lanes of the warp at most (one SIMT warp). */
    static constexpr std::uint32_t kMaxLanes = 32;

    /** Environment supplied by the SoftWalker backend. */
    struct Hooks
    {
        /**
         * Sm::reservePwIssue — charge issue slots, returns finish cycle.
         * The ASID identifies the tenant being walked for (cycle-ledger
         * PW-occupancy attribution); a mixed-tenant batch is attributed
         * to its first lane's ASID.
         */
        std::function<Cycle(std::uint32_t, Asid)> reserveIssue;
        /**
         * Engine's page-table memory read (LDPT), issued as walker
         * @c walker (the warp's SM, also the @c where of its lifecycle
         * events); it answers with ptReadDone(lane).
         */
        PtReader *ptReader = nullptr;
        std::uint32_t walker = 0;
        /** FPWC: cache (level, {asid, vpn}) -> table base. */
        std::function<void(int, TranslationKey, PhysAddr)> pwcFill;
        /**
         * FL2T arrival at the L2 TLB (after the communication latency):
         * resolves the walk and releases the distributor credit.
         */
        WalkCompleteFn complete;
    };

    struct Stats
    {
        std::uint64_t batches = 0;
        std::uint64_t walksCompleted = 0;
        std::uint64_t instructionsIssued = 0;
        std::uint64_t ldptIssued = 0;
        std::uint64_t fl2tIssued = 0;
        std::uint64_t fpwcIssued = 0;
        std::uint64_t ffbIssued = 0;
        LatencyStat batchSize;
        LatencyStat batchLatency;
    };

    /** Batch pickups and LDPTs are emitted into @p lifecycle. */
    PwWarp(EventQueue &eq, const AddressSpaceManager &spaces, SoftPwb &pwb,
           Hooks hooks, PwWarpCodeTiming timing, std::uint32_t lanes,
           Cycle comm_latency, const LifecycleStream &lifecycle);

    PwWarp(const PwWarp &) = delete;
    PwWarp &operator=(const PwWarp &) = delete;

    /** Controller signal: valid entries are available. */
    void notifyWork();

    bool busy() const { return running; }

    /** The LDPT of lane @p lane returned. */
    void ptReadDone(std::uint32_t lane);

    /**
     * FL2T/FFB fills issued by a finished batch that are still crossing
     * the interconnect back to the L2 TLB.  The Simulation Auditor uses
     * this to balance distributor credits against SoftPWB occupancy.
     */
    std::uint32_t fillsInTransit() const { return fillsInTransit_; }

    void resetStats() { stats_ = Stats{}; }

    /** Register the warp's counters with the unified stat registry. */
    void registerStats(StatGroup group);

    const Stats &stats() const { return stats_; }

    /** Serialise counters (the warp must be idle: quiesced tick). */
    void saveState(CkptWriter &w) const;

    /** Restore state saved by saveState(). */
    void restoreState(CkptReader &r);

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    struct Lane
    {
        std::uint32_t slot = 0;
        WalkCursor cursor;
        Cycle pickedUp = 0;
        Cycle created = 0;
        std::uint64_t id = 0;
        TranslationKey key;
    };

    void startBatch();
    void levelIteration();
    void finishBatch();

    EventQueue &eventq;
    const AddressSpaceManager &spaces;
    SoftPwb &pwb;
    Hooks hooks;
    PwWarpCodeTiming timing;
    std::uint32_t numLanes;
    Cycle commLatency;
    const LifecycleStream &lifecycle_;

    bool running = false;
    /**
     * The running batch is lanes[0, batchLanes).  numLanes of them, taken
     * on the first batch so that building the machine costs nothing.
     */
    std::unique_ptr<Lane[]> lanes;
    std::uint32_t batchLanes = 0;
    std::uint32_t pendingLoads = 0;
    std::uint32_t fillsInTransit_ = 0;
    Cycle batchStart = 0;

    Stats stats_;
};

} // namespace sw

#endif // SW_CORE_PW_WARP_HH
