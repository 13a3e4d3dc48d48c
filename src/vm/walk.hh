/**
 * @file
 * The walk record, and the walk-backend abstraction: the contract between
 * the L2 TLB miss path and whatever resolves walks — the hardware PTW
 * pool, the SoftWalker, or the hybrid of both.
 */

#ifndef SW_VM_WALK_HH
#define SW_VM_WALK_HH

#include <cstdint>
#include <functional>
#include <string>

#include "mem/request.hh"
#include "obs/stat_registry.hh"
#include "sim/types.hh"
#include "vm/address.hh"
#include "vm/page_table.hh"

namespace sw {

class Auditor;
class TimeSeriesSampler;

/** Index of a Walk in the TranslationEngine's WalkPool. */
using WalkId = std::uint32_t;

/** "No walk": an empty slot. */
inline constexpr WalkId kNoWalk = ~WalkId(0);

/**
 * One page-table walk, from the L2 TLB miss that creates it to the fill
 * that completes it.  The record lives in the engine's WalkPool, and every
 * stage the walk passes (the PWC hop, the PWB or the distributor's queue,
 * the interconnect, a SoftPWB slot, a walker) names it by its WalkId.
 * Its queue delay is pickedUp - created and its access latency the fill
 * cycle - pickedUp (§3.2); the engine computes both when the walk
 * completes.
 */
struct Walk
{
    TranslationKey key{};      ///< {asid, vpn} this walk resolves
    WalkCursor cursor{};       ///< progress; once done, the PFN or fault
    Cycle created = 0;         ///< cycle the L2 TLB miss spawned the walk
    Cycle pickedUp = 0;        ///< cycle a walker picked it up
    std::uint64_t id = 0;      ///< the walk id observers see
    std::uint32_t walker = 0;  ///< PTW slot or PW Warp's SM that took it
    WalkId next = kNoWalk;     ///< free-list link
    std::uint16_t ptReads = 0; ///< page-table reads (0: an NHA rider)
    bool software = false;     ///< walked by a PW-Warp (vs. hardware PTW)
};
static_assert(sizeof(Walk) == 80, "walk records stay 80 bytes");

/** Every walk in flight, named by WalkId. */
using WalkPool = Slab<Walk>;

/**
 * Invoked by a backend when a walk finishes.  The engine frees the record,
 * and the drain that follows may reuse it for a new walk: a backend reads
 * everything it needs from the record before completing it.
 */
using WalkCompleteFn = std::function<void(WalkId)>;

/** Walker id of a hardware PTW pool's reads (PW Warps use their SM). */
inline constexpr std::uint32_t kHardwareWalker = ~std::uint32_t(0);

/**
 * Issues page-table memory reads for walkers.  The TranslationEngine
 * routes each to the PTE path of the memory hierarchy (or a fixed latency
 * in sensitivity sweeps) and answers with WalkBackend::ptReadDone().
 */
class PtReader
{
  public:
    /** Read the PTE at @p addr for lane @p lane of walker @p walker. */
    virtual void ptRead(PhysAddr addr, std::uint32_t walker,
                        std::uint32_t lane) = 0;

  protected:
    ~PtReader() = default;
};

/** Resolver of page-table walks behind the L2 TLB. */
class WalkBackend
{
  public:
    virtual ~WalkBackend() = default;

    /** Accept a walk; completion arrives via the WalkCompleteFn. */
    virtual void submit(WalkId walk) = 0;

    /** Number of walks accepted but not yet completed. */
    virtual std::uint64_t inFlight() const = 0;

    /** The PtReader finished a read this backend's walker issued. */
    virtual void ptReadDone(std::uint32_t walker, std::uint32_t lane) = 0;

    virtual std::string name() const = 0;

    /** Zero the statistics (post-warmup measurement reset). */
    virtual void resetStats() = 0;

    /**
     * Register this backend's conservation audits (slot lifecycle,
     * in-flight accounting) with the Simulation Auditor.  Default: none.
     */
    virtual void registerAudits(Auditor &auditor) { (void)auditor; }

    /**
     * Register this backend's counters with the unified stat registry
     * under @p group's prefix ("ptw." / "softwalker.").  Default: none.
     */
    virtual void registerStats(StatGroup group) { (void)group; }

    /**
     * Register backend-specific time-series gauges (walker occupancy,
     * queue depth) with @p sampler.  Default: none.
     */
    virtual void registerGauges(TimeSeriesSampler &sampler)
    {
        (void)sampler;
    }

    /**
     * Serialise backend state into a checkpoint.  Called only at a
     * quiesced tick (no walks in flight); backends with no durable state
     * beyond statistics may keep the default no-op.
     */
    virtual void saveState(CkptWriter &w) const { (void)w; }

    /** Restore state saved by saveState(). */
    virtual void restoreState(CkptReader &r) { (void)r; }
};

} // namespace sw

#endif // SW_VM_WALK_HH
