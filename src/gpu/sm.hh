/**
 * @file
 * Streaming Multiprocessor model.
 *
 * Each SM hosts up to 48 warps that alternate compute gaps and global
 * memory instructions drawn from the workload.  Memory instructions are
 * coalesced to unique pages (translation requests) and unique 32 B sectors
 * (data accesses); a page's sector records are made when its translation
 * completes.  The warp blocks until every access completes (scoreboard
 * semantics).  The single issue port serialises instruction issue, and is
 * shared — with priority — by the PW Warp (§4.2).
 *
 * Scheduler-cycle accounting distinguishes issued/compute cycles from
 * cycles where *every* resident warp is blocked on memory, which is the
 * stall population Figs 8 and 19 measure.
 */

#ifndef SW_GPU_SM_HH
#define SW_GPU_SM_HH

#include <cstdint>
#include <tuple>
#include <vector>

#include "mem/request.hh"
#include "obs/lifecycle.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "vm/address.hh"
#include "workload/workload.hh"

namespace sw {

class StatGroup;
class CkptWriter;
class CkptReader;

/**
 * An SM's way into the machine (the Gpu, or a test double).  Each call
 * hands over a request record; the machine completes it through the
 * RequestPool, and the record comes back to Sm::translated() (a
 * Done::Translation) or Sm::accessDone() (a Done::SmAccess).
 */
class SmPort
{
  public:
    /** Translate @p id: key {asid, addr} for SM unit. */
    virtual void translate(RequestId id) = 0;
    /** Access the data sector at @p id's addr. */
    virtual void access(RequestId id) = 0;

  protected:
    ~SmPort() = default;
};

/** One GPU core. */
class Sm
{
  public:
    struct Params
    {
        SmId id = 0;
        std::uint32_t numWarps = 48;
        std::uint32_t warpSize = 32;
        std::uint64_t pageBytes = 64 * 1024;
        std::uint32_t sectorBytes = 32;
        std::uint64_t rngSeed = 1;
        Asid asid = 0;   ///< the tenant whose address space it translates in
    };

    struct Stats
    {
        std::uint64_t warpInstrs = 0;      ///< memory instructions issued
        std::uint64_t issueSlotCycles = 0; ///< port cycles, user warps
        std::uint64_t pwIssueCycles = 0;   ///< port cycles, PW Warp
        std::uint64_t computeCycles = 0;   ///< modeled compute-gap work
        std::uint64_t memStallCycles = 0;  ///< all warps blocked on memory
        std::uint64_t translationsRequested = 0;
        std::uint64_t dataAccesses = 0;
        LatencyStat warpMemLatency;        ///< issue -> all accesses done
        LatencyStat accessLatency;         ///< per data access (Fig 4)
    };

    /**
     * Scheduler-state changes and PW-issue reservations are emitted into
     * @p lifecycle (cycle-ledger attribution).
     */
    Sm(EventQueue &eq, Params params, Workload &workload, RequestPool &pool,
       SmPort &port, const LifecycleStream &lifecycle);

    Sm(const Sm &) = delete;
    Sm &operator=(const Sm &) = delete;

    /**
     * Activate warps and begin issuing: every warp fetches at the current
     * cycle.  A warp retires when it finds @p quota spent.
     * @param quota shared pool of warp instructions left to issue
     * @param active_warps number of warps to enable on this SM
     */
    void start(std::uint64_t *quota, std::uint32_t active_warps);

    /**
     * Reserve @p slots consecutive issue-port cycles for the PW Warp
     * (highest scheduling priority), walking on behalf of @p walkAsid
     * (cycle-ledger PW-occupancy attribution).
     * @return the cycle at which the last slot completes.
     */
    Cycle reservePwIssue(std::uint32_t slots, Asid walkAsid);

    /**
     * Translation @p id resolved (its addr now holds the PFN): make a
     * record for each sector of its page's run, compose the sector's
     * physical address and issue it, in first-touch lane order.
     */
    void translated(RequestId id);

    /** Data sector @p id finished. */
    void accessDone(RequestId id);

    /** Warps currently blocked on outstanding memory (stall-aware policy). */
    std::uint32_t stalledWarps() const { return blockedWarps; }

    /** Warps still executing. */
    std::uint32_t activeWarps() const { return liveWarps; }

    SmId id() const { return params_.id; }
    const Stats &stats() const { return stats_; }

    /**
     * Zero the statistics (post-warmup reset).  An open all-warps-stalled
     * window restarts at the current cycle.
     */
    void
    resetStats()
    {
        stats_ = Stats{};
        if (fullyStalled)
            stallStart = eventq.now();
    }

    /** Register the SM's counters with the unified stat registry. */
    void registerStats(StatGroup group);

    /** Close an open stall window (end-of-run accounting). */
    void
    finalizeStats()
    {
        if (fullyStalled) {
            stats_.memStallCycles += eventq.now() - stallStart;
            stallStart = eventq.now();
        }
    }

    /**
     * The RNG this SM feeds to Workload::next().  Fast-forward pulls the
     * workload stream functionally through the same generator so detailed
     * simulation resumes exactly where warmup left the stream.
     */
    Rng &workloadRng() { return rng; }

    /** Serialise RNG + issue-port + counters (all warps must be retired). */
    void saveState(CkptWriter &w) const;

    /** Restore state saved by saveState(). */
    void restoreState(CkptReader &r);

  private:
    struct WarpState
    {
        bool live = false;
        bool blocked = false;        ///< waiting on memory
        /**
         * Next instruction to issue.  Once it issues, addrs holds the
         * sector offsets of each of its pages as one run per page.
         */
        WarpInstr pending;
        std::uint32_t outstanding = 0;
        Cycle issuedAt = 0;
    };

    static constexpr std::uint32_t kMaxLanes =
        std::tuple_size_v<decltype(WarpInstr::addrs)>;
    static constexpr std::uint32_t kRunBits = 5;   ///< log2(kMaxLanes)
    static_assert(kMaxLanes == 1u << kRunBits);
    /** Warps a translation record's slot can name. */
    static constexpr std::uint32_t kMaxWarps = 1u << (32 - 2 * kRunBits);
    /** End of a page's sector list while an instruction coalesces. */
    static constexpr std::uint8_t kNoSector = 0xff;

    /**
     * A translation record's slot: the warp, and its page's run of
     * @p count sector offsets at addrs[@p start].
     */
    static std::uint32_t
    runSlot(WarpId warp, std::uint32_t start, std::uint32_t count)
    {
        return warp << (2 * kRunBits) | start << kRunBits | (count - 1);
    }

    void fetchAndSchedule(WarpId warp);
    void tryIssue(WarpId warp);
    void execMemInstr(WarpId warp);
    void enterBlocked(WarpId warp);
    void leaveBlocked(WarpId warp);
    void retireWarp(WarpId warp);
    void updateStallWindow();

    EventQueue &eventq;
    Params params_;
    Workload &workload;
    RequestPool &pool;
    SmPort &port;
    const LifecycleStream &lifecycle_;
    PageGeometry geometry;
    Rng rng;

    std::vector<WarpState> warps;
    std::uint64_t *quota = nullptr;
    std::uint32_t liveWarps = 0;
    std::uint32_t blockedWarps = 0;

    Cycle nextIssueFree = 0;
    bool fullyStalled = false;
    Cycle stallStart = 0;

    Stats stats_;
};

} // namespace sw

#endif // SW_GPU_SM_HH
