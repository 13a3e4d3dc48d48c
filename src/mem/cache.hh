/**
 * @file
 * Generic non-blocking, sectored, set-associative cache model.
 *
 * Models tags, LRU replacement, sector-valid bits, and MSHRs with merging.
 * Data values are not stored: the simulator tracks timing, not contents.
 * Used for both the per-SM L1D caches and the shared L2D cache.
 */

#ifndef SW_MEM_CACHE_HH
#define SW_MEM_CACHE_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/modulus.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace sw {

class StatGroup;
class CkptWriter;
class CkptReader;

/** Sectored set-associative cache with MSHRs. */
class Cache
{
  public:
    /** The level below: fetches a missed sector and answers with fill(). */
    class Below
    {
      public:
        /**
         * Fetch the sector @p missed (the request that allocated the
         * MSHR) needs; answer with from.fill(missed.addr).
         */
        virtual void fetch(Cache &from, const Request &missed) = 0;

      protected:
        ~Below() = default;
    };

    /**
     * Geometry and timing.  lineBytes and sectorBytes must be powers of
     * two (lineBytes at least 2 and at most 32 sectors), and sizeBytes a
     * whole number of lineBytes x ways sets; any set count works.
     */
    struct Params
    {
        std::string name = "cache";
        std::uint64_t sizeBytes = 128 * 1024;
        std::uint32_t ways = 8;
        std::uint32_t lineBytes = 128;
        std::uint32_t sectorBytes = 32;
        Cycle latency = 40;
        std::uint32_t mshrEntries = 256;
        std::uint32_t maxMergesPerMshr = 64;
    };

    struct Stats
    {
        std::uint64_t accesses = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;        ///< line or sector misses
        std::uint64_t sectorMisses = 0;  ///< line present, sector absent
        std::uint64_t mshrMerges = 0;
        std::uint64_t mshrFailures = 0;  ///< attempts rejected: MSHRs full
        std::uint64_t evictions = 0;

        double
        missRate() const
        {
            return accesses ? double(misses) / double(accesses) : 0.0;
        }
    };

    Cache(EventQueue &eq, Params params, RequestPool &pool, Below &below);

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /**
     * Access the sector at request @p id's addr.  The request completes
     * (RequestPool::complete) once the sector is resident: after the hit
     * latency, or after the fill returns from below.  Merged waiters
     * complete in arrival order.
     */
    void access(RequestId id);

    /** The fill for a fetch() of @p addr returned from below. */
    void fill(PhysAddr addr);

    /** Tag-only probe (no latency, no LRU update); used by tests. */
    bool isResident(PhysAddr addr) const;

    /** Invalidate everything (tests / kernel boundaries). */
    void flush();

    /** Zero the statistics (post-warmup measurement reset). */
    void resetStats() { stats_ = Stats{}; }

    /** Register the cache's counters with the unified stat registry. */
    void registerStats(StatGroup group);

    const Stats &stats() const { return stats_; }
    const Params &params() const { return params_; }
    std::size_t outstandingMshrs() const { return mshrs.size(); }
    std::size_t waitingForMshrCount() const { return parked.size; }

    /**
     * Serialise tag store + LRU clock + counters into a checkpoint.  Must
     * only be called at a quiesced tick (no outstanding misses).
     */
    void saveState(CkptWriter &w) const;

    /** Restore state saved by saveState(); geometry must match. */
    void restoreState(CkptReader &r);

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    /** Line address of an empty way; no physical address maps to it. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t(0);

    std::uint64_t lineAddr(PhysAddr addr) const;
    std::uint64_t sectorAddr(PhysAddr addr) const;
    /** @p addr's bit in its line's sector mask. */
    std::uint64_t sectorBit(PhysAddr addr) const;
    /** Index of way 0 of @p line_addr's set in the tag-store arrays. */
    std::size_t setBase(std::uint64_t line_addr) const;
    /** Way of @p set_base's set holding @p line_addr, or ways if none. */
    std::uint32_t findWay(std::size_t set_base,
                          std::uint64_t line_addr) const;

    /**
     * After the lookup latency: resolve hit/miss for request @p id, whose
     * sector address is @p addr.
     * @param retry re-issue of a parked request; skips demand hit/miss
     *        accounting so stats count each access once.
     */
    void lookup(RequestId id, PhysAddr addr, bool retry);

    /** Install the sector into the tag store, evicting if needed. */
    void install(PhysAddr addr);

    void retryWaiting();

    EventQueue &eventq;
    Params params_;
    RequestPool &pool;
    Below &below;

    std::uint32_t lineShift;        ///< log2(lineBytes)
    std::uint32_t sectorShift;      ///< log2(sectorBytes)
    std::uint32_t sectorsPerLine;
    std::uint32_t numSets;
    Modulus setOf{1};               ///< line address -> set

    /**
     * The tag store: one allocation holding three arrays of numSets * ways
     * words, set-major.  A lookup scans its set's line addresses, 8 bytes
     * a way; the full line address is the tag.  Sector masks and LRU ticks
     * are read on a tag match or a victim choice only, never for an empty
     * way.
     */
    std::vector<std::uint64_t> tagStore;
    std::span<std::uint64_t> lineAddrs;     ///< resident line, or kEmpty
    std::span<std::uint64_t> sectorMasks;   ///< bit per resident sector
    std::span<std::uint64_t> lruTicks;      ///< lruCounter at last touch
    std::uint64_t lruCounter = 0;

    /** Outstanding misses keyed by sector address: their waiters. */
    FlatMap<std::uint64_t, RequestFifo> mshrs{~std::uint64_t(0)};

    /** Requests waiting for a free MSHR (or merge slot). */
    RequestFifo parked;

    Stats stats_;
};

} // namespace sw

#endif // SW_MEM_CACHE_HH
