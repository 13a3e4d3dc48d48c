/**
 * @file
 * Page Walk Cache: fully associative cache of page-directory entries that
 * lets walkers skip upper page-table levels (§2.1 item 7).
 *
 * Keyed by (level, VPN prefix) -> table base.  Both hardware PTWs and PW
 * Warps fill it (the FPWC instruction), and the Request Distributor consults
 * it before dispatching a software walk so PW Warps start at the deepest
 * cached level (§4.6).
 */

#ifndef SW_VM_PAGE_WALK_CACHE_HH
#define SW_VM_PAGE_WALK_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"
#include "vm/address.hh"

namespace sw {

class PageTableBase;
struct WalkCursor;
class StatGroup;
class CkptWriter;
class CkptReader;

/** Fully associative LRU cache of (level, prefix) -> table base. */
class PageWalkCache
{
  public:
    struct Stats
    {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;     ///< any level hit
        std::uint64_t fills = 0;

        double
        hitRate() const
        {
            return lookups ? double(hits) / double(lookups) : 0.0;
        }
    };

    explicit PageWalkCache(std::uint32_t num_entries = 32);

    /**
     * Find the deepest cached level for @p key.  Entries are ASID-tagged:
     * tenants with aliasing VPN prefixes never resolve through each
     * other's page-directory bases.
     * @param pt the *requesting ASID's* page table (prefix extraction)
     * @param[out] level deepest level whose table base is cached
     * @param[out] base that table's base address
     * @retval false on a complete miss (walk starts from the root).
     */
    bool lookup(const PageTableBase &pt, TranslationKey key, int &level,
                PhysAddr &base);

    /** Cache the base of the level-@p level table covering @p key (FPWC). */
    void fill(const PageTableBase &pt, int level, TranslationKey key,
              PhysAddr base);

    /** Drop every entry belonging to @p asid (tenant teardown). */
    void flushAsid(Asid asid);

    void flush();

    /** Zero the statistics (post-warmup measurement reset). */
    void resetStats() { stats_ = Stats{}; }

    /** Register the cache's counters with the unified stat registry. */
    void registerStats(StatGroup group);

    const Stats &stats() const { return stats_; }
    std::uint32_t size() const { return std::uint32_t(entries.size()); }

    /** Serialise entries + LRU clock + counters into a checkpoint. */
    void saveState(CkptWriter &w) const;

    /** Restore state saved by saveState(); capacity must match. */
    void restoreState(CkptReader &r);

  private:
    struct Entry
    {
        bool valid = false;
        Asid asid = 0;
        int level = 0;
        std::uint64_t prefix = 0;
        PhysAddr base = 0;
        std::uint64_t lruTick = 0;
    };

    std::vector<Entry> entries;
    std::uint64_t lruCounter = 0;
    Stats stats_;
};

/**
 * One walk step, the same for every walker: consume the PTE @p cur just
 * read for @p key in @p pt, and, when a read above level 1 left the walk
 * unfinished, cache the next-lower table's base in @p pwc so later walks
 * can skip the levels above it.
 * @retval true when it cached a base (the PW Warp's FPWC).
 */
bool advanceWalk(const PageTableBase &pt, PageWalkCache &pwc,
                 TranslationKey key, WalkCursor &cur);

} // namespace sw

#endif // SW_VM_PAGE_WALK_CACHE_HH
