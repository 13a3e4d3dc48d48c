/**
 * @file
 * Sub-entry-sharing L2 TLB (the MIG TLB of Li et al., PAPERS.md).
 *
 * Each tag entry covers a naturally aligned group of K = l2SubEntries
 * consecutive pages: the tag stores the group base (vpn >> log2(K)) and K
 * sub-slots each hold one page's translation.  Spatially contiguous
 * workloads reach K pages per tag, multiplying effective capacity without
 * growing the tag store.
 *
 * In *sharing* mode the tag matches on the group base alone and each
 * sub-slot carries its own ASID, so co-resident tenants whose VPN ranges
 * alias (typical — every address space starts near VA 0) populate
 * different sub-slots of the *same* tag entry instead of duplicating the
 * tag per tenant.  Under MIG way partitioning, victim (tag) allocation is
 * still confined to the allocating tenant's way slice, but sub-fills into
 * an existing tag land regardless of which tenant allocated it — that is
 * the capacity benefit the baseline is meant to show.
 *
 * The pending-entry (In-TLB MSHR) protocol is defined on whole entries
 * and is not supported here; GpuConfig::validate() enforces the
 * exclusion, and the engine routes misses through the regular MSHRs.
 */

#ifndef SW_VM_SUBENTRY_TLB_HH
#define SW_VM_SUBENTRY_TLB_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"
#include "vm/address.hh"

namespace sw {

class StatGroup;
class CkptWriter;
class CkptReader;

/** Sectored TLB: one tag per K-page group, K per-page sub-slots. */
class SubEntryTlb
{
  public:
    struct Stats
    {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        std::uint64_t fills = 0;
        std::uint64_t evictions = 0;   ///< valid tag entries displaced
        std::uint64_t tagAllocs = 0;   ///< fills that claimed a new tag
        /** Hits/fills landing in a tag another tenant allocated. */
        std::uint64_t sharedHits = 0;
        std::uint64_t sharedFills = 0;

        double
        hitRate() const
        {
            return lookups ? double(hits) / double(lookups) : 0.0;
        }
    };

    /**
     * @param translations total translation capacity (pages, not tags);
     *        the tag store holds translations / sub_entries entries.
     * @param shared cross-tenant sub-entry sharing (base-only tag match).
     */
    SubEntryTlb(std::string name, std::uint32_t translations,
                std::uint32_t ways, std::uint32_t sub_entries, bool shared);

    /** Confine tag-victim selection per ASID (MIG way slices). */
    void setWayPartition(
        std::vector<std::pair<std::uint32_t, std::uint32_t>> slices);

    /** Look up a translation; updates LRU on hit. */
    bool lookup(TranslationKey key, Pfn &pfn);

    /** Tag+sub probe without LRU side effects. */
    bool probe(TranslationKey key) const;

    /** Install a translation; allocates a tag entry when none matches. */
    void fill(TranslationKey key, Pfn pfn);

    /** Invalidate one translation (TLB shootdown). */
    void invalidate(TranslationKey key);

    /** Drop every sub-slot belonging to @p asid. */
    void flushAsid(Asid asid);

    /** Drop everything. */
    void flush();

    std::uint32_t numTags() const { return std::uint32_t(entries.size()); }
    std::uint32_t numWays() const { return ways; }
    std::uint32_t numSets() const { return sets; }
    bool sharing() const { return shared_; }

    /**
     * Invoke @p fn for every valid translation (cross-ASID containment
     * audit); never called on the hot path.
     */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const Entry &entry : entries) {
            if (!entry.valid)
                continue;
            for (std::uint32_t s = 0; s < subs; ++s) {
                const Sub &sub = entry.slots[s];
                if (sub.valid)
                    fn(TranslationKey{sub.asid, entry.base * subs + s},
                       sub.pfn);
            }
        }
    }

    /** Zero the statistics (post-warmup measurement reset). */
    void resetStats() { stats_ = Stats{}; }

    /** Register the array's counters with the unified stat registry. */
    void registerStats(StatGroup group);

    const Stats &stats() const { return stats_; }
    const std::string &name() const { return name_; }

    /** Serialise tags + sub-slots + LRU clock + counters. */
    void saveState(CkptWriter &w) const;

    /** Restore state saved by saveState(); geometry must match. */
    void restoreState(CkptReader &r);

  private:
    struct Sub
    {
        bool valid = false;
        Asid asid = 0;
        Pfn pfn = 0;
    };

    struct Entry
    {
        bool valid = false;          ///< any sub-slot valid
        Asid asid = 0;               ///< allocating tenant (way accounting)
        std::uint64_t base = 0;      ///< vpn >> log2(subs)
        std::uint64_t lruTick = 0;
        std::vector<Sub> slots;
    };

    std::uint64_t baseOf(Vpn vpn) const { return vpn / subs; }
    std::uint32_t subOf(Vpn vpn) const { return std::uint32_t(vpn % subs); }
    std::uint64_t setOf(std::uint64_t base) const { return base % sets; }
    /** Tag entry matching @p key's group, or nullptr. */
    Entry *findTag(TranslationKey key);
    const Entry *findTagConst(TranslationKey key) const;
    std::pair<std::uint32_t, std::uint32_t> victimWays(Asid asid) const;

    std::string name_;
    std::uint32_t ways;
    std::uint32_t sets;
    std::uint32_t subs;
    bool shared_;
    std::vector<Entry> entries;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> waySlices;
    std::uint64_t lruCounter = 0;
    Stats stats_;
};

} // namespace sw

#endif // SW_VM_SUBENTRY_TLB_HH
