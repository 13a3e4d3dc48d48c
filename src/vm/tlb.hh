/**
 * @file
 * Set-associative TLB tag/data array with In-TLB MSHR support.
 *
 * Each entry is in one of three states (valid translation, invalid, or
 * *pending* — repurposed as an In-TLB MSHR slot holding metadata for an
 * outstanding miss, §4.5).  The same array class backs the fully
 * associative per-SM L1 TLBs (ways == entries) and the shared 16-way
 * L2 TLB.
 *
 * Entries are keyed by TranslationKey {asid, vpn}: tenants share the
 * array, with the ASID participating in the tag compare only — the set
 * index stays vpn % sets so ASID-0 (single-tenant) indexing, victim
 * selection, and therefore fingerprints are unchanged.  Under MIG
 * partitioning each tenant's victim selection is confined to its own way
 * slice (setWayPartition); lookups still scan every way, which is safe
 * because tags are ASID-qualified.
 *
 * Each way's state, ASID and VPN share one 64-bit tag word, so a probe
 * for a valid or a pending key is one compare per way (see tagOf()).
 */

#ifndef SW_VM_TLB_HH
#define SW_VM_TLB_HH

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/modulus.hh"
#include "sim/types.hh"
#include "vm/address.hh"

namespace sw {

class StatGroup;
class CkptWriter;
class CkptReader;

/** TLB tag store with LRU replacement and tri-state entries. */
class TlbArray
{
  public:
    enum class EntryState : std::uint8_t { Invalid, Valid, Pending };

    struct Stats
    {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        std::uint64_t fills = 0;
        std::uint64_t evictions = 0;
        std::uint64_t fillsSkipped = 0;      ///< all ways pending: no fill
        std::uint64_t pendingAllocs = 0;     ///< In-TLB MSHR allocations
        std::uint64_t pendingAllocFailures = 0; ///< set fully pending
        std::uint64_t pendingEvictedValid = 0;  ///< valid entry sacrificed

        double
        hitRate() const
        {
            return lookups ? double(hits) / double(lookups) : 0.0;
        }
    };

    TlbArray(std::string name, std::uint32_t entries, std::uint32_t ways);

    // The tag-store spans view this array's own allocation: a copy would
    // view the original's, while a move takes the allocation with it.
    TlbArray(const TlbArray &) = delete;
    TlbArray &operator=(const TlbArray &) = delete;
    TlbArray(TlbArray &&) = default;

    /**
     * Confine victim selection for each ASID to [first way, way count)
     * (MIG way slices).  An empty vector (the default) lets every ASID
     * use the full way range; an ASID beyond the vector also falls back
     * to the full range.
     */
    void setWayPartition(
        std::vector<std::pair<std::uint32_t, std::uint32_t>> slices);

    /** Look up a translation; updates LRU on hit. */
    bool lookup(TranslationKey key, Pfn &pfn);

    /** Tag-only probe without LRU side effects. */
    bool probe(TranslationKey key) const;

    /**
     * Install a valid translation (TLB fill / FL2T).
     * Victim preference: invalid way, else LRU valid way; pending ways are
     * never displaced.
     * @retval false if every candidate way of the set is pending.
     */
    bool fill(TranslationKey key, Pfn pfn);

    /**
     * Convert a victim entry of the key's set into an In-TLB MSHR slot.
     * @retval false if every candidate way of the set is already pending.
     */
    bool allocPending(TranslationKey key);

    /** True if @p key currently occupies a pending (In-TLB MSHR) way. */
    bool hasPending(TranslationKey key) const;

    /** Clear every pending way whose tag matches @p key (walk completion). */
    void clearPending(TranslationKey key);

    /** Invalidate a specific translation (TLB shootdown). */
    void invalidate(TranslationKey key);

    /**
     * Drop every *valid* translation belonging to @p asid (tenant
     * teardown / ASID-selective shootdown).  Pending (In-TLB MSHR) ways
     * survive: their walks are still in flight and will clear them on
     * completion, exactly like a per-VPN shootdown.
     */
    void flushAsid(Asid asid);

    /** Drop everything. */
    void flush();

    std::uint32_t pendingCount() const { return numPending; }

    /**
     * Recount pending ways by scanning the array; the Simulation Auditor
     * cross-checks this against the running pendingCount() counter.
     */
    std::uint32_t countPendingScan() const;

    /**
     * Invoke @p fn for every valid translation (cross-ASID containment
     * audit); never called on the hot path.
     */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (std::size_t i = 0; i < tags.size(); ++i) {
            if (stateOf(tags[i]) == EntryState::Valid)
                fn(keyOf(tags[i]), pfns[i]);
        }
    }

    std::uint32_t numWays() const { return ways; }
    std::uint32_t numSets() const { return sets; }
    std::uint64_t setOf(Vpn vpn) const { return setIndex(vpn); }

    /** Zero the statistics (post-warmup measurement reset). */
    void resetStats() { stats_ = Stats{}; }

    /** Register the array's counters with the unified stat registry. */
    void registerStats(StatGroup group);

    const Stats &stats() const { return stats_; }
    const std::string &name() const { return name_; }

    /** Serialise the full array (entries incl. In-TLB MSHR ways, LRU
     *  clock, counters) into a checkpoint. */
    void saveState(CkptWriter &w) const;

    /** Restore state saved by saveState(); geometry must match. */
    void restoreState(CkptReader &r);

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    /**
     * Tag word layout: state << 62 | asid << 40 | vpn.  validate() allows
     * 64 KB and 2 MB pages of a 49-bit address space (VPNs of at most 33
     * bits) and 16-bit ASIDs, so every key the machine makes fits; an
     * invalid way keeps the stale ASID and VPN its checkpoint bytes record.
     */
    static constexpr unsigned kVpnBits = 40;
    static constexpr unsigned kAsidBits = 22;
    static constexpr unsigned kStateShift = kVpnBits + kAsidBits;
    static constexpr std::uint64_t kVpnMask =
        (std::uint64_t(1) << kVpnBits) - 1;
    static constexpr std::uint64_t kKeyMask =
        (std::uint64_t(1) << kStateShift) - 1;

    static bool
    fits(Asid asid, Vpn vpn)
    {
        return (vpn >> kVpnBits) == 0 && (asid >> kAsidBits) == 0;
    }

    static std::uint64_t
    tagOf(EntryState state, TranslationKey key)
    {
        return std::uint64_t(state) << kStateShift |
               std::uint64_t(key.asid) << kVpnBits | key.vpn;
    }

    static EntryState
    stateOf(std::uint64_t tag)
    {
        return EntryState(tag >> kStateShift);
    }

    static TranslationKey
    keyOf(std::uint64_t tag)
    {
        return {Asid((tag & kKeyMask) >> kVpnBits), tag & kVpnMask};
    }

    /** @p key's tag word in @p state; panics on a key that does not fit. */
    std::uint64_t packed(EntryState state, TranslationKey key) const;
    /** Index of way 0 of @p vpn's set in the tag-store arrays. */
    std::size_t
    setBase(Vpn vpn) const
    {
        return std::size_t(setOf(vpn)) * ways;
    }
    /** Way of @p base's set whose tag word is @p tag, or ways if none. */
    std::uint32_t findWay(std::size_t base, std::uint64_t tag) const;
    /**
     * Victim way of @p base's set for @p asid: the lowest-index invalid
     * way of its slice, else the least recent valid one; ways if every
     * way of the slice is pending.
     */
    std::uint32_t victimWay(std::size_t base, Asid asid) const;
    /** Way range victim selection may touch for @p asid. */
    std::pair<std::uint32_t, std::uint32_t> victimWays(Asid asid) const;

    std::string name_;
    std::uint32_t ways;
    std::uint32_t sets;
    Modulus setIndex{1};                ///< VPN -> set
    /**
     * The tag store: one allocation holding three arrays of sets * ways
     * words, set-major.  A probe scans its set's tag words; PFNs and LRU
     * ticks are read on a hit or a victim choice only.
     */
    std::vector<std::uint64_t> tagStore;
    std::span<std::uint64_t> tags;      ///< packed state, ASID and VPN
    std::span<std::uint64_t> pfns;      ///< PFN of a valid way
    std::span<std::uint64_t> lruTicks;  ///< lruCounter at last touch
    /** Per-ASID (first way, way count); empty = no partitioning. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> waySlices;
    std::uint64_t lruCounter = 0;
    std::uint32_t numPending = 0;
    Stats stats_;
};

} // namespace sw

#endif // SW_VM_TLB_HH
