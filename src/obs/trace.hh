/**
 * @file
 * TranslationTracer: ring-buffered per-request lifecycle recorder.
 *
 * A consumer of the LifecycleStream (obs/lifecycle.hh): it stamps each
 * translation's phase transitions (L1 TLB miss -> L2 lookup -> MSHR/In-TLB
 * alloc -> backend submit -> PTW/PW-Warp dispatch -> per-level walk memory
 * reads -> fill -> wakeup) and ignores the ledger-only phases.  The tracer
 * never schedules events and never advances the clock, so an installed
 * tracer leaves the simulated timeline bit-identical.
 *
 * Each walk_fill carries the walk's record (Walk, vm/walk.hh), so a
 * walk's span needs no per-walk state here: the walk was picked up its
 * access latency before the fill and created its queue delay before that.
 *
 * Output: a Chrome/Perfetto trace_event JSON array (writeTraceJson) with
 * one "X" (complete) event per walk phase span and "i" (instant) events
 * for the raw stamps, plus per-phase latency attribution (queue = walk
 * created -> walker pickup, walk = pickup -> fill).
 */

#ifndef SW_OBS_TRACE_HH
#define SW_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/lifecycle.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace sw {

/** Ring-buffered lifecycle recorder with per-phase latency attribution. */
class TranslationTracer
{
  public:
    /** One raw phase stamp. */
    struct Stamp
    {
        Cycle cycle = 0;
        std::uint64_t id = 0;    ///< walk id (0: not yet / not applicable)
        Vpn vpn = 0;
        std::uint32_t where = LifecycleEvent::kNoWhere;  ///< SM id when known
        LifecyclePhase phase = LifecyclePhase::L1Miss;
        Asid asid = 0;           ///< owning tenant (per-tenant attribution)
    };

    /** Span of one completed walk, from its WalkFill record. */
    struct WalkSpan
    {
        std::uint64_t id = 0;
        Vpn vpn = 0;
        Asid asid = 0;
        Cycle created = 0;     ///< dispatched - queue delay
        Cycle dispatched = 0;  ///< filled - access latency
        Cycle filled = 0;      ///< the WalkFill cycle
        std::uint32_t ptReads = 0;  ///< page-table reads (0: NHA rider)
        /** PTW slot or PW Warp's SM that picked the walk up. */
        std::uint32_t where = LifecycleEvent::kNoWhere;
    };

    /**
     * @param capacity ring capacity for raw stamps and completed spans;
     *        the oldest records are overwritten (dropped counters track
     *        how much history was lost).
     */
    explicit TranslationTracer(std::size_t capacity = 1 << 16);

    TranslationTracer(const TranslationTracer &) = delete;
    TranslationTracer &operator=(const TranslationTracer &) = delete;

    /**
     * Stream entry: stamp one of the tracer's phases, and on a WalkFill
     * record the span its walk record implies; the ledger-only phases are
     * ignored.  Never schedules; never perturbs.
     */
    void consume(const LifecycleEvent &event);

    // ---- Per-phase latency attribution (completed walks) ----------------
    /** Walk created -> walker/PW-Warp pickup. */
    const LatencyStat &queuePhase() const { return queuePhase_; }
    /** Pickup -> fill at the L2 TLB. */
    const LatencyStat &walkPhase() const { return walkPhase_; }
    /** Created -> fill (sum of the two phases). */
    const LatencyStat &totalPhase() const { return totalPhase_; }
    /** Page-table reads per completed walk. */
    const LatencyStat &ptReadsPerWalk() const { return ptReadsPerWalk_; }

    /** Zero the attribution stats (post-warmup measurement reset). */
    void resetAttribution();

    // ---- Raw history ----------------------------------------------------
    std::uint64_t stampsRecorded() const { return stampsRecorded_; }
    std::uint64_t stampsDropped() const { return stampsDropped_; }
    std::uint64_t spansCompleted() const { return spansCompleted_; }
    std::uint64_t spansDropped() const { return spansDropped_; }

    /** Stamps still in the ring, oldest first. */
    std::vector<Stamp> stamps() const;

    /** Completed walk spans still in the ring, oldest first. */
    std::vector<WalkSpan> spans() const;

    /**
     * Emit a Chrome/Perfetto trace_event JSON array: "X" complete events
     * for each retained walk's queue and walk phases, "i" instant events
     * for the retained raw stamps.  ts/dur are in simulated cycles.
     */
    void writeTraceJson(std::ostream &out) const;

  private:
    /**
     * Append @p record to @p records, a ring of capacity_ whose oldest
     * entry is at @p next once full.  @return true if it overwrote one.
     */
    template <typename Record>
    bool
    push(std::vector<Record> &records, std::size_t &next,
         const Record &record) const
    {
        if (records.size() < capacity_) {
            records.push_back(record);
            return false;
        }
        records[next] = record;
        if (++next == capacity_)
            next = 0;
        return true;
    }

    /** Visit a ring filled by push(), oldest first, in place. */
    template <typename Record, typename Fn>
    static void
    forEachOldestFirst(const std::vector<Record> &records, std::size_t next,
                       Fn &&fn)
    {
        for (std::size_t i = next; i < records.size(); ++i)
            fn(records[i]);
        for (std::size_t i = 0; i < next; ++i)
            fn(records[i]);
    }

    std::size_t capacity_;

    std::vector<Stamp> ring;
    std::size_t ringNext = 0;
    std::uint64_t stampsRecorded_ = 0;
    std::uint64_t stampsDropped_ = 0;

    std::vector<WalkSpan> spanRing;
    std::size_t spanNext = 0;
    std::uint64_t spansCompleted_ = 0;
    std::uint64_t spansDropped_ = 0;

    LatencyStat queuePhase_;
    LatencyStat walkPhase_;
    LatencyStat totalPhase_;
    LatencyStat ptReadsPerWalk_;
};

} // namespace sw

#endif // SW_OBS_TRACE_HH
