/**
 * @file
 * EventLog: schema-versioned NDJSON structured event log.
 *
 * One JSON object per line: a leading `meta` record carrying the schema
 * tag (`softwalker.events/1`), then one record per completed walk, per
 * page fault, and per time-series sample (with per-category ledger
 * deltas).  The log keeps each record as a plain typed struct in arrival
 * order (a sample's deltas in a side array) and renders the NDJSON only
 * at write(), so logging a record allocates only when the record array
 * grows.  Walk and fault records come from the LifecycleStream
 * (obs/lifecycle.hh), samples and reset markers from the Gpu; the log
 * never schedules events, so enabling it cannot perturb the simulation
 * (pinned by the zero-perturbation fingerprint suite).
 *
 * The NDJSON shape exists so CI and external dashboards can trend runs
 * with line-oriented tools (jq, swbench-compare's NDJSON flattener)
 * without parsing the bespoke metrics JSON.
 */

#ifndef SW_OBS_EVENT_LOG_HH
#define SW_OBS_EVENT_LOG_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/cycle_ledger.hh"
#include "obs/lifecycle.hh"
#include "sim/types.hh"
#include "vm/address.hh"

namespace sw {

/** Schema tag written in the leading meta record and checked by CI. */
inline constexpr const char *kEventLogSchema = "softwalker.events/1";

/** In-memory NDJSON event log (see file comment for the record shapes). */
class EventLog
{
  public:
    EventLog() = default;

    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    /**
     * Stream entry: a WalkFill becomes a walk record, a Fault a fault
     * record (shapes below); every other phase is ignored.
     */
    void consume(const LifecycleEvent &event);

    /**
     * A time-series sample fired; @p deltas are the per-category ledger
     * cycle totals accrued since the previous sample:
     * {"type":"sample","cycle":..,"ledger":{"idle":..,...}}
     */
    void sample(Cycle now,
                const std::array<Cycle, kNumLedgerCategories> &deltas);

    /**
     * Statistics were zeroed (end of warmup): {"type":"reset","cycle":..}.
     * Earlier records are kept — consumers wanting measured-region data
     * filter to records after the last reset marker.
     */
    void resetMark(Cycle now);

    /** Records held, including the meta record. */
    std::size_t size() const { return 1 + records_.size(); }

    /**
     * Write every record, one per line, newline-terminated.  Besides the
     * sample and reset shapes above:
     * - {"type":"walk","cycle":..,"id":..,"asid":..,"vpn":..,"sw":..,
     *    "queue_delay":..,"access_latency":..} for a completed walk whose
     *   translation was delivered; `sw` is true when a PW-warp (software)
     *   walked, false for the hardware PTW path;
     * - {"type":"fault","cycle":..,"id":..,"asid":..,"vpn":..,"sw":..}
     *   for a walk that hit a page fault and entered the fault buffer.
     */
    void write(std::ostream &out) const;

  private:
    enum class Kind : std::uint8_t
    {
        Walk,
        Fault,
        Sample,
        Reset,
    };

    /** One record as it arrived; write() renders it. */
    struct Record
    {
        Cycle cycle = 0;
        std::uint64_t id = 0;      ///< walk id (walk, fault)
        Vpn vpn = 0;
        Cycle queueDelay = 0;      ///< walk only
        Cycle accessLatency = 0;   ///< walk only
        Asid asid = 0;
        Kind kind = Kind::Walk;
        bool software = false;
    };

    std::vector<Record> records_;
    /** Each sample record's ledger deltas, in sample order. */
    std::vector<std::array<Cycle, kNumLedgerCategories>> sampleDeltas_;
};

} // namespace sw

#endif // SW_OBS_EVENT_LOG_HH
