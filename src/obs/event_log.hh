/**
 * @file
 * EventLog: schema-versioned NDJSON structured event log.
 *
 * One JSON object per line: a leading `meta` record carrying the schema
 * tag (`softwalker.events/1`), then one record per completed walk, per
 * page fault, and per time-series sample (with per-category ledger
 * deltas).  Records are buffered in memory and flushed by the caller
 * after the run.  Walk and fault records come from the LifecycleStream
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
#include <string>
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
    EventLog();

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

    /** Records written so far, including the meta line. */
    std::size_t size() const { return lines_.size(); }

    /** Write every record, one per line, newline-terminated. */
    void write(std::ostream &out) const;

  private:
    /**
     * A walk completed and its translation was delivered:
     * {"type":"walk","cycle":..,"id":..,"asid":..,"vpn":..,"sw":..,
     *  "queue_delay":..,"access_latency":..}
     * `sw` is true when a PW-warp (software) walked, false for the
     * hardware PTW path.
     */
    void walk(Cycle now, std::uint64_t id, const TranslationKey &key,
              bool software, Cycle queueDelay, Cycle accessLatency);

    /**
     * A walk hit a page fault and entered the fault buffer:
     * {"type":"fault","cycle":..,"id":..,"asid":..,"vpn":..,"sw":..}
     */
    void fault(Cycle now, std::uint64_t id, const TranslationKey &key,
               bool software);

    std::vector<std::string> lines_;
};

} // namespace sw

#endif // SW_OBS_EVENT_LOG_HH
