/**
 * @file
 * TimeSeriesSampler: periodic gauge snapshots over simulated time.
 *
 * Piggybacks on EventQueue::addPeriodicCheck — the same non-perturbing
 * sweep mechanism the Simulation Auditor uses — to snapshot registered
 * gauges (PW-Warp occupancy, In-TLB MSHR occupancy, PTW queue depth, TLB
 * miss rate, ...) at a configurable cycle interval.  Samples accumulate in
 * sampler-owned rows and are written out as CSV after the run, so the
 * Fig 17 / Fig 24-style over-time plots read real trajectories instead of
 * end-of-run peaks.  The sampler never schedules events: an installed
 * sampler leaves the simulated timeline bit-identical.
 */

#ifndef SW_OBS_SAMPLER_HH
#define SW_OBS_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace sw {

/** Periodic snapshotter of named gauges into in-memory CSV rows. */
class TimeSeriesSampler
{
  public:
    /** One snapshot: the sweep cycle plus one value per gauge. */
    struct Row
    {
        Cycle cycle = 0;
        std::vector<double> values;
    };

    TimeSeriesSampler() = default;

    TimeSeriesSampler(const TimeSeriesSampler &) = delete;
    TimeSeriesSampler &operator=(const TimeSeriesSampler &) = delete;

    ~TimeSeriesSampler() { uninstall(); }

    /** Register a gauge; must happen before install(). */
    void gauge(std::string name, std::function<double()> fn);

    /**
     * Arm periodic sampling on @p eq every @p interval cycles (sweeps ride
     * on real events between two events; nothing is scheduled).
     */
    void install(EventQueue &eq, Cycle interval);

    /** Disarm (safe to call when not installed). */
    void uninstall();

    /** Take one snapshot immediately (install() does this via the sweep). */
    void sampleNow(Cycle now);

    /**
     * Emit the end-of-run sample: snapshots once at @p now unless the
     * last periodic sweep already landed there.  Guarantees runs shorter
     * than one interval still produce a non-empty CSV.
     */
    void finalize(Cycle now);

    /**
     * Optional hook fired at the start of every snapshot (periodic and
     * final), before the gauges are read.  The observability wiring uses
     * it to sync the cycle ledger (so ledger gauges are exact) and to
     * emit NDJSON sample records; it must not schedule events.
     */
    void onSample(std::function<void(Cycle)> fn) { onSample_ = std::move(fn); }

    std::size_t numRows() const { return rows_.size(); }
    const std::vector<Row> &rows() const { return rows_; }

    /** CSV header: "cycle,<gauge>,<gauge>,...". */
    std::string csvHeader() const;

    /** Write header + all rows. */
    void writeCsv(std::ostream &out) const;

  private:
    std::vector<std::function<double()>> gauges;
    std::vector<std::string> names_;
    std::vector<Row> rows_;
    std::function<void(Cycle)> onSample_;

    EventQueue *installedOn = nullptr;
    std::uint64_t sweepId = 0;
};

} // namespace sw

#endif // SW_OBS_SAMPLER_HH
