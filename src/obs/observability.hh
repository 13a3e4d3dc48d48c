/**
 * @file
 * Observability: optional bundle of the src/obs layers.
 *
 * The experiment harness threads one of these (or nullptr) through a run:
 * the registry collects component stats for the generic JSON dump, the
 * tracer stamps translation lifecycles, the sampler snapshots gauges
 * every sampleInterval cycles, the ledger attributes every SM cycle to
 * one taxonomy category (docs/CYCLE_ACCOUNTING.md), and the event log
 * records walks/faults/samples as NDJSON.  Any member may be null; a
 * null bundle (or the default-constructed one) reproduces the
 * uninstrumented run exactly.
 */

#ifndef SW_OBS_OBSERVABILITY_HH
#define SW_OBS_OBSERVABILITY_HH

#include "obs/cycle_ledger.hh"
#include "obs/event_log.hh"
#include "obs/sampler.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "sim/types.hh"

namespace sw {

/** Optional observability hooks for one simulation run. */
struct Observability
{
    StatRegistry *registry = nullptr;
    TranslationTracer *tracer = nullptr;
    TimeSeriesSampler *sampler = nullptr;
    CycleLedger *ledger = nullptr;
    EventLog *events = nullptr;
    /** Sweep period for the sampler, non-zero (unused without one). */
    Cycle sampleInterval = 10000;

    bool
    any() const
    {
        return registry || tracer || sampler || ledger || events;
    }
};

} // namespace sw

#endif // SW_OBS_OBSERVABILITY_HH
