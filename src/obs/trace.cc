#include "obs/trace.hh"

#include "obs/text_appender.hh"
#include "prof/hostprof.hh"
#include "sim/logging.hh"

namespace sw {

TranslationTracer::TranslationTracer(std::size_t capacity)
    : capacity_(capacity)
{
    SW_ASSERT(capacity_ > 0, "tracer needs a non-zero ring capacity");
    ring.reserve(capacity_);
    spanRing.reserve(capacity_);
}

void
TranslationTracer::consume(const LifecycleEvent &event)
{
    const LifecyclePhase phase = event.phase;
    if (phase > LifecyclePhase::Wakeup)
        return; // ledger-only transitions
    const Cycle cycle = event.cycle;
    const std::uint64_t id = event.walk;
    const std::uint32_t where = event.where;
    ++stampsRecorded_;
    if (push(ring, ringNext,
             Stamp{cycle, id, event.key.vpn, where, phase, event.key.asid}))
        ++stampsDropped_;

    // Lifecycle reconstruction: only phases keyed by a walk id take part.
    if (id == 0)
        return;
    switch (phase) {
      case LifecyclePhase::WalkCreated: {
        // Walk ids are unique: a replay gets a fresh one.
        WalkSpan &span = live.insert(id);
        span.id = id;
        span.vpn = event.key.vpn;
        span.asid = event.key.asid;
        span.created = cycle;
        break;
      }
      case LifecyclePhase::WalkDispatch: {
        WalkSpan *span = live.find(id);
        if (span && span->dispatched == 0) {
            span->dispatched = cycle;
            span->where = where;
        }
        break;
      }
      case LifecyclePhase::PtRead:
        if (WalkSpan *span = live.find(id))
            ++span->ptReads;
        break;
      case LifecyclePhase::WalkFill: {
        const WalkSpan *found = live.find(id);
        if (!found)
            break;
        WalkSpan span = *found;
        live.erase(id);
        span.filled = cycle;
        // A walk whose backend never stamped a dispatch attributes
        // everything to the walk phase.
        Cycle dispatch = span.dispatched ? span.dispatched : span.created;
        queuePhase_.add(dispatch - span.created);
        walkPhase_.add(span.filled - dispatch);
        totalPhase_.add(span.filled - span.created);
        ptReadsPerWalk_.add(span.ptReads);
        ++spansCompleted_;
        if (push(spanRing, spanNext, span))
            ++spansDropped_;
        break;
      }
      case LifecyclePhase::Fault:
        // The replay arrives as a fresh WalkCreated with a new id; drop
        // the faulted span so the live map doesn't accumulate them.
        if (live.find(id))
            live.erase(id);
        break;
      default:
        break;
    }
}

void
TranslationTracer::resetAttribution()
{
    queuePhase_.reset();
    walkPhase_.reset();
    totalPhase_.reset();
    ptReadsPerWalk_.reset();
}

std::vector<TranslationTracer::Stamp>
TranslationTracer::stamps() const
{
    std::vector<Stamp> out;
    out.reserve(ring.size());
    forEachOldestFirst(ring, ringNext,
                       [&](const Stamp &stamp) { out.push_back(stamp); });
    return out;
}

std::vector<TranslationTracer::WalkSpan>
TranslationTracer::spans() const
{
    std::vector<WalkSpan> out;
    out.reserve(spanRing.size());
    forEachOldestFirst(spanRing, spanNext,
                       [&](const WalkSpan &span) { out.push_back(span); });
    return out;
}

void
TranslationTracer::writeTraceJson(std::ostream &out) const
{
    // Chrome trace_event "JSON array format": Perfetto and chrome://tracing
    // both load a bare array of event objects.  ts/dur are simulated
    // cycles (the viewers treat them as microseconds; only ratios matter).
    TextAppender text(out);
    text << "[";
    const char *sep = "";
    auto tid = [](std::uint32_t where) {
        return where == LifecycleEvent::kNoWhere ? 0u : where;
    };

    forEachOldestFirst(spanRing, spanNext, [&](const WalkSpan &span) {
        Cycle dispatch = span.dispatched ? span.dispatched : span.created;
        text << sep
             << "{\"name\":\"queue\",\"cat\":\"walk\",\"ph\":\"X\",\"ts\":"
             << span.created << ",\"dur\":" << dispatch - span.created
             << ",\"pid\":0,\"tid\":" << tid(span.where)
             << ",\"args\":{\"id\":" << span.id << ",\"vpn\":" << span.vpn
             << ",\"asid\":" << span.asid << "}},\n"
             << "{\"name\":\"walk\",\"cat\":\"walk\",\"ph\":\"X\",\"ts\":"
             << dispatch << ",\"dur\":" << span.filled - dispatch
             << ",\"pid\":0,\"tid\":" << tid(span.where)
             << ",\"args\":{\"id\":" << span.id << ",\"vpn\":" << span.vpn
             << ",\"asid\":" << span.asid << ",\"pt_reads\":" << span.ptReads
             << "}}";
        sep = ",\n";
    });

    forEachOldestFirst(ring, ringNext, [&](const Stamp &stamp) {
        text << sep << "{\"name\":\"" << toString(stamp.phase)
             << "\",\"cat\":\"phase\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
             << stamp.cycle << ",\"pid\":0,\"tid\":" << tid(stamp.where)
             << ",\"args\":{\"id\":" << stamp.id << ",\"vpn\":" << stamp.vpn
             << ",\"asid\":" << stamp.asid << "}}";
        sep = ",\n";
    });

    // Host-side view (hostprof builds with the profiler enabled): zone
    // spans on a dedicated host pid and event-queue gauge counters on the
    // simulated timeline.  A no-op in default builds.  It writes to the
    // ostream itself, so everything buffered goes first.
    text.flush();
    bool need_comma = *sep != '\0';
    prof::HostProfiler::instance().appendTraceEvents(out, need_comma);

    text << "]\n";
}

} // namespace sw
