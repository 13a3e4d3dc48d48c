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
    ++stampsRecorded_;
    if (push(ring, ringNext,
             Stamp{event.cycle, event.walk, event.key.vpn, event.where,
                   phase, event.key.asid}))
        ++stampsDropped_;
    if (phase != LifecyclePhase::WalkFill)
        return;

    // The fill carries the backend's walk record: its span is
    // [fill - access - queue, fill - access, fill].
    const Cycle dispatched = event.cycle - event.b;
    const WalkSpan span{.id = event.walk,
                        .vpn = event.key.vpn,
                        .asid = event.key.asid,
                        .created = dispatched - event.a,
                        .dispatched = dispatched,
                        .filled = event.cycle,
                        .ptReads = event.ptReads,
                        .where = event.walker};
    queuePhase_.add(event.a);
    walkPhase_.add(event.b);
    totalPhase_.add(event.a + event.b);
    ptReadsPerWalk_.add(event.ptReads);
    ++spansCompleted_;
    if (push(spanRing, spanNext, span))
        ++spansDropped_;
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
        text << sep
             << "{\"name\":\"queue\",\"cat\":\"walk\",\"ph\":\"X\",\"ts\":"
             << span.created << ",\"dur\":" << span.dispatched - span.created
             << ",\"pid\":0,\"tid\":" << tid(span.where)
             << ",\"args\":{\"id\":" << span.id << ",\"vpn\":" << span.vpn
             << ",\"asid\":" << span.asid << "}},\n"
             << "{\"name\":\"walk\",\"cat\":\"walk\",\"ph\":\"X\",\"ts\":"
             << span.dispatched
             << ",\"dur\":" << span.filled - span.dispatched
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
