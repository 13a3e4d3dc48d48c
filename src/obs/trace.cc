#include "obs/trace.hh"

#include <ostream>

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
    Stamp stamp{cycle, id, event.key.vpn, where, phase, event.key.asid};
    if (ring.size() < capacity_) {
        ring.push_back(stamp);
    } else {
        ring[ringNext] = stamp;
        ringNext = (ringNext + 1) % capacity_;
        ++stampsDropped_;
    }

    // Lifecycle reconstruction: only phases keyed by a walk id take part.
    if (id == 0)
        return;
    switch (phase) {
      case LifecyclePhase::WalkCreated: {
        WalkSpan span;
        span.id = id;
        span.vpn = event.key.vpn;
        span.asid = event.key.asid;
        span.created = cycle;
        live[id] = span;
        break;
      }
      case LifecyclePhase::WalkDispatch: {
        auto it = live.find(id);
        if (it != live.end() && it->second.dispatched == 0) {
            it->second.dispatched = cycle;
            it->second.where = where;
        }
        break;
      }
      case LifecyclePhase::PtRead: {
        auto it = live.find(id);
        if (it != live.end())
            ++it->second.ptReads;
        break;
      }
      case LifecyclePhase::WalkFill: {
        auto it = live.find(id);
        if (it == live.end())
            break;
        WalkSpan span = it->second;
        live.erase(it);
        span.filled = cycle;
        // Faulted walks are replayed without a fresh WalkCreated; a
        // replay that never went through dispatch attributes everything
        // to the walk phase.
        Cycle dispatch = span.dispatched ? span.dispatched : span.created;
        queuePhase_.add(dispatch - span.created);
        walkPhase_.add(span.filled - dispatch);
        totalPhase_.add(span.filled - span.created);
        ptReadsPerWalk_.add(span.ptReads);
        ++spansCompleted_;
        if (spanRing.size() < capacity_) {
            spanRing.push_back(span);
        } else {
            spanRing[spanNext] = span;
            spanNext = (spanNext + 1) % capacity_;
            ++spansDropped_;
        }
        break;
      }
      case LifecyclePhase::Fault:
        // The replay arrives as a fresh WalkCreated with a new id; drop
        // the faulted span so the live map doesn't accumulate them.
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
    for (std::size_t i = 0; i < ring.size(); ++i)
        out.push_back(ring[(ringNext + i) % ring.size()]);
    return out;
}

std::vector<TranslationTracer::WalkSpan>
TranslationTracer::spans() const
{
    std::vector<WalkSpan> out;
    out.reserve(spanRing.size());
    for (std::size_t i = 0; i < spanRing.size(); ++i)
        out.push_back(spanRing[(spanNext + i) % spanRing.size()]);
    return out;
}

void
TranslationTracer::writeTraceJson(std::ostream &out) const
{
    // Chrome trace_event "JSON array format": Perfetto and chrome://tracing
    // both load a bare array of event objects.  ts/dur are simulated
    // cycles (the viewers treat them as microseconds; only ratios matter).
    out << "[";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            out << ",\n";
        first = false;
    };

    for (const WalkSpan &span : spans()) {
        unsigned long long tid =
            span.where == LifecycleEvent::kNoWhere ? 0ull
                                   : static_cast<unsigned long long>(
                                         span.where);
        sep();
        out << strprintf(
            "{\"name\":\"queue\",\"cat\":\"walk\",\"ph\":\"X\","
            "\"ts\":%llu,\"dur\":%llu,\"pid\":0,\"tid\":%llu,"
            "\"args\":{\"id\":%llu,\"vpn\":%llu,\"asid\":%u}}",
            static_cast<unsigned long long>(span.created),
            static_cast<unsigned long long>(
                (span.dispatched ? span.dispatched : span.created) -
                span.created),
            tid, static_cast<unsigned long long>(span.id),
            static_cast<unsigned long long>(span.vpn), span.asid);
        sep();
        Cycle dispatch = span.dispatched ? span.dispatched : span.created;
        out << strprintf(
            "{\"name\":\"walk\",\"cat\":\"walk\",\"ph\":\"X\","
            "\"ts\":%llu,\"dur\":%llu,\"pid\":0,\"tid\":%llu,"
            "\"args\":{\"id\":%llu,\"vpn\":%llu,\"asid\":%u,"
            "\"pt_reads\":%u}}",
            static_cast<unsigned long long>(dispatch),
            static_cast<unsigned long long>(span.filled - dispatch),
            tid, static_cast<unsigned long long>(span.id),
            static_cast<unsigned long long>(span.vpn), span.asid,
            span.ptReads);
    }

    for (const Stamp &stamp : stamps()) {
        sep();
        out << strprintf(
            "{\"name\":\"%s\",\"cat\":\"phase\",\"ph\":\"i\",\"s\":\"t\","
            "\"ts\":%llu,\"pid\":0,\"tid\":%llu,"
            "\"args\":{\"id\":%llu,\"vpn\":%llu,\"asid\":%u}}",
            toString(stamp.phase),
            static_cast<unsigned long long>(stamp.cycle),
            stamp.where == LifecycleEvent::kNoWhere
                ? 0ull
                : static_cast<unsigned long long>(stamp.where),
            static_cast<unsigned long long>(stamp.id),
            static_cast<unsigned long long>(stamp.vpn), stamp.asid);
    }

    // Host-side view (hostprof builds with the profiler enabled): zone
    // spans on a dedicated host pid and event-queue gauge counters on the
    // simulated timeline.  A no-op in default builds.
    bool need_comma = !first;
    prof::HostProfiler::instance().appendTraceEvents(out, need_comma);

    out << "]\n";
}

} // namespace sw
