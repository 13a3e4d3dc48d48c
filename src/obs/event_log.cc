/**
 * @file
 * EventLog implementation: typed record capture and NDJSON rendering.
 */

#include "obs/event_log.hh"

#include "obs/text_appender.hh"

namespace sw {

void
EventLog::consume(const LifecycleEvent &event)
{
    if (event.phase == LifecyclePhase::WalkFill) {
        records_.push_back({event.cycle, event.walk, event.key.vpn, event.a,
                            event.b, event.key.asid, Kind::Walk,
                            event.software});
    } else if (event.phase == LifecyclePhase::Fault) {
        records_.push_back({event.cycle, event.walk, event.key.vpn, 0, 0,
                            event.key.asid, Kind::Fault, event.software});
    }
}

void
EventLog::sample(Cycle now,
                 const std::array<Cycle, kNumLedgerCategories> &deltas)
{
    Record record;
    record.cycle = now;
    record.kind = Kind::Sample;
    records_.push_back(record);
    sampleDeltas_.push_back(deltas);
}

void
EventLog::resetMark(Cycle now)
{
    Record record;
    record.cycle = now;
    record.kind = Kind::Reset;
    records_.push_back(record);
}

void
EventLog::write(std::ostream &out) const
{
    TextAppender text(out);
    text << "{\"type\":\"meta\",\"schema\":\"" << kEventLogSchema << "\"}\n";
    std::size_t samples = 0;
    for (const Record &rec : records_) {
        switch (rec.kind) {
          case Kind::Walk:
            text << "{\"type\":\"walk\",\"cycle\":" << rec.cycle
                 << ",\"id\":" << rec.id << ",\"asid\":" << rec.asid
                 << ",\"vpn\":" << rec.vpn
                 << (rec.software ? ",\"sw\":true" : ",\"sw\":false")
                 << ",\"queue_delay\":" << rec.queueDelay
                 << ",\"access_latency\":" << rec.accessLatency << "}\n";
            break;
          case Kind::Fault:
            text << "{\"type\":\"fault\",\"cycle\":" << rec.cycle
                 << ",\"id\":" << rec.id << ",\"asid\":" << rec.asid
                 << ",\"vpn\":" << rec.vpn
                 << (rec.software ? ",\"sw\":true}\n" : ",\"sw\":false}\n");
            break;
          case Kind::Sample: {
            const auto &deltas = sampleDeltas_[samples++];
            text << "{\"type\":\"sample\",\"cycle\":" << rec.cycle
                 << ",\"ledger\":{";
            for (std::size_t cat = 0; cat < kNumLedgerCategories; ++cat) {
                text << (cat ? ",\"" : "\"")
                     << categoryName(static_cast<LedgerCategory>(cat))
                     << "\":" << deltas[cat];
            }
            text << "}}\n";
            break;
          }
          case Kind::Reset:
            text << "{\"type\":\"reset\",\"cycle\":" << rec.cycle << "}\n";
            break;
        }
    }
}

} // namespace sw
