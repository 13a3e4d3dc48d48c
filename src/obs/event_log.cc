/**
 * @file
 * EventLog implementation: NDJSON record construction and flush.
 */

#include "obs/event_log.hh"

#include <ostream>
#include <sstream>

namespace sw {

EventLog::EventLog()
{
    std::ostringstream meta;
    meta << "{\"type\":\"meta\",\"schema\":\"" << kEventLogSchema << "\"}";
    lines_.push_back(meta.str());
}

void
EventLog::consume(const LifecycleEvent &event)
{
    if (event.phase == LifecyclePhase::WalkFill) {
        walk(event.cycle, event.walk, event.key, event.software, event.a,
             event.b);
    } else if (event.phase == LifecyclePhase::Fault) {
        fault(event.cycle, event.walk, event.key, event.software);
    }
}

void
EventLog::walk(Cycle now, std::uint64_t id, const TranslationKey &key,
               bool software, Cycle queueDelay, Cycle accessLatency)
{
    std::ostringstream line;
    line << "{\"type\":\"walk\",\"cycle\":" << now << ",\"id\":" << id
         << ",\"asid\":" << key.asid << ",\"vpn\":" << key.vpn
         << ",\"sw\":" << (software ? "true" : "false")
         << ",\"queue_delay\":" << queueDelay
         << ",\"access_latency\":" << accessLatency << "}";
    lines_.push_back(line.str());
}

void
EventLog::fault(Cycle now, std::uint64_t id, const TranslationKey &key,
                bool software)
{
    std::ostringstream line;
    line << "{\"type\":\"fault\",\"cycle\":" << now << ",\"id\":" << id
         << ",\"asid\":" << key.asid << ",\"vpn\":" << key.vpn
         << ",\"sw\":" << (software ? "true" : "false") << "}";
    lines_.push_back(line.str());
}

void
EventLog::sample(Cycle now,
                 const std::array<Cycle, kNumLedgerCategories> &deltas)
{
    std::ostringstream line;
    line << "{\"type\":\"sample\",\"cycle\":" << now << ",\"ledger\":{";
    for (std::size_t cat = 0; cat < kNumLedgerCategories; ++cat) {
        line << (cat ? "," : "") << "\""
             << categoryName(static_cast<LedgerCategory>(cat))
             << "\":" << deltas[cat];
    }
    line << "}}";
    lines_.push_back(line.str());
}

void
EventLog::resetMark(Cycle now)
{
    std::ostringstream line;
    line << "{\"type\":\"reset\",\"cycle\":" << now << "}";
    lines_.push_back(line.str());
}

void
EventLog::write(std::ostream &out) const
{
    for (const std::string &line : lines_)
        out << line << "\n";
}

} // namespace sw
