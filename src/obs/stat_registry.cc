#include "obs/stat_registry.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "sim/logging.hh"

namespace sw {

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char ch : text) {
        switch (ch) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                out += strprintf("\\u%04x", ch);
            } else {
                out += ch;
            }
            break;
        }
    }
    return out;
}

StatGroup
StatGroup::group(const std::string &name) const
{
    return StatGroup(*registry_, qualify(name));
}

std::string
StatGroup::qualify(const std::string &name) const
{
    return prefix_.empty() ? name : prefix_ + "." + name;
}

void
StatGroup::counter(const std::string &name, const std::uint64_t *value)
{
    StatRegistry::Entry entry;
    entry.kind = StatRegistry::Entry::Kind::U64;
    entry.u64 = value;
    registry_->add(qualify(name), std::move(entry));
}

void
StatGroup::counter(const std::string &name, const std::uint32_t *value)
{
    StatRegistry::Entry entry;
    entry.kind = StatRegistry::Entry::Kind::U32;
    entry.u32 = value;
    registry_->add(qualify(name), std::move(entry));
}

void
StatGroup::gauge(const std::string &name, std::function<double()> fn)
{
    StatRegistry::Entry entry;
    entry.kind = StatRegistry::Entry::Kind::Gauge;
    entry.gauge = std::move(fn);
    registry_->add(qualify(name), std::move(entry));
}

void
StatGroup::latency(const std::string &name, const LatencyStat *stat)
{
    StatRegistry::Entry entry;
    entry.kind = StatRegistry::Entry::Kind::Latency;
    entry.lat = stat;
    registry_->add(qualify(name), std::move(entry));
}

bool
StatRegistry::has(const std::string &name) const
{
    return index.count(name) != 0;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries.size());
    for (const auto &[name, entry] : entries)
        out.push_back(name);
    std::sort(out.begin(), out.end());
    return out;
}

void
StatRegistry::add(std::string name, Entry entry)
{
    SW_ASSERT(!name.empty(), "stat registered without a name");
    SW_ASSERT(!has(name), "duplicate stat registration '%s'", name.c_str());
    index.insert(name);
    entries.emplace_back(std::move(name), std::move(entry));
}

std::string
StatRegistry::valueJson(const Entry &entry)
{
    switch (entry.kind) {
      case Entry::Kind::U64:
        return strprintf("%llu",
                         static_cast<unsigned long long>(*entry.u64));
      case Entry::Kind::U32:
        return strprintf("%u", *entry.u32);
      case Entry::Kind::Gauge:
        return strprintf("%.6g", entry.gauge());
      case Entry::Kind::Latency: {
        const LatencyStat &s = *entry.lat;
        return strprintf(
            "{\"count\":%llu,\"sum\":%llu,\"min\":%llu,\"max\":%llu,"
            "\"mean\":%.6g}",
            static_cast<unsigned long long>(s.count),
            static_cast<unsigned long long>(s.sum),
            static_cast<unsigned long long>(s.count ? s.minv : 0),
            static_cast<unsigned long long>(s.maxv), s.mean());
      }
    }
    return "null";
}

void
StatRegistry::appendLeaves(const std::string &name, const Entry &entry,
                           std::vector<NumericLeaf> &out)
{
    switch (entry.kind) {
      case Entry::Kind::U64:
        out.push_back({name, static_cast<double>(*entry.u64)});
        break;
      case Entry::Kind::U32:
        out.push_back({name, static_cast<double>(*entry.u32)});
        break;
      case Entry::Kind::Gauge:
        out.push_back({name, entry.gauge()});
        break;
      case Entry::Kind::Latency: {
        const LatencyStat &s = *entry.lat;
        out.push_back({name + ".count", static_cast<double>(s.count)});
        out.push_back({name + ".sum", static_cast<double>(s.sum)});
        out.push_back({name + ".mean", s.mean()});
        out.push_back(
            {name + ".min", static_cast<double>(s.count ? s.minv : 0)});
        out.push_back({name + ".max", static_cast<double>(s.maxv)});
        break;
      }
    }
}

void
StatRegistry::capture()
{
    snapshot.clear();
    snapshot.reserve(entries.size());
    for (const auto &[name, entry] : entries)
        snapshot.emplace_back(name, valueJson(entry));
    numericSnapshot.clear();
    for (const auto &[name, entry] : entries)
        appendLeaves(name, entry, numericSnapshot);
}

std::vector<StatRegistry::NumericLeaf>
StatRegistry::numericLeaves() const
{
    std::vector<NumericLeaf> leaves;
    if (!numericSnapshot.empty() || entries.empty()) {
        leaves = numericSnapshot;
    } else {
        for (const auto &[name, entry] : entries)
            appendLeaves(name, entry, leaves);
    }
    std::sort(leaves.begin(), leaves.end(),
              [](const NumericLeaf &a, const NumericLeaf &b) {
                  return a.name < b.name;
              });
    return leaves;
}

std::string
StatRegistry::dumpJson() const
{
    std::vector<std::pair<std::string, std::string>> rows;
    if (!snapshot.empty() || entries.empty()) {
        rows = snapshot;
    } else {
        rows.reserve(entries.size());
        for (const auto &[name, entry] : entries)
            rows.emplace_back(name, valueJson(entry));
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });

    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i)
            out << ",";
        out << "\"" << jsonEscape(rows[i].first) << "\":" << rows[i].second;
    }
    out << "}";
    return out.str();
}

void
StatRegistry::writeJson(std::ostream &out) const
{
    out << dumpJson() << "\n";
}

} // namespace sw
