/**
 * @file
 * StatRegistry: the unified statistics registry of the observability
 * subsystem (src/obs).
 *
 * Components register their existing counters / gauges / LatencyStats
 * under hierarchical dotted names ("sm3.l1tlb.misses",
 * "l2tlb.intlb_mshr.alloc_fail") through a non-owning StatGroup handle; the
 * registry then dumps everything to JSON generically, so adding a counter
 * to a component means adding one registration line instead of editing
 * every serialiser by hand.  Registration is pointer-based and costs
 * nothing on the simulation hot path: the registry only reads the values
 * when capture()/dumpJson() is called.
 *
 * Lifetime: entries point into live component state.  capture() snapshots
 * the current values into registry-owned storage so the dump remains valid
 * after the components (the Gpu) are destroyed — the experiment harness
 * captures right after a run completes.
 */

#ifndef SW_OBS_STAT_REGISTRY_HH
#define SW_OBS_STAT_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace sw {

class StatRegistry;

/** Escape a string for embedding in a JSON literal. */
std::string jsonEscape(const std::string &text);

/**
 * Non-owning registration handle scoped to a dotted prefix.  Cheap to copy;
 * group("sub") derives a nested scope.  All registered pointers must
 * outlive the registry's capture()/dumpJson() calls.
 */
class StatGroup
{
  public:
    StatGroup(StatRegistry &registry, std::string prefix)
        : registry_(&registry), prefix_(std::move(prefix))
    {
    }

    /** Derive a nested scope: group("l1tlb") under "sm3" -> "sm3.l1tlb". */
    StatGroup group(const std::string &name) const;

    /** Register a monotonic 64-bit counter. */
    void counter(const std::string &name, const std::uint64_t *value);

    /** Register a 32-bit counter (occupancy counters and the like). */
    void counter(const std::string &name, const std::uint32_t *value);

    /** Register a computed gauge (evaluated at capture time). */
    void gauge(const std::string &name, std::function<double()> fn);

    /** Register a LatencyStat (dumped as count/sum/min/max/mean). */
    void latency(const std::string &name, const LatencyStat *stat);

    const std::string &prefix() const { return prefix_; }

  private:
    std::string qualify(const std::string &name) const;

    StatRegistry *registry_;
    std::string prefix_;
};

/** Registry of hierarchically named, non-owned statistics. */
class StatRegistry
{
  public:
    StatRegistry() = default;

    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** Root registration scope (empty prefix). */
    StatGroup root() { return StatGroup(*this, ""); }

    /** Registration scope under @p prefix. */
    StatGroup group(std::string prefix)
    {
        return StatGroup(*this, std::move(prefix));
    }

    std::size_t size() const { return entries.size(); }
    bool has(const std::string &name) const;

    /** All registered dotted names, sorted. */
    std::vector<std::string> names() const;

    /**
     * Snapshot every entry's current value into registry-owned storage.
     * After capture() the registered pointers may dangle; dumpJson() keeps
     * serving the captured values.
     */
    void capture();

    /**
     * One JSON object keyed by dotted stat name (sorted), e.g.
     * {"l2tlb.hits":12,"walks.queue_delay":{"count":4,...}}.
     * Serves the capture()d snapshot if one exists, else reads live.
     */
    std::string dumpJson() const;

    /** One flattened numeric metric (for the Prometheus exporter). */
    struct NumericLeaf
    {
        std::string name;
        double value = 0.0;
    };

    /**
     * Every entry expanded to flat numeric leaves, sorted by name.
     * Scalar entries yield one leaf; a LatencyStat expands to
     * .count/.sum/.mean/.min/.max.  Serves the capture()d snapshot if one
     * exists (so exports stay valid after the machine is torn down),
     * else reads live.
     */
    std::vector<NumericLeaf> numericLeaves() const;

    /** Write dumpJson() to a stream. */
    void writeJson(std::ostream &out) const;

  private:
    friend class StatGroup;

    struct Entry
    {
        enum class Kind
        {
            U64,
            U32,
            Gauge,
            Latency,
        };

        Kind kind = Kind::U64;
        const std::uint64_t *u64 = nullptr;
        const std::uint32_t *u32 = nullptr;
        std::function<double()> gauge;
        const LatencyStat *lat = nullptr;
    };

    void add(std::string name, Entry entry);

    /** Render one entry's current value as a JSON fragment. */
    static std::string valueJson(const Entry &entry);

    /** Append one entry's flat numeric leaves to @p out. */
    static void appendLeaves(const std::string &name, const Entry &entry,
                             std::vector<NumericLeaf> &out);

    std::vector<std::pair<std::string, Entry>> entries;
    /** The names in entries, so a duplicate is found without a scan. */
    std::unordered_set<std::string> index;
    /** capture()d name -> rendered-JSON-value pairs (empty: not captured). */
    std::vector<std::pair<std::string, std::string>> snapshot;
    /** capture()d flat numeric leaves (empty: not captured). */
    std::vector<NumericLeaf> numericSnapshot;
};

} // namespace sw

#endif // SW_OBS_STAT_REGISTRY_HH
