/**
 * @file
 * Host-side self-profiler: SW_PROF scoped zones attribute *wall-clock*
 * time (not simulated cycles) to the simulator's hot components, so the
 * sweep-speedup and checkpoint/sampling work can be judged with evidence
 * about where host time actually goes.
 *
 * The design follows the SW_AUDIT mold from src/check:
 *
 *  - `-DSOFTWALKER_HOSTPROF=ON` compiles the zones in (the `hostprof`
 *    preset); the default build compiles every SW_PROF macro to
 *    `(void)sizeof(...)` — operands unevaluated, provably zero cost.
 *  - When compiled in, zones record only while the profiler is enabled
 *    (one relaxed atomic load otherwise), so a single binary can compare
 *    profiled and unprofiled runs.
 *  - The profiler only ever *reads* the simulation; it never schedules
 *    events, never touches the Rng, and never advances the clock, so the
 *    simulated timeline — and every RunResult fingerprint — is
 *    bit-identical with the profiler compiled in, enabled, or absent
 *    (tests/integration/test_prof_zero_perturbation.cc holds this down).
 *
 * Zones are accumulated per thread (SweepRunner workers never contend)
 * with an enter/exit stack that computes *self* time: a zone's self time
 * excludes nested zones, so the per-zone self times partition the
 * instrumented wall-clock and sum to the attributed total reported by
 * snapshot().  Thread records are merged on demand; merging sums counts
 * and times and takes maxima of gauges, so the merged hit counts are
 * deterministic across worker counts (the simulation itself is).
 *
 * src/prof is the one sanctioned home for std::chrono::steady_clock in
 * the source tree: the softwalker-wallclock-in-sim check allowlists this
 * directory (and only this directory) for clock reads, so simulation code
 * gets host-time attribution exclusively through these macros.
 */

#ifndef SW_PROF_HOSTPROF_HH
#define SW_PROF_HOSTPROF_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

#ifndef SOFTWALKER_HOSTPROF
#define SOFTWALKER_HOSTPROF 0
#endif

namespace sw {

struct RunManifest;

namespace prof {

/** True when the build compiles the SW_PROF zones in. */
inline constexpr bool kHostProfCompiled = SOFTWALKER_HOSTPROF != 0;

/**
 * Wall-clock attribution targets.  EventDispatch wraps every handler the
 * EventQueue executes, and the component zones nest inside it, so the
 * self-time split tells event-loop overhead, per-component work, and
 * observability overhead apart.
 */
enum class Zone : std::uint8_t
{
    Setup,          ///< workload materialisation + GPU construction
    SimLoop,        ///< EventQueue::run (self = heap/sweep overhead)
    EventDispatch,  ///< one handler invocation (self = uninstrumented work)
    SmExec,         ///< SM fetch/issue/execute scheduling
    TlbLookup,      ///< TranslationEngine TLB lookup / MSHR / fill paths
    PtwWalk,        ///< hardware PTW pool dispatch and walk steps
    PwWarpExec,     ///< SoftWalker PW-Warp batch execution
    CacheDram,      ///< cache hierarchy + DRAM model
    StatsAudit,     ///< auditor sweeps, stat finalisation/reset
    ObsSample,      ///< time-series sampler gauge sweeps
    Report,         ///< result collection + registry capture
    CkptSave,       ///< checkpoint serialisation + write
    CkptRestore,    ///< checkpoint read + state restore
    FfwdWarmup,     ///< functional fast-forward warmup
};

inline constexpr std::size_t kNumZones =
    static_cast<std::size_t>(Zone::FfwdWarmup) + 1;

/** Stable lower-case zone name (JSON keys, trace track names). */
const char *toString(Zone zone);

/** Merged per-zone accumulators. */
struct ZoneTotals
{
    std::uint64_t selfNanos = 0;   ///< excludes nested zones
    std::uint64_t totalNanos = 0;  ///< includes nested zones
    std::uint64_t hits = 0;
};

/** One host-gauge sample (taken every 2^16 executed events). */
struct GaugeSample
{
    std::uint64_t wallNanos = 0;     ///< since the profiler was enabled
    std::uint64_t simCycle = 0;      ///< event-queue clock at the sample
    std::uint64_t queueDepth = 0;    ///< pending events
    std::uint64_t slabLive = 0;      ///< event-slab slots holding handlers
    std::uint64_t slabCapacity = 0;  ///< event-slab high-water mark
};

/**
 * Process-wide checkpoint-I/O byte counter (host gauge): the ckpt library
 * bumps it on every checkpoint encode/decode and the JSON artifact
 * reports it in the gauge table.  Always compiled — it is a relaxed
 * atomic add, never a clock read, so checkpoint accounting works in
 * non-hostprof builds and cannot perturb the simulation.
 */
void addCheckpointBytes(std::uint64_t bytes);
std::uint64_t checkpointBytes();

/** Everything snapshot() merges out of the per-thread records. */
struct ProfileSnapshot
{
    ZoneTotals zones[kNumZones];
    std::uint64_t wallNanos = 0;        ///< enable -> snapshot
    std::uint64_t attributedNanos = 0;  ///< sum of zone self times
    std::uint64_t zoneDrops = 0;        ///< zones lost to stack overflow
    unsigned threads = 0;
    std::uint64_t gaugeCount = 0;       ///< samples taken (ring may drop)
    std::uint64_t maxQueueDepth = 0;
    std::uint64_t maxSlabLive = 0;
    std::uint64_t maxSlabCapacity = 0;
    std::uint64_t peakRssKb = 0;        ///< getrusage ru_maxrss
    double eventsPerSec = 0.0;          ///< dispatch hits / sim-loop time

    /** Fraction of enabled wall-clock the zones account for. */
    double
    coverage() const
    {
        return wallNanos ? double(attributedNanos) / double(wallNanos)
                         : 0.0;
    }
};

namespace detail {

struct ThreadRecord;

/** This thread's record, registered with the profiler on first use. */
ThreadRecord &threadRecord();

/** @return false when the zone stack is full (the zone is dropped). */
bool zoneEnter(ThreadRecord &rec, Zone zone, std::uint64_t start_nanos);
void zoneExit(ThreadRecord &rec, std::uint64_t end_nanos);

/** Monotonic nanoseconds (steady_clock; sanctioned here only). */
std::uint64_t nowNanos();

} // namespace detail

/**
 * Process-wide profiler: owns every thread's record, merges them into
 * ProfileSnapshots, and serialises the JSON profile artifact and the
 * Perfetto host tracks.
 */
class HostProfiler
{
  public:
    static HostProfiler &instance();

    /** Cheapest possible gate for the SW_PROF macros. */
    static bool
    enabled()
    {
        return enabledFlag.load(std::memory_order_relaxed);
    }

    /**
     * Arm / disarm recording.  Arming stamps the wall-clock origin that
     * snapshot() measures total time (and therefore coverage) against.
     */
    void setEnabled(bool on);

    /**
     * Zero every thread record and the wall-clock origin.  Call only
     * while no SW_PROF zone is live on another thread (between sweep
     * runs); records stay allocated so thread-local pointers never
     * dangle.
     */
    void reset();

    /** Merge every thread record.  Call after worker threads joined. */
    ProfileSnapshot snapshot() const;

    /** Gauge samples merged across threads, wall-clock order. */
    void gaugeSamples(GaugeSample *out, std::size_t max,
                      std::size_t &count) const;

    /**
     * Write the JSON profile artifact ("softwalker.hostprof/1"): the
     * manifest (when given), zone table, gauges, coverage.  Valid JSON
     * even when the profiler is compiled out (compiled:false).
     */
    void writeJson(std::ostream &out,
                   const RunManifest *manifest = nullptr) const;

    /**
     * Append Chrome trace_event objects for the host-side view to a
     * trace being written by TranslationTracer::writeTraceJson: zone
     * spans as "X" events on a dedicated host pid (ts in wall-clock
     * microseconds) and gauge samples as "C" counter tracks on the
     * simulated timeline (ts in cycles).  @p need_comma tracks the
     * caller's separator state.
     */
    void appendTraceEvents(std::ostream &out, bool &need_comma) const;

    /** Record one host-gauge sample on the calling thread. */
    static void gaugeSample(std::uint64_t sim_cycle,
                            std::size_t queue_depth, std::size_t slab_live,
                            std::size_t slab_capacity);

  private:
    HostProfiler() = default;

    friend struct detail::ThreadRecord;
    friend detail::ThreadRecord &detail::threadRecord();

    inline static std::atomic<bool> enabledFlag{false};
};

/**
 * RAII zone.  Construction checks the enable flag once; a disabled
 * profiler costs one relaxed load and no clock read.
 */
class ScopedZone
{
  public:
    explicit ScopedZone(Zone zone)
    {
#if SOFTWALKER_HOSTPROF
        if (HostProfiler::enabled()) {
            detail::ThreadRecord &record = detail::threadRecord();
            if (detail::zoneEnter(record, zone, detail::nowNanos()))
                rec = &record;
        }
#else
        (void)sizeof(zone);
#endif
    }

    ~ScopedZone()
    {
#if SOFTWALKER_HOSTPROF
        if (rec)
            detail::zoneExit(*rec, detail::nowNanos());
#endif
    }

    ScopedZone(const ScopedZone &) = delete;
    ScopedZone &operator=(const ScopedZone &) = delete;

#if SOFTWALKER_HOSTPROF
  private:
    detail::ThreadRecord *rec = nullptr;
#endif
};

} // namespace prof
} // namespace sw

#define SW_PROF_CONCAT2(a, b) a##b
#define SW_PROF_CONCAT(a, b) SW_PROF_CONCAT2(a, b)

#if SOFTWALKER_HOSTPROF
/** Attribute the rest of the enclosing scope's wall-clock to @p zone. */
#define SW_PROF_SCOPE(zone)                                                 \
    ::sw::prof::ScopedZone SW_PROF_CONCAT(swProfZone_, __LINE__)(zone)
/** Sample the host gauges (event-queue depth, slab occupancy). */
#define SW_PROF_GAUGES(cycle, depth, slab_live, slab_cap)                   \
    do {                                                                    \
        if (::sw::prof::HostProfiler::enabled()) {                          \
            ::sw::prof::HostProfiler::gaugeSample(cycle, depth, slab_live,  \
                                                  slab_cap);                \
        }                                                                   \
    } while (0)
#else
#define SW_PROF_SCOPE(zone)                                                 \
    do {                                                                    \
        (void)sizeof(zone);                                                 \
    } while (0)
#define SW_PROF_GAUGES(cycle, depth, slab_live, slab_cap)                   \
    do {                                                                    \
        (void)sizeof(cycle);                                                \
        (void)sizeof(depth);                                                \
        (void)sizeof(slab_live);                                            \
        (void)sizeof(slab_cap);                                             \
    } while (0)
#endif

#endif // SW_PROF_HOSTPROF_HH
