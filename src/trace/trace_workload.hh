/**
 * @file
 * TraceWorkload: replay a `.swtrace` file as a first-class Workload.
 *
 * Replay is the external-workload entry point of the simulator: any
 * page-access stream — one we recorded ourselves, or one converted from
 * another simulator's trace (trace_convert.hh) — drives the translation
 * path exactly as a synthetic generator would.  Replaying under the
 * recording configuration and limits reproduces the recorded run
 * field-identically (the Rng the SM passes in is ignored; the stream *is*
 * the randomness).
 */

#ifndef SW_TRACE_TRACE_WORKLOAD_HH
#define SW_TRACE_TRACE_WORKLOAD_HH

#include <string>
#include <unordered_map>
#include <vector>

#include "trace/trace_format.hh"
#include "workload/workload.hh"

namespace sw {

/** What next() returns once a (sm, warp) stream runs out of records. */
enum class TraceEndPolicy
{
    /**
     * Emit idle instructions (zero active lanes): the warp spins without
     * memory traffic until the run's quota or cycle cap stops it.
     */
    Drain,
    /** Rewind the stream to its first record and keep replaying. */
    Loop,
};

const char *toString(TraceEndPolicy policy);

/** Replays a recorded trace; see the file comment for the contract. */
class TraceWorkload : public Workload
{
  public:
    /** Load @p path; fatal() with a diagnostic on any malformed input. */
    explicit TraceWorkload(const std::string &path,
                           TraceEndPolicy end_policy = TraceEndPolicy::Drain);

    /** Wrap an already decoded trace (the converter's test seam). */
    TraceWorkload(TraceFile trace, std::string origin,
                  TraceEndPolicy end_policy = TraceEndPolicy::Drain);

    WarpInstr next(SmId sm, WarpId warp, Rng &rng) override;
    std::uint64_t footprintBytes() const override;
    std::string name() const override;
    bool irregular() const override;

    /**
     * fatal() unless @p cfg hashes to the recorded config digest.  A
     * digest of kUnknownConfigDigest (converted traces) skips the check
     * with a warning: the stream still replays, but nothing guarantees it
     * was generated for this machine.
     */
    void checkConfig(const GpuConfig &cfg) const;

    std::uint64_t recordedDigest() const { return trace_.header.configDigest; }
    const TraceLimits &recordedLimits() const { return trace_.header.limits; }
    TraceEndPolicy endPolicy() const { return endPolicy_; }

    std::size_t numStreams() const { return trace_.streams.size(); }
    std::uint64_t totalInstrs() const { return trace_.totalInstrs(); }

    /** Records served so far, idle fills included. */
    std::uint64_t replayedInstrs() const { return replayed; }
    /** Streams that have run past their last record at least once. */
    std::uint64_t exhaustedStreams() const { return exhausted; }

    /** The decoded trace (sampling passes scan the raw streams). */
    const TraceFile &trace() const { return trace_; }

    /**
     * Records consumed so far from stream @p stream_index (an index into
     * trace().streams).  Fast-forward uses this together with
     * TraceFile::fetchOrder to resume the recorded global fetch
     * interleave from the replay's current per-warp positions.
     */
    std::uint64_t streamPos(std::size_t stream_index) const;

    void saveState(CkptWriter &w) const override;
    void restoreState(CkptReader &r) override;

  private:
    struct Cursor
    {
        const std::vector<WarpInstr> *instrs = nullptr;
        std::size_t pos = 0;
        bool wrapped = false;
    };

    Cursor &cursorFor(SmId sm, WarpId warp);

    TraceFile trace_;
    std::string origin;                 ///< path (or label) for diagnostics
    TraceEndPolicy endPolicy_;
    std::unordered_map<std::uint64_t, Cursor> cursors;
    std::uint64_t replayed = 0;
    std::uint64_t exhausted = 0;
};

} // namespace sw

#endif // SW_TRACE_TRACE_WORKLOAD_HH
