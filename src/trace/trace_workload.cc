#include "trace/trace_workload.hh"

#include <utility>

#include "ckpt/ckpt_io.hh"
#include "sim/logging.hh"
#include "sim/ordered.hh"

namespace sw {

const char *
toString(TraceEndPolicy policy)
{
    switch (policy) {
      case TraceEndPolicy::Drain:
        return "drain";
      case TraceEndPolicy::Loop:
        return "loop";
    }
    return "?";
}

TraceWorkload::TraceWorkload(const std::string &path,
                             TraceEndPolicy end_policy)
    : TraceWorkload(readTraceFile(path), path, end_policy)
{
}

TraceWorkload::TraceWorkload(TraceFile trace, std::string origin_label,
                             TraceEndPolicy end_policy)
    : trace_(std::move(trace)), origin(std::move(origin_label)),
      endPolicy_(end_policy)
{
    cursors.reserve(trace_.streams.size());
    for (const TraceStream &stream : trace_.streams) {
        std::uint64_t key = (std::uint64_t(stream.sm) << 32) | stream.warp;
        auto [it, inserted] = cursors.emplace(key, Cursor{});
        if (!inserted)
            fatal("corrupt trace '%s': duplicate stream (%u, %u)",
                  origin.c_str(), stream.sm, stream.warp);
        it->second.instrs = &stream.instrs;
    }
}

TraceWorkload::Cursor &
TraceWorkload::cursorFor(SmId sm, WarpId warp)
{
    // A (sm, warp) the trace never saw — possible only for digest-less
    // converted traces, since the config digest pins the machine shape —
    // behaves as an exhausted stream.
    return cursors[(std::uint64_t(sm) << 32) | warp];
}

WarpInstr
TraceWorkload::next(SmId sm, WarpId warp, Rng &rng)
{
    (void)rng;   // the recorded stream is the randomness
    Cursor &cursor = cursorFor(sm, warp);
    ++replayed;
    if (!cursor.instrs || cursor.pos >= cursor.instrs->size()) {
        if (endPolicy_ == TraceEndPolicy::Loop && cursor.instrs &&
            !cursor.instrs->empty()) {
            cursor.pos = 0;
        } else {
            if (!cursor.wrapped) {
                cursor.wrapped = true;
                ++exhausted;
            }
            // Idle instruction: no lanes, no traffic; the warp spins on
            // the issue port until quota or cycle cap ends the run.
            WarpInstr idle;
            idle.activeLanes = 0;
            return idle;
        }
        if (!cursor.wrapped) {
            cursor.wrapped = true;
            ++exhausted;
        }
    }
    return (*cursor.instrs)[cursor.pos++];
}

std::uint64_t
TraceWorkload::footprintBytes() const
{
    return trace_.header.footprintBytes;
}

std::string
TraceWorkload::name() const
{
    return trace_.header.name;
}

bool
TraceWorkload::irregular() const
{
    return trace_.header.irregular;
}

std::uint64_t
TraceWorkload::streamPos(std::size_t stream_index) const
{
    const TraceStream &stream = trace_.streams.at(stream_index);
    auto it = cursors.find((std::uint64_t(stream.sm) << 32) | stream.warp);
    return it == cursors.end() ? 0 : it->second.pos;
}

void
TraceWorkload::saveState(CkptWriter &w) const
{
    w.section("trace_workload");
    w.u64(replayed);
    w.u64(exhausted);
    w.u64(cursors.size());
    for (std::uint64_t key : sortedKeys(cursors)) {
        const Cursor &cursor = cursors.at(key);
        w.u64(key);
        w.u64(cursor.pos);
        w.u8(cursor.wrapped ? 1 : 0);
    }
}

void
TraceWorkload::restoreState(CkptReader &r)
{
    r.expectSection("trace_workload");
    replayed = r.u64();
    exhausted = r.u64();
    std::uint64_t num_cursors = r.count(17, "trace cursors");
    cursors.clear();
    // The instrs pointers are reconstructed from the loaded trace; keys
    // absent from it (digest-less converted traces only) stay pointerless
    // and keep behaving as exhausted streams.
    std::unordered_map<std::uint64_t, const std::vector<WarpInstr> *> byKey;
    byKey.reserve(trace_.streams.size());
    for (const TraceStream &stream : trace_.streams) {
        byKey.emplace((std::uint64_t(stream.sm) << 32) | stream.warp,
                      &stream.instrs);
    }
    for (std::uint64_t n = 0; n < num_cursors; ++n) {
        std::uint64_t key = r.u64();
        Cursor cursor;
        cursor.pos = r.u64();
        cursor.wrapped = r.u8() != 0;
        auto stream_it = byKey.find(key);
        if (stream_it != byKey.end()) {
            cursor.instrs = stream_it->second;
            if (cursor.pos > cursor.instrs->size())
                fatal("checkpoint trace cursor for stream (%llu, %llu) at "
                      "%zu past its %zu records",
                      static_cast<unsigned long long>(key >> 32),
                      static_cast<unsigned long long>(key & 0xFFFFFFFFull),
                      cursor.pos, cursor.instrs->size());
        }
        if (!cursors.emplace(key, cursor).second)
            fatal("checkpoint trace cursor key %llu duplicated",
                  static_cast<unsigned long long>(key));
    }
}

void
TraceWorkload::checkConfig(const GpuConfig &cfg) const
{
    // Replay derives each stream's address space from the machine's SM
    // partitioning, not from the tag — so a tag that disagrees means the
    // stream would silently run in a different address space than its
    // author declared.
    for (const TraceStream &stream : trace_.streams) {
        Asid placed = tenantOfSm(cfg, stream.sm);
        if (stream.asid != placed)
            fatal("trace '%s' stream (%u, %u) is tagged ASID %u but this "
                  "machine's partitioning places SM %u in ASID %u",
                  origin.c_str(), stream.sm, stream.warp, stream.asid,
                  stream.sm, placed);
    }

    std::uint64_t recorded = trace_.header.configDigest;
    if (recorded == kUnknownConfigDigest) {
        warn("trace '%s' carries no config digest (external origin): "
             "cannot verify it was recorded on this configuration",
             origin.c_str());
        return;
    }
    std::uint64_t ours = configDigest(cfg);
    if (ours != recorded)
        fatal("config digest mismatch replaying trace '%s': trace was "
              "recorded on %016llx, this run is configured as %016llx "
              "(replay requires the recording configuration)",
              origin.c_str(), (unsigned long long)recorded,
              (unsigned long long)ours);
}

} // namespace sw
