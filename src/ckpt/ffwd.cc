#include "ckpt/ffwd.hh"

#include <algorithm>
#include <vector>

#include "prof/hostprof.hh"
#include "sim/logging.hh"
#include "trace/trace_workload.hh"
#include "vm/address.hh"

namespace sw {

namespace {

struct Stream
{
    SmId sm;
    WarpId warp;
};

/**
 * Fetch one instruction from @p workload for @p stream and functionally
 * touch every distinct page it references (execMemInstr's coalescing,
 * without timing).
 */
void
touchOne(Gpu &gpu, const Stream &stream, const PageGeometry &geometry,
         std::vector<Vpn> &vpns, FfwdStats &out)
{
    const GpuConfig &cfg = gpu.config();
    Asid asid = tenantOfSm(cfg, stream.sm);
    WarpInstr instr = gpu.workloadOf(asid).next(
        stream.sm, stream.warp, gpu.sm(stream.sm).workloadRng());
    ++out.instrs;

    vpns.clear();
    std::uint32_t lanes =
        std::min<std::uint32_t>(instr.activeLanes, cfg.warpSize);
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        Vpn vpn = geometry.vpnOf(instr.addrs[lane]);
        if (std::find(vpns.begin(), vpns.end(), vpn) == vpns.end())
            vpns.push_back(vpn);
    }
    for (Vpn vpn : vpns) {
        ++out.pagesTouched;
        switch (gpu.engine().functionalTouch(stream.sm,
                                             TranslationKey{asid, vpn})) {
          case TouchResult::L1Hit: ++out.l1TlbHits; break;
          case TouchResult::L2Hit: ++out.l2TlbHits; break;
          case TouchResult::Walk: ++out.walks; break;
        }
    }
}

} // namespace

FfwdStats
fastForward(Gpu &gpu, std::uint64_t instrs, const Gpu::RunLimits &limits)
{
    SW_PROF_SCOPE(prof::Zone::FfwdWarmup);
    SW_ASSERT(gpu.eventQueue().empty(),
              "fast-forward with events still pending");

    const GpuConfig &cfg = gpu.config();
    PageGeometry geometry(cfg.pageBytes);

    std::vector<std::uint32_t> active = gpu.warpsToStart(limits);
    std::vector<Stream> streams;
    for (SmId sm = 0; sm < SmId(gpu.numSms()); ++sm) {
        for (WarpId warp = 0; warp < active[sm]; ++warp)
            streams.push_back({sm, warp});
    }
    SW_ASSERT(!streams.empty(), "fast-forward with no active warps");

    FfwdStats out;
    std::vector<Vpn> vpns;

    // Recorded-order advance (trace replay, v2 traces).  A warm machine's
    // TLB hits come from cross-warp page sharing that lives at the
    // *recorded* relative warp offsets — warps drift thousands of
    // instructions apart as memory stalls land unevenly, and two warps
    // share a page only when their recorded fetch times were close.
    // Advancing streams round-robin aligns every warp at an equal index,
    // a phase relationship the recording never had, and the detailed
    // window that follows starts congested instead of warm.  So replay
    // the recorded global fetch order instead: scan fetchOrder, skip each
    // stream's first streamPos() occurrences (records already consumed by
    // earlier segments), and consume the rest in recorded order, leaving
    // every warp at a time-coherent position.
    // Recorded order only exists for a single recorded machine; tenants of
    // a co-run each replay (or generate) independently via the fallback.
    auto *trace_workload = gpu.numTenants() == 1
        ? dynamic_cast<TraceWorkload *>(&gpu.workload()) : nullptr;
    if (trace_workload != nullptr &&
        !trace_workload->trace().fetchOrder.empty()) {
        const TraceFile &trace = trace_workload->trace();
        std::size_t num = trace.streams.size();
        std::vector<std::uint64_t> occupancy(num, 0);
        std::vector<std::uint64_t> pos(num);
        std::vector<std::uint8_t> activeStream(num, 0);
        std::vector<Stream> byIndex(num);
        for (std::size_t s = 0; s < num; ++s) {
            pos[s] = trace_workload->streamPos(s);
            const TraceStream &stream = trace.streams[s];
            byIndex[s] = {stream.sm, stream.warp};
            activeStream[s] = stream.sm < SmId(gpu.numSms()) &&
                              stream.warp < active[stream.sm];
        }
        for (std::uint32_t s : trace.fetchOrder) {
            if (out.instrs >= instrs)
                break;
            if (!activeStream[s])
                continue;
            if (++occupancy[s] <= pos[s])
                continue;   // consumed by an earlier segment or ffwd
            touchOne(gpu, byIndex[s], geometry, vpns, out);
        }
        // Past the end of the recorded order (drain replay): fall through
        // to round-robin for the remainder.
    }

    while (out.instrs < instrs)
        touchOne(gpu, streams[out.instrs % streams.size()], geometry, vpns,
                 out);
    return out;
}

} // namespace sw
