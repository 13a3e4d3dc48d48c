/**
 * @file
 * Functional fast-forward: stream workload instructions through the
 * page table and TLB hierarchy with no event-queue timing.
 *
 * Fast-forward warms exactly the state that survives a warmup region —
 * page-table mappings, TLB and PWC contents, and the workload's cursor /
 * RNG position — at functional speed (no events, no latencies, no
 * contention).  It replaces cycle-accurate warmup for long-warmup runs
 * and skips the non-selected windows of a phase-sampled run; the harness
 * zeroes all statistics afterwards so the measured region starts clean.
 *
 * The instruction interleaving is round-robin across the same active
 * (sm, warp) set a detailed segment would start, pulling each stream
 * through the owning SM's checkpointed RNG — so the workload cursors land
 * where a detailed run's would, and a subsequent detailed segment (or
 * checkpoint) continues the same streams.  Timing-dependent interleaving
 * differences are inherent to functional warmup and are bounded by the
 * measurement methodology (see docs/CHECKPOINTS.md §Fast-forward).
 */

#ifndef SW_CKPT_FFWD_HH
#define SW_CKPT_FFWD_HH

#include <cstdint>

#include "gpu/gpu.hh"

namespace sw {

/** What the functional warmup touched (reporting only). */
struct FfwdStats
{
    std::uint64_t instrs = 0;        ///< warp instructions streamed
    std::uint64_t pagesTouched = 0;  ///< coalesced page translations
    std::uint64_t l1TlbHits = 0;
    std::uint64_t l2TlbHits = 0;
    std::uint64_t walks = 0;         ///< functional page-table walks
};

/**
 * Stream @p instrs warp instructions through @p gpu functionally.  Only
 * legal before a detailed segment starts or at a quiesced barrier (the
 * event queue must be empty).  Only the streams of the warps
 * Gpu::warpsToStart(@p limits) names advance: the detailed segments run
 * the same warps.
 */
FfwdStats fastForward(Gpu &gpu, std::uint64_t instrs,
                      const Gpu::RunLimits &limits);

} // namespace sw

#endif // SW_CKPT_FFWD_HH
