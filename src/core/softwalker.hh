/**
 * @file
 * SoftWalker backend: the paper's contribution, assembled.
 *
 * Installs a Request Distributor at the L2 TLB, a SoftWalker Controller +
 * SoftPWB + PW Warp on every SM, and (in Hybrid mode, §5.4) keeps the
 * hardware PTW pool as the preferred fast path, spilling to software
 * walkers only when no hardware walker is free.
 */

#ifndef SW_CORE_SOFTWALKER_HH
#define SW_CORE_SOFTWALKER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/controller.hh"
#include "core/distributor.hh"
#include "gpu/gpu.hh"
#include "sim/config.hh"
#include "vm/ptw.hh"
#include "vm/walk.hh"

namespace sw {

/** Software (or hybrid software+hardware) walk backend. */
class SoftWalkerBackend : public WalkBackend
{
  public:
    struct Stats
    {
        std::uint64_t submitted = 0;
        std::uint64_t toSoftware = 0;
        std::uint64_t toHardware = 0;      ///< hybrid fast path
        std::uint64_t queuedNoCapacity = 0;///< all PW Warps at capacity
        std::uint64_t peakQueued = 0;
    };

    /**
     * @param gpu fully constructed GPU (SMs and engine exist)
     * @param cfg configuration (mode selects pure SoftWalker vs Hybrid)
     */
    SoftWalkerBackend(Gpu &gpu, const GpuConfig &cfg);

    void submit(WalkRequest req) override;
    std::uint64_t inFlight() const override { return inFlightCount; }
    /** Route a page-table read back to its PW Warp (or hybrid hw pool). */
    void ptReadDone(std::uint32_t walker, std::uint32_t lane) override;
    std::string name() const override;
    void resetStats() override;

    /**
     * Distributor credit conservation + PW-Warp slot lifecycle audits;
     * in Hybrid mode also registers the hardware pool's audits.
     */
    void registerAudits(Auditor &auditor) override;

    /** Register backend, distributor, per-SM controller + warp counters. */
    void registerStats(StatGroup group) override;

    /** PW-Warp occupancy / SoftPWB / queue-depth time-series gauges. */
    void registerGauges(TimeSeriesSampler &sampler) override;

    /** Requests parked at the distributor awaiting PW-Warp capacity. */
    std::size_t queuedRequests() const;

    const Stats &stats() const { return stats_; }
    const RequestDistributor &distributor() const { return *distributor_; }
    const SoftWalkerController &controller(SmId sm) const
    {
        return *controllers.at(sm);
    }
    const HardwarePtwPool *hardwarePool() const { return hwPool.get(); }

    /** Aggregate PW Warp stats across all SMs. */
    PwWarp::Stats aggregatePwWarpStats() const;

    /**
     * Serialise distributor + per-SM controllers (+ hybrid hw pool) into a
     * checkpoint; must be called only at a quiesced tick.
     */
    void saveState(CkptWriter &w) const override;

    /** Restore state saved by saveState(). */
    void restoreState(CkptReader &r) override;

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    void dispatchSoftware(WalkRequest req);
    void onSoftwareComplete(SmId sm, const WalkResult &result);
    void drainQueue();
    /**
     * Distributor pick for @p asid's walk: the full SM range normally,
     * the tenant's own SM slice under MIG partitioning.
     */
    SmId selectTarget(Asid asid);
    /** Ship a dispatched request across the L2 TLB -> SM interconnect. */
    void sendToSm(SmId target, WalkRequest req);

    Gpu &gpu;
    GpuConfig cfg;
    bool hybrid;
    WalkCompleteFn engineComplete;

    std::unique_ptr<RequestDistributor> distributor_;
    std::vector<std::unique_ptr<SoftWalkerController>> controllers;
    std::unique_ptr<HardwarePtwPool> hwPool;

    /**
     * Requests waiting for PW-Warp capacity, one queue per tenant.  The
     * arrival sequence number lets the Demand arbiter reconstruct the
     * single global FIFO (head-of-line blocking across tenants is the
     * walk-queue interference the co-run harness measures); the
     * TenantRoundRobin arbiter instead rotates across non-empty queues.
     */
    struct QueuedWalk
    {
        WalkRequest req;
        std::uint64_t seq = 0;
    };
    std::vector<std::deque<QueuedWalk>> waiting;
    std::uint64_t nextQueueSeq = 0;
    /** Next tenant the round-robin arbiter offers capacity to. */
    std::uint32_t drainRrTenant = 0;
    std::uint64_t inFlightCount = 0;

    /** A dispatched request crossing the L2 TLB -> SM interconnect. */
    struct Hop
    {
        WalkRequest req;
        SmId target = 0;
    };
    /**
     * Requests crossing the interconnect, oldest first, in a ring sized
     * by the distributor's credits (numSms x softPwbEntries): every hop
     * takes the same latency, so hops arrive in the order they were sent
     * and the one arriving is always the oldest.
     */
    std::vector<Hop> transit;
    std::size_t transitHead = 0;
    /** Requests in the ring (from transitHead on). */
    std::uint64_t commInTransit = 0;

    Stats stats_;
};

/**
 * Build and install the right backend for @p cfg.mode on @p gpu.
 * HardwarePtw/Ideal GPUs already self-installed; this is the entry point
 * harnesses use for every mode.
 */
void installWalkBackend(Gpu &gpu);

/** Access the SoftWalker backend of a GPU (nullptr in hardware modes). */
SoftWalkerBackend *softWalkerOf(Gpu &gpu);

} // namespace sw

#endif // SW_CORE_SOFTWALKER_HH
