/**
 * @file
 * Top-level simulated GPU: SMs + translation engine + memory hierarchy +
 * page table, bound to a workload.
 *
 * Construction wires everything except — for SoftWalker/Hybrid modes — the
 * walk backend, which lives in the core library (src/core) and is attached
 * via installBackend() (see makeSoftWalkerBackend()).  Hardware and Ideal
 * modes are self-contained and install their backend here.
 */

#ifndef SW_GPU_GPU_HH
#define SW_GPU_GPU_HH

#include <memory>
#include <vector>

#include "check/audit.hh"
#include "gpu/sm.hh"
#include "mem/memory_system.hh"
#include "obs/observability.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "vm/address_space.hh"
#include "vm/hashed_page_table.hh"
#include "vm/page_table.hh"
#include "vm/translation.hh"

namespace sw {

/**
 * The whole simulated machine.  It owns the request slab every in-flight
 * request lives in, is every SM's SmPort, and completes the SM-bound
 * requests (Done::SmAccess, Done::Translation) to their SM.
 */
class Gpu : private SmPort, private RequestSink
{
  public:
    /** Stopping conditions for a simulation run. */
    struct RunLimits
    {
        /** Warp memory instructions to issue across the whole GPU. */
        std::uint64_t warpInstrQuota = 10000;
        /**
         * Warp instructions issued before all statistics are zeroed.
         * Removes the cold-start transient (TLB/cache/window fill) from
         * the measured region; standard simulator warmup methodology.
         */
        std::uint64_t warmupInstrs = 0;
        /** Hard cycle cap (contention-bound configs may not finish). */
        Cycle maxCycles = 3000000;
        /** Cap on concurrently active warps (0 = all); Fig 4 uses this. */
        std::uint64_t maxActiveWarps = 0;
    };

    /** Single-tenant machine (cfg.numTenants must be 1). */
    Gpu(GpuConfig cfg, std::unique_ptr<Workload> workload);

    /**
     * Multi-tenant machine: one workload per tenant (the vector size must
     * equal cfg.numTenants).  Tenant t owns the contiguous SM slice
     * tenantSmRange(cfg, t), runs its workload there, and translates
     * through its own address space (ASID t).
     */
    Gpu(GpuConfig cfg, std::vector<std::unique_ptr<Workload>> workloads);
    ~Gpu();

    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    /** Attach the walk backend (SoftWalker/Hybrid modes). */
    void installBackend(std::unique_ptr<WalkBackend> backend);
    bool backendInstalled() const;

    /** Run until the quota completes, the queue drains, or the cap hits. */
    void run(const RunLimits &limits);

    /**
     * Run one segment of a (possibly checkpointed) simulation: issue up to
     * @p fetch_quota further warp instructions, of which the first
     * @p warmup_fetch_remaining still belong to the warmup region (stats
     * are zeroed once they have been fetched; pass 0 when warmup already
     * ended in an earlier segment).  run() is exactly one whole-run
     * segment; checkpoint save/restore splits a run into two.
     * limits.maxCycles stays an absolute cycle cap.
     */
    void runSegment(std::uint64_t fetch_quota,
                    std::uint64_t warmup_fetch_remaining,
                    const RunLimits &limits);

    /**
     * The warps each SM starts in a segment under @p limits, indexed by
     * SM: every warp, or limits.maxActiveWarps dealt round-robin across
     * the SMs.  Fast-forward advances exactly these warps' streams.
     */
    std::vector<std::uint32_t> warpsToStart(const RunLimits &limits) const;

    /**
     * Serialise the entire machine state into @p w.  Only legal at a
     * quiesced tick: the event queue drained and every warp retired
     * (i.e. immediately after a runSegment() that ran out of quota).
     */
    void saveState(CkptWriter &w) const;

    /** Restore machine state saved by saveState() into this (fresh) GPU. */
    void restoreState(CkptReader &r);

    /** Simulated cycles elapsed (including warmup). */
    Cycle cycles() const { return eventq.now(); }

    /** Cycles in the measured (post-warmup) region. */
    Cycle measuredCycles() const { return eventq.now() - measureStart; }

    /** Warp instructions issued across all SMs. */
    std::uint64_t instructionsIssued() const;

    /** Sum of per-SM stats. */
    Sm::Stats aggregateSmStats() const;

    /** Completed fraction of quota / elapsed cycles: the speedup metric. */
    double performance() const;

    /**
     * The Simulation Auditor holding every registered conservation audit.
     * Components register at construction/installBackend time; run()
     * schedules periodic sweeps (cfg.auditIntervalCycles) and performs the
     * end-of-sim check.
     */
    Auditor &auditor() { return auditor_; }
    const Auditor &auditor() const { return auditor_; }

    TranslationEngine &engine() { return *engine_; }
    const TranslationEngine &engine() const { return *engine_; }
    MemorySystem &memory() { return *mem; }
    const MemorySystem &memory() const { return *mem; }
    EventQueue &eventQueue() { return eventq; }
    /** The single-tenant (ASID 0) page table. */
    PageTableBase &pageTable() { return spaces_->tableFor(0); }
    AddressSpaceManager &spaces() { return *spaces_; }
    const AddressSpaceManager &spaces() const { return *spaces_; }
    Workload &workload() { return *workloads_.at(0); }
    const Workload &workload() const { return *workloads_.at(0); }
    /** Tenant @p asid's workload. */
    Workload &workloadOf(Asid asid) { return *workloads_.at(asid); }
    const Workload &workloadOf(Asid asid) const
    {
        return *workloads_.at(asid);
    }
    std::uint32_t numTenants() const
    {
        return std::uint32_t(workloads_.size());
    }
    Sm &sm(SmId id) { return *sms.at(id); }
    const Sm &sm(SmId id) const { return *sms.at(id); }
    std::uint32_t numSms() const { return std::uint32_t(sms.size()); }
    const GpuConfig &config() const { return cfg; }

    /**
     * The lifecycle stream every component emits into; its consumers are
     * the tracer, ledger and event log of the installed bundle.
     */
    const LifecycleStream &lifecycle() const { return lifecycle_; }

    /**
     * Attach the observability bundle: registers every component with the
     * stat registry, points the lifecycle stream at the tracer, ledger
     * and event log, and arms the time-series sampler's periodic sweep.
     * Panics unless the walk backend is already installed, since backend
     * stats and gauges register here.  A GPU run with no observability
     * (or a null bundle) is bit-identical to one that never called this.
     */
    void installObservability(const Observability &obs);

    /** Register every component's stats with @p registry (dotted names). */
    void registerStats(StatRegistry &registry);

    /** Register machine-level time-series gauges with @p sampler. */
    void registerSamplerGauges(TimeSeriesSampler &sampler);

    /** Zero every component's statistics (end of warmup). */
    void resetAllStats();

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    void scheduleWarmupCheck(std::uint64_t measured_quota);
    void registerGpuAudits();

    void translate(RequestId id) override;
    void access(RequestId id) override;
    void requestDone(RequestId id) override;

    GpuConfig cfg;
    EventQueue eventq;
    Auditor auditor_;
    RequestPool requests_;
    LifecycleStream lifecycle_;
    std::unique_ptr<FrameAllocator> allocator;
    std::unique_ptr<AddressSpaceManager> spaces_;
    std::unique_ptr<MemorySystem> mem;
    std::unique_ptr<TranslationEngine> engine_;
    /** One workload per tenant; index == ASID. */
    std::vector<std::unique_ptr<Workload>> workloads_;
    std::vector<std::unique_ptr<Sm>> sms;


    std::uint64_t quotaRemaining = 0;
    Cycle measureStart = 0;        ///< cycle the measured region began
    std::uint64_t warmupBaseline = 0; ///< instrs issued when warmup ended
};

} // namespace sw

#endif // SW_GPU_GPU_HH
