/**
 * @file
 * Data-memory hierarchy façade: per-SM L1D caches, a shared L2D, and DRAM.
 *
 * Page-table reads (Done::PtRead requests) skip the L1D and are cached only
 * in the L2D, matching the paper's assumption (footnote 2: "we assume PTEs
 * are cached only in the L2 cache").
 */

#ifndef SW_MEM_MEMORY_SYSTEM_HH
#define SW_MEM_MEMORY_SYSTEM_HH

#include <memory>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/request.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"

namespace sw {

class Auditor;
class StatGroup;
class CkptWriter;
class CkptReader;

/**
 * Wires L1D -> L2D -> DRAM and routes accesses.  An L1D miss travels to the
 * L2D as a Done::L1dFill request, which this class also completes; data and
 * page-table requests complete to the sinks their owners registered.
 */
class MemorySystem : private Cache::Below, private RequestSink
{
  public:
    /**
     * PTE-vs-data routing split: how much of the hierarchy's traffic is
     * page-table walking (the translation tax the cycle ledger breaks
     * down) versus warp data.  Counted at the routing decision, so the
     * two always sum to every access() issued.
     */
    struct Stats
    {
        std::uint64_t pteAccesses = 0;   ///< page-table reads (L2-only)
        std::uint64_t dataAccesses = 0;  ///< warp data, via the L1D
    };

    MemorySystem(EventQueue &eq, const GpuConfig &cfg, RequestPool &pool);
    ~MemorySystem();

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /**
     * Issue request @p id through the hierarchy: a Done::PtRead goes to
     * the L2D, a Done::SmAccess to its SM's L1D.
     */
    void access(RequestId id);

    /** The request slab every level's requests live in. */
    RequestPool &requests() { return pool; }

    const Cache &l1d(SmId sm) const { return *l1dCaches.at(sm); }
    const Cache &l2d() const { return *l2dCache; }
    const Dram &dram() const { return *dramModel; }

    /** Aggregate L1D stats across all SMs. */
    Cache::Stats aggregateL1dStats() const;

    const Stats &stats() const { return stats_; }

    /** Zero every cache's and DRAM's statistics (post-warmup reset). */
    void resetStats();

    /** Cache MSHR capacity + leak audits for every level. */
    void registerAudits(Auditor &auditor);

    /**
     * Register the hierarchy with the unified stat registry:
     * "l1d<N>.*", "l2d.*", "dram.*" under @p group's prefix.
     */
    void registerStats(StatGroup group);

    /** Serialise every cache level + DRAM into a checkpoint (quiesced). */
    void saveState(CkptWriter &w) const;

    /** Restore state saved by saveState(). */
    void restoreState(CkptReader &r);

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    void fetch(Cache &from, const Request &missed) override;
    /** An L1D fill arrived from the L2D. */
    void requestDone(RequestId id) override;

    EventQueue &eventq;
    RequestPool &pool;
    std::vector<std::unique_ptr<Cache>> l1dCaches;
    std::unique_ptr<Cache> l2dCache;
    std::unique_ptr<Dram> dramModel;
    Stats stats_;
};

} // namespace sw

#endif // SW_MEM_MEMORY_SYSTEM_HH
