#include "mem/memory_system.hh"

#include "check/audit.hh"
#include "ckpt/ckpt_io.hh"
#include "obs/stat_registry.hh"
#include "prof/hostprof.hh"
#include "sim/logging.hh"

namespace sw {

MemorySystem::MemorySystem(EventQueue &eq, const GpuConfig &cfg,
                           RequestPool &requests)
    : eventq(eq), pool(requests)
{
    pool.setSink(Done::L1dFill, this);
    dramModel = std::make_unique<Dram>(
        eq, Dram::Params{cfg.dramChannels, cfg.dramLatency,
                         cfg.dramCyclesPerSector, /*channelShift=*/5});

    Cache::Params l2_params;
    l2_params.name = "l2d";
    l2_params.sizeBytes = cfg.l2dBytes;
    l2_params.ways = cfg.l2dWays;
    l2_params.lineBytes = cfg.lineBytes;
    l2_params.sectorBytes = cfg.sectorBytes;
    l2_params.latency = cfg.l2dLatency;
    l2_params.mshrEntries = cfg.l2dMshrs;
    // PTE sectors attract very wide sharing (every concurrent walk of a
    // hot table level); GPU L2 merge lists are effectively per-sector.
    l2_params.maxMergesPerMshr = 4096;
    Cache::Below &below = *this;
    l2dCache = std::make_unique<Cache>(eq, l2_params, pool, below);

    Cache::Params l1_params;
    l1_params.sizeBytes = cfg.l1dBytes;
    l1_params.ways = cfg.l1dWays;
    l1_params.lineBytes = cfg.lineBytes;
    l1_params.sectorBytes = cfg.sectorBytes;
    l1_params.latency = cfg.l1dLatency;
    l1_params.mshrEntries = cfg.l1dMshrs;
    l1dCaches.reserve(cfg.numSms);
    for (SmId sm = 0; sm < cfg.numSms; ++sm) {
        l1_params.name = strprintf("l1d[%u]", sm);
        l1dCaches.push_back(
            std::make_unique<Cache>(eventq, l1_params, pool, below));
    }
}

MemorySystem::~MemorySystem()
{
    pool.clearSink(Done::L1dFill, this);
}

void
MemorySystem::access(RequestId id)
{
    SW_PROF_SCOPE(prof::Zone::CacheDram);
    const Request &req = pool[id];
    if (req.done == Done::PtRead) {
        // PTE path: L2-only caching.
        ++stats_.pteAccesses;
        l2dCache->access(id);
        return;
    }
    SW_ASSERT(req.unit < l1dCaches.size(),
              "data access from unknown SM %u", req.unit);
    ++stats_.dataAccesses;
    l1dCaches[req.unit]->access(id);
}

void
MemorySystem::fetch(Cache &from, const Request &missed)
{
    PhysAddr addr = missed.addr;
    if (&from == l2dCache.get()) {
        Cycle done_at = dramModel->access(addr, missed.write);
        // The fill wakes the MSHR's waiters, the missed request first.
        eventq.schedule(
            done_at, [this, addr]() { l2dCache->fill(addr); }, &missed);
        return;
    }
    // An L1D only sees its own SM's data requests: the missed one names
    // the L1D the fill returns to.
    l2dCache->access(pool.alloc({.addr = addr,
                                 .unit = missed.unit,
                                 .done = Done::L1dFill,
                                 .write = missed.write}));
}

void
MemorySystem::requestDone(RequestId id)
{
    const Request &req = pool[id];
    Cache &l1d = *l1dCaches[req.unit];
    PhysAddr addr = req.addr;
    pool.free(id);
    l1d.fill(addr);
}

void
MemorySystem::resetStats()
{
    stats_ = Stats{};
    for (auto &cache : l1dCaches)
        cache->resetStats();
    l2dCache->resetStats();
    dramModel->resetStats();
}

void
MemorySystem::registerAudits(Auditor &auditor)
{
    // Cache miss-tracking never exceeds the configured MSHR file, at any
    // level of the hierarchy.
    auditor.registerAudit(
        "mem.cache.mshr-capacity", AuditScope::Continuous,
        [this](AuditContext &ctx) {
            auto check = [&ctx](const Cache &cache) {
                if (cache.outstandingMshrs() > cache.params().mshrEntries) {
                    ctx.fail(strprintf(
                        "%s: %zu MSHRs outstanding, capacity %u",
                        cache.params().name.c_str(),
                        cache.outstandingMshrs(),
                        cache.params().mshrEntries));
                }
            };
            for (const auto &cache : l1dCaches)
                check(*cache);
            check(*l2dCache);
        });

    // Once the machine drains, every miss has been filled: no MSHR is
    // still allocated and nobody is parked waiting for one.
    auditor.registerAudit(
        "mem.cache.no-leaked-mshr", AuditScope::Quiescent,
        [this](AuditContext &ctx) {
            auto check = [&ctx](const Cache &cache) {
                if (cache.outstandingMshrs() != 0) {
                    ctx.fail(strprintf("%s: %zu MSHRs never filled",
                                       cache.params().name.c_str(),
                                       cache.outstandingMshrs()));
                }
                if (cache.waitingForMshrCount() != 0) {
                    ctx.fail(strprintf(
                        "%s: %zu requests still waiting for an MSHR",
                        cache.params().name.c_str(),
                        cache.waitingForMshrCount()));
                }
            };
            for (const auto &cache : l1dCaches)
                check(*cache);
            check(*l2dCache);
        });
}

void
MemorySystem::registerStats(StatGroup group)
{
    group.counter("pte_accesses", &stats_.pteAccesses);
    group.counter("data_accesses", &stats_.dataAccesses);
    for (std::size_t sm = 0; sm < l1dCaches.size(); ++sm) {
        l1dCaches[sm]->registerStats(
            group.group(strprintf("l1d%zu", sm)));
    }
    l2dCache->registerStats(group.group("l2d"));
    dramModel->registerStats(group.group("dram"));
}

void
MemorySystem::saveState(CkptWriter &w) const
{
    w.section("mem");
    w.u64(stats_.pteAccesses);
    w.u64(stats_.dataAccesses);
    for (const auto &cache : l1dCaches)
        cache->saveState(w);
    l2dCache->saveState(w);
    dramModel->saveState(w);
}

void
MemorySystem::restoreState(CkptReader &r)
{
    r.expectSection("mem");
    stats_.pteAccesses = r.u64();
    stats_.dataAccesses = r.u64();
    for (auto &cache : l1dCaches)
        cache->restoreState(r);
    l2dCache->restoreState(r);
    dramModel->restoreState(r);
}

Cache::Stats
MemorySystem::aggregateL1dStats() const
{
    Cache::Stats agg;
    for (const auto &cache : l1dCaches) {
        const Cache::Stats &s = cache->stats();
        agg.accesses += s.accesses;
        agg.hits += s.hits;
        agg.misses += s.misses;
        agg.sectorMisses += s.sectorMisses;
        agg.mshrMerges += s.mshrMerges;
        agg.mshrFailures += s.mshrFailures;
        agg.evictions += s.evictions;
    }
    return agg;
}

} // namespace sw
