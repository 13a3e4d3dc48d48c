#include "core/softwalker.hh"

#include <algorithm>

#include "check/audit.hh"
#include "obs/sampler.hh"
#include "sim/logging.hh"

namespace sw {

SoftWalkerBackend::SoftWalkerBackend(Gpu &gpu_ref, const GpuConfig &config)
    : gpu(gpu_ref), cfg(config),
      hybrid(config.mode == TranslationMode::Hybrid),
      engineComplete(gpu_ref.engine().completionFn())
{
    SW_ASSERT(cfg.mode == TranslationMode::SoftWalker ||
              cfg.mode == TranslationMode::Hybrid,
              "SoftWalkerBackend built for a hardware mode");

    StallProbeFn probe;
    if (cfg.distributorPolicy == DistributorPolicy::StallAware) {
        probe = [this](SmId sm) { return gpu.sm(sm).stalledWarps(); };
    }
    bool pinned = cfg.migPartitioning && cfg.numTenants > 1;
    distributor_ = std::make_unique<RequestDistributor>(
        cfg.numSms, cfg.softPwbEntries, cfg.distributorPolicy,
        cfg.rngSeed ^ 0x5077a1cebeefULL, std::move(probe),
        pinned ? cfg.numTenants : 1);
    waiting.resize(cfg.numTenants);

    EventQueue &eq = gpu.eventQueue();
    TranslationEngine &engine = gpu.engine();
    Cycle comm = cfg.effectiveCommLatency();
    PwWarpCodeTiming timing;

    controllers.reserve(cfg.numSms);
    for (SmId sm = 0; sm < cfg.numSms; ++sm) {
        PwWarp::Hooks hooks;
        hooks.reserveIssue = [this, sm](std::uint32_t slots, Asid asid) {
            return gpu.sm(sm).reservePwIssue(slots, asid);
        };
        hooks.ptReader = &engine;
        hooks.walker = sm;
        hooks.pwcFill = [&engine](int level, TranslationKey key,
                                  PhysAddr base) {
            engine.pwc().fill(engine.pageTableFor(key.asid), level, key,
                              base);
        };
        hooks.complete = [this, sm](const WalkResult &result) {
            onSoftwareComplete(sm, result);
        };
        controllers.push_back(std::make_unique<SoftWalkerController>(
            eq, sm, cfg.softPwbEntries, engine.spaces(), std::move(hooks),
            timing, cfg.pwWarpThreads, comm, gpu.lifecycle()));
    }

    if (hybrid) {
        HardwarePtwPool::Params pool;
        pool.numWalkers = cfg.numPtws;
        pool.pwbEntries = cfg.pwbEntries;
        pool.pwbPorts = cfg.pwbPorts;
        pool.nhaCoalescing = cfg.nhaCoalescing;
        pool.nhaSectorBytes = cfg.sectorBytes;
        hwPool = std::make_unique<HardwarePtwPool>(
            eq, pool, engine.spaces(), engine.pwc(), engine,
            [this](const WalkResult &result) {
                SW_ASSERT(inFlightCount > 0, "hybrid in-flight underflow");
                --inFlightCount;
                engineComplete(result);
            },
            gpu.lifecycle());
    }
}

std::string
SoftWalkerBackend::name() const
{
    return hybrid ? "softwalker-hybrid" : "softwalker";
}

void
SoftWalkerBackend::resetStats()
{
    stats_ = Stats{};
    distributor_->resetStats();
    for (auto &controller : controllers)
        controller->resetStats();
    if (hwPool)
        hwPool->resetStats();
}

void
SoftWalkerBackend::submit(WalkRequest req)
{
    ++stats_.submitted;
    ++inFlightCount;

    // Hybrid fast path (§5.4): prefer a free hardware walker; spill to
    // software only once the hardware subsystem is saturated.
    if (hybrid) {
        bool hw_free =
            hwPool->busyWalkers() + hwPool->pwbOccupancy() < cfg.numPtws;
        if (hw_free) {
            ++stats_.toHardware;
            hwPool->submit(std::move(req));
            return;
        }
    }
    dispatchSoftware(std::move(req));
}

void
SoftWalkerBackend::ptReadDone(std::uint32_t walker, std::uint32_t lane)
{
    if (walker == kHardwareWalker) {
        SW_ASSERT(hwPool != nullptr, "hardware read without a hybrid pool");
        hwPool->ptReadDone(walker, lane);
        return;
    }
    controllers.at(walker)->ptReadDone(lane);
}

SmId
SoftWalkerBackend::selectTarget(Asid asid)
{
    if (cfg.migPartitioning && cfg.numTenants > 1) {
        // MIG partitioning pins software walks to the tenant's own SM
        // slice: one tenant's PW Warps never execute another's walks.
        auto [begin, count] = tenantSmRange(cfg, asid);
        return distributor_->select(begin, count, asid);
    }
    return distributor_->select();
}

void
SoftWalkerBackend::sendToSm(SmId target, WalkRequest req)
{
    ++stats_.toSoftware;
    SW_LIFECYCLE(gpu.lifecycle(), LifecyclePhase::PwHosted,
                 gpu.eventQueue().now(), req.id, req.key, target, true);
    // L2 TLB -> SM interconnect hop (modeled as the L2 TLB latency, §6.1).
    // The ring is sized on the first hop, so building a machine that
    // never walks in software costs nothing.
    if (transit.empty())
        transit.resize(std::size_t(cfg.numSms) * cfg.softPwbEntries);
    SW_ASSERT(commInTransit < transit.size(),
              "interconnect ring overflow: %llu requests in transit",
              static_cast<unsigned long long>(commInTransit));
    std::size_t tail = transitHead + commInTransit;
    if (tail >= transit.size())
        tail -= transit.size();
    transit[tail] = Hop{std::move(req), target};
    ++commInTransit;
    auto fire = [this]() {
        SW_ASSERT(commInTransit > 0, "interconnect transit underflow");
        Hop &hop = transit[transitHead];
        if (++transitHead == transit.size())
            transitHead = 0;
        --commInTransit;
        controllers[hop.target]->accept(std::move(hop.req));
    };
    static_assert(EventFn::fitsInline<decltype(fire)>(),
                  "interconnect hop event must not spill to the slab pool");
    gpu.eventQueue().scheduleIn(cfg.effectiveCommLatency(), std::move(fire));
}

std::size_t
SoftWalkerBackend::queuedRequests() const
{
    std::size_t total = 0;
    for (const auto &queue : waiting)
        total += queue.size();
    return total;
}

void
SoftWalkerBackend::dispatchSoftware(WalkRequest req)
{
    SmId target = selectTarget(req.key.asid);
    if (target == kInvalidSm) {
        // Every eligible PW Warp is at SoftPWB capacity: the request
        // queues at the distributor (this wait is part of the measured
        // queueing delay).
        waiting[req.key.asid].push_back({std::move(req), nextQueueSeq++});
        ++stats_.queuedNoCapacity;
        stats_.peakQueued =
            std::max<std::uint64_t>(stats_.peakQueued, queuedRequests());
        return;
    }
    sendToSm(target, std::move(req));
}

void
SoftWalkerBackend::onSoftwareComplete(SmId sm, const WalkResult &result)
{
    distributor_->release(sm);
    SW_ASSERT(inFlightCount > 0, "software in-flight underflow");
    --inFlightCount;
    engineComplete(result);
    drainQueue();
}

void
SoftWalkerBackend::drainQueue()
{
    if (cfg.pwArbitration == PwArbitration::Demand) {
        // Demand: one global FIFO reconstructed from the arrival sequence
        // numbers.  The oldest queued walk gets the freed capacity; if its
        // tenant's slice is still full, everything behind it waits
        // (cross-tenant head-of-line blocking — the interference signal).
        while (true) {
            std::deque<QueuedWalk> *head = nullptr;
            for (auto &queue : waiting) {
                if (queue.empty())
                    continue;
                if (!head || queue.front().seq < head->front().seq)
                    head = &queue;
            }
            if (!head)
                return;
            SmId target = selectTarget(head->front().req.key.asid);
            if (target == kInvalidSm)
                return;
            WalkRequest req = std::move(head->front().req);
            head->pop_front();
            sendToSm(target, std::move(req));
        }
    }

    // TenantRoundRobin: rotate freed capacity across tenants with queued
    // walks, so a walk-heavy tenant cannot monopolize the PW Warps.
    std::uint32_t tenants = std::uint32_t(waiting.size());
    std::uint32_t barren = 0;
    while (barren < tenants) {
        std::uint32_t tenant = drainRrTenant;
        drainRrTenant = (drainRrTenant + 1) % tenants;
        if (waiting[tenant].empty()) {
            ++barren;
            continue;
        }
        SmId target = selectTarget(waiting[tenant].front().req.key.asid);
        if (target == kInvalidSm) {
            ++barren;
            continue;
        }
        WalkRequest req = std::move(waiting[tenant].front().req);
        waiting[tenant].pop_front();
        sendToSm(target, std::move(req));
        barren = 0;
    }
}

void
SoftWalkerBackend::registerStats(StatGroup group)
{
    group.counter("submitted", &stats_.submitted);
    group.counter("to_software", &stats_.toSoftware);
    group.counter("to_hardware", &stats_.toHardware);
    group.counter("queued_no_capacity", &stats_.queuedNoCapacity);
    group.counter("peak_queued", &stats_.peakQueued);
    group.gauge("inflight", [this]() { return double(inFlightCount); });
    group.gauge("queued", [this]() { return double(queuedRequests()); });
    distributor_->registerStats(group.group("distributor"));
    for (SmId sm = 0; sm < SmId(controllers.size()); ++sm)
        controllers[sm]->registerStats(group.group(strprintf("sm%u", sm)));
    if (hwPool)
        hwPool->registerStats(group.group("hw_pool"));
}

void
SoftWalkerBackend::registerGauges(TimeSeriesSampler &sampler)
{
    sampler.gauge("pw_warps_busy", [this]() {
        double busy = 0;
        for (const auto &controller : controllers)
            if (controller->pwWarp().busy())
                ++busy;
        return busy;
    });
    sampler.gauge("softpwb_occupied", [this]() {
        double occupied = 0;
        for (const auto &controller : controllers)
            occupied += controller->buffer().occupiedCount();
        return occupied;
    });
    sampler.gauge("distributor_queue_depth",
                  [this]() { return double(queuedRequests()); });
    if (hwPool)
        hwPool->registerGauges(sampler);
}

void
SoftWalkerBackend::registerAudits(Auditor &auditor)
{
    // Distributor credits charged == requests alive on the software path:
    // crossing the interconnect, sitting in a SoftPWB slot, or riding a
    // finished batch's FL2T back to the L2 TLB.  A credit leak starves the
    // distributor; an early release overflows a SoftPWB.
    auditor.registerAudit(
        "core.distributor.credit-conservation", AuditScope::Continuous,
        [this](AuditContext &ctx) {
            std::uint64_t on_sms = 0;
            for (const auto &controller : controllers) {
                on_sms += controller->buffer().occupiedCount();
                on_sms += controller->pwWarp().fillsInTransit();
            }
            std::uint64_t credits = distributor_->totalCredits();
            if (credits != commInTransit + on_sms) {
                ctx.fail(strprintf(
                    "distributor credits %llu != interconnect transit %llu "
                    "+ on-SM requests %llu",
                    static_cast<unsigned long long>(credits),
                    static_cast<unsigned long long>(commInTransit),
                    static_cast<unsigned long long>(on_sms)));
            }
            for (SmId sm = 0; sm < SmId(controllers.size()); ++sm) {
                if (distributor_->counter(sm) >
                    distributor_->perCoreCapacity()) {
                    ctx.fail(strprintf(
                        "SM %u credit counter %u exceeds capacity %u",
                        sm, distributor_->counter(sm),
                        distributor_->perCoreCapacity()));
                }
            }
        });

    // PW-Warp slot lifecycle: Processing slots exist only while the warp
    // is running a batch, and never more than it has lanes.
    auditor.registerAudit(
        "core.pwwarp.slot-lifecycle", AuditScope::Continuous,
        [this](AuditContext &ctx) {
            for (SmId sm = 0; sm < SmId(controllers.size()); ++sm) {
                const SoftWalkerController &controller = *controllers[sm];
                std::uint32_t processing =
                    controller.buffer().processingCount();
                if (processing > cfg.pwWarpThreads) {
                    ctx.fail(strprintf(
                        "SM %u: %u slots processing but the PW Warp has "
                        "%u lanes", sm, processing, cfg.pwWarpThreads));
                }
                if (!controller.pwWarp().busy() && processing != 0) {
                    ctx.fail(strprintf(
                        "SM %u: %u slots stuck in Processing while the "
                        "PW Warp is idle", sm, processing));
                }
            }
        });

    if (hwPool)
        hwPool->registerAudits(auditor);
}

PwWarp::Stats
SoftWalkerBackend::aggregatePwWarpStats() const
{
    PwWarp::Stats agg;
    for (const auto &controller : controllers) {
        const PwWarp::Stats &s = controller->pwWarp().stats();
        agg.batches += s.batches;
        agg.walksCompleted += s.walksCompleted;
        agg.instructionsIssued += s.instructionsIssued;
        agg.ldptIssued += s.ldptIssued;
        agg.fl2tIssued += s.fl2tIssued;
        agg.fpwcIssued += s.fpwcIssued;
        agg.ffbIssued += s.ffbIssued;
        agg.batchSize.merge(s.batchSize);
        agg.batchLatency.merge(s.batchLatency);
    }
    return agg;
}

void
SoftWalkerBackend::saveState(CkptWriter &w) const
{
    SW_ASSERT(queuedRequests() == 0 && inFlightCount == 0 &&
              commInTransit == 0,
              "SoftWalker backend checkpointed with walks in flight");
    w.section("softwalker");
    w.u64(stats_.submitted);
    w.u64(stats_.toSoftware);
    w.u64(stats_.toHardware);
    w.u64(stats_.queuedNoCapacity);
    w.u64(stats_.peakQueued);
    // The arrival counter and arbitration cursor shape post-resume
    // dispatch order even though the queues themselves are drained.
    w.u64(nextQueueSeq);
    w.u32(drainRrTenant);
    distributor_->saveState(w);
    for (const auto &controller : controllers)
        controller->saveState(w);
    w.u8(hwPool ? 1 : 0);
    if (hwPool)
        hwPool->saveState(w);
}

void
SoftWalkerBackend::restoreState(CkptReader &r)
{
    r.expectSection("softwalker");
    stats_.submitted = r.u64();
    stats_.toSoftware = r.u64();
    stats_.toHardware = r.u64();
    stats_.queuedNoCapacity = r.u64();
    stats_.peakQueued = r.u64();
    nextQueueSeq = r.u64();
    drainRrTenant = r.u32();
    if (drainRrTenant >= waiting.size())
        fatal("checkpoint arbitration cursor %u out of range", drainRrTenant);
    distributor_->restoreState(r);
    for (auto &controller : controllers)
        controller->restoreState(r);
    bool has_pool = r.u8() != 0;
    if (has_pool != bool(hwPool)) {
        fatal("checkpoint %s a hybrid hardware pool, this config %s",
              has_pool ? "includes" : "lacks",
              hwPool ? "expects one" : "does not");
    }
    if (hwPool)
        hwPool->restoreState(r);
}

void
installWalkBackend(Gpu &gpu)
{
    const GpuConfig &cfg = gpu.config();
    if (cfg.mode == TranslationMode::HardwarePtw ||
        cfg.mode == TranslationMode::Ideal) {
        // The GPU self-installed these at construction.
        SW_ASSERT(gpu.backendInstalled(), "hardware backend missing");
        return;
    }
    gpu.installBackend(std::make_unique<SoftWalkerBackend>(gpu, cfg));
}

SoftWalkerBackend *
softWalkerOf(Gpu &gpu)
{
    return dynamic_cast<SoftWalkerBackend *>(gpu.engine().backend());
}

} // namespace sw
