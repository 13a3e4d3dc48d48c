#include "gpu/gpu.hh"

#include "ckpt/ckpt_io.hh"
#include "prof/hostprof.hh"
#include "sim/logging.hh"
#include "vm/ptw.hh"

namespace sw {

Gpu::Gpu(GpuConfig config, std::unique_ptr<Workload> wl)
    : Gpu(std::move(config), [&wl]() {
          std::vector<std::unique_ptr<Workload>> list;
          list.push_back(std::move(wl));
          return list;
      }())
{
}

Gpu::Gpu(GpuConfig config, std::vector<std::unique_ptr<Workload>> wls)
    : cfg(config), workloads_(std::move(wls))
{
    cfg.validate();
    SW_ASSERT(!workloads_.empty(), "GPU needs a workload");
    SW_ASSERT(workloads_.size() == cfg.numTenants,
              "GPU built with %zu workloads for %u tenants",
              workloads_.size(), cfg.numTenants);
    for (const auto &workload : workloads_)
        SW_ASSERT(workload != nullptr, "GPU needs a workload per tenant");

    allocator = std::make_unique<FrameAllocator>(cfg.pageBytes);
    spaces_ = std::make_unique<AddressSpaceManager>(cfg, *allocator);

    mem = std::make_unique<MemorySystem>(eventq, cfg, requests_);
    engine_ = std::make_unique<TranslationEngine>(eventq, cfg, *mem,
                                                  *spaces_, lifecycle_);
    requests_.setSink(Done::SmAccess, this);
    requests_.setSink(Done::Translation, this);

    SmPort &port = *this;
    sms.reserve(cfg.numSms);
    for (SmId id = 0; id < cfg.numSms; ++id) {
        Sm::Params params;
        params.id = id;
        params.numWarps = cfg.maxWarpsPerSm;
        params.warpSize = cfg.warpSize;
        params.pageBytes = cfg.pageBytes;
        params.sectorBytes = cfg.sectorBytes;
        params.rngSeed = cfg.rngSeed;
        // Each SM translates in its slice's address space and fetches from
        // its tenant's workload.
        params.asid = tenantOfSm(cfg, id);
        sms.push_back(std::make_unique<Sm>(eventq, params,
                                           *workloads_[params.asid],
                                           requests_, port, lifecycle_));
    }

    // Hardware and Ideal backends are self-contained; SoftWalker/Hybrid
    // backends come from src/core via installBackend().
    if (cfg.mode == TranslationMode::HardwarePtw ||
        cfg.mode == TranslationMode::Ideal) {
        HardwarePtwPool::Params pool;
        if (cfg.mode == TranslationMode::Ideal) {
            pool.numWalkers = 1u << 15;
            pool.pwbEntries = 1u << 20;
            pool.pwbPorts = 64;
            pool.nhaCoalescing = false;
        } else {
            pool.numWalkers = cfg.numPtws;
            pool.pwbEntries = cfg.pwbEntries;
            pool.pwbPorts = cfg.pwbPorts;
            pool.nhaCoalescing = cfg.nhaCoalescing;
            pool.nhaSectorBytes = cfg.sectorBytes;
        }
        engine_->setBackend(std::make_unique<HardwarePtwPool>(
            eventq, pool, *spaces_, engine_->pwc(), engine_->walks(),
            *engine_, engine_->completionFn(), lifecycle_));
    }

    registerGpuAudits();
    engine_->registerAudits(auditor_);
    mem->registerAudits(auditor_);
    if (WalkBackend *backend = engine_->backend())
        backend->registerAudits(auditor_);
}

void
Gpu::registerGpuAudits()
{
    // Event time only ever moves forward between audit sweeps.
    auditor_.registerAudit(
        "sim.event-queue.monotonic-time", AuditScope::Continuous,
        [this, last = std::make_shared<Cycle>(0)](AuditContext &ctx) {
            Cycle now = eventq.now();
            if (now < *last) {
                ctx.fail(strprintf(
                    "event clock moved backwards: %llu after %llu",
                    static_cast<unsigned long long>(now),
                    static_cast<unsigned long long>(*last)));
            }
            *last = now;
        });

    // Per-component stats cross-foot against the machine totals.  Only
    // counters bumped atomically within one event are comparable: SMs
    // count a translation request in the same call chain that enters the
    // engine, and the L2 access split is recorded in a single function.
    auditor_.registerAudit(
        "gpu.stats.cross-foot", AuditScope::Continuous,
        [this](AuditContext &ctx) {
            std::uint64_t sm_requests = 0;
            for (const auto &sm : sms)
                sm_requests += sm->stats().translationsRequested;
            const TranslationEngine::Stats &es = engine_->stats();
            if (sm_requests != es.requests) {
                ctx.fail(strprintf(
                    "SMs requested %llu translations but the engine "
                    "counted %llu",
                    static_cast<unsigned long long>(sm_requests),
                    static_cast<unsigned long long>(es.requests)));
            }
            if (es.l2Accesses != es.l2Hits + es.l2Misses) {
                ctx.fail(strprintf(
                    "L2 TLB accesses (%llu) != hits (%llu) + misses (%llu)",
                    static_cast<unsigned long long>(es.l2Accesses),
                    static_cast<unsigned long long>(es.l2Hits),
                    static_cast<unsigned long long>(es.l2Misses)));
            }
        });

    // Once the machine drains, every request record has completed and
    // been freed: a leaked one would only grow the slab, silently.
    auditor_.registerAudit(
        "gpu.requests.no-leaked-record", AuditScope::Quiescent,
        [this](AuditContext &ctx) {
            if (requests_.live() != 0) {
                ctx.fail(strprintf("%zu request records never freed",
                                   requests_.live()));
            }
        });
}

Gpu::~Gpu() = default;

void
Gpu::translate(RequestId id)
{
    engine_->translate(id);
}

void
Gpu::access(RequestId id)
{
    mem->access(id);
}

void
Gpu::requestDone(RequestId id)
{
    const Request &req = requests_[id];
    Sm &sm = *sms[req.unit];
    if (req.done == Done::Translation)
        sm.translated(id);
    else
        sm.accessDone(id);
}

void
Gpu::installBackend(std::unique_ptr<WalkBackend> backend)
{
    // Replacing a backend would destroy it while its registered audits
    // still capture it; one backend per GPU lifetime.
    SW_ASSERT(!backendInstalled(),
              "a walk backend is already installed (its audits would "
              "dangle)");
    WalkBackend *raw = backend.get();
    engine_->setBackend(std::move(backend));
    if (raw)
        raw->registerAudits(auditor_);
}

bool
Gpu::backendInstalled() const
{
    return const_cast<TranslationEngine &>(*engine_).backend() != nullptr;
}

void
Gpu::run(const RunLimits &limits)
{
    measureStart = 0;
    runSegment(limits.warpInstrQuota + limits.warmupInstrs,
               limits.warmupInstrs, limits);
}

void
Gpu::runSegment(std::uint64_t fetch_quota,
                std::uint64_t warmup_fetch_remaining,
                const RunLimits &limits)
{
    SW_ASSERT(backendInstalled(),
              "run() before a walk backend was installed");
    SW_ASSERT(warmup_fetch_remaining <= fetch_quota,
              "warmup extends past this segment's quota");
    quotaRemaining = fetch_quota;

    std::vector<std::uint32_t> active = warpsToStart(limits);
    for (std::size_t i = 0; i < sms.size(); ++i) {
        if (active[i] > 0)
            sms[i]->start(&quotaRemaining, active[i]);
    }

    if (warmup_fetch_remaining > 0)
        scheduleWarmupCheck(fetch_quota - warmup_fetch_remaining);

    if (cfg.auditIntervalCycles > 0)
        auditor_.schedulePeriodic(eventq, cfg.auditIntervalCycles);

    eventq.run(limits.maxCycles);

    SW_PROF_SCOPE(prof::Zone::StatsAudit);
    for (auto &sm : sms)
        sm->finalizeStats();
    if (CycleLedger *ledger = lifecycle_.ledger())
        ledger->syncAll(eventq.now());

    // End-of-sim audit: quiescent-only invariants (no leaked MSHR / miss)
    // apply only when the run drained rather than hitting its cycle cap.
    auditor_.finalCheck(eventq.now(), eventq.empty());
}

std::vector<std::uint32_t>
Gpu::warpsToStart(const RunLimits &limits) const
{
    if (limits.maxActiveWarps == 0)
        return std::vector<std::uint32_t>(sms.size(), cfg.maxWarpsPerSm);
    std::vector<std::uint32_t> active(sms.size(), 0);
    for (std::uint64_t k = 0; k < limits.maxActiveWarps; ++k) {
        SmId sm = SmId(k % sms.size());
        if (active[sm] < cfg.maxWarpsPerSm)
            ++active[sm];
    }
    return active;
}

void
Gpu::scheduleWarmupCheck(std::uint64_t measured_quota)
{
    // Poll until the warmup portion of the quota has been fetched, then
    // zero every component's statistics.  No warp retires before the
    // whole quota is fetched, so the poll always ends.
    eventq.scheduleIn(200, [this, measured_quota]() {
        if (quotaRemaining <= measured_quota)
            resetAllStats();
        else
            scheduleWarmupCheck(measured_quota);
    });
}

void
Gpu::saveState(CkptWriter &w) const
{
    // Quiesce contract: only a drained machine serialises.  Pending events
    // are closures and cannot be written to disk, and the request and walk
    // records they move are not saved either; the segmented-run design
    // guarantees a barrier tick where none exists.
    SW_ASSERT(eventq.empty(), "checkpoint with events still pending");
    SW_ASSERT(requests_.live() == 0,
              "checkpoint with %zu request records in flight",
              requests_.live());
    SW_ASSERT(engine_->walks().live() == 0,
              "checkpoint with %zu walk records in flight",
              engine_->walks().live());
    SW_ASSERT(quotaRemaining == 0,
              "checkpoint before the segment's quota drained");
    w.section("gpu");
    w.u64(eventq.now());
    w.u64(eventq.seqCounter());
    w.u64(eventq.eventsExecuted());
    w.u64(measureStart);
    for (const auto &sm : sms)
        sm->saveState(w);
    engine_->saveState(w);   // TLBs, PWC, faults, walk backend
    allocator->saveState(w);
    spaces_->saveState(w);
    mem->saveState(w);
    for (const auto &workload : workloads_)
        workload->saveState(w);
}

void
Gpu::restoreState(CkptReader &r)
{
    r.expectSection("gpu");
    Cycle cycle = r.u64();
    std::uint64_t seq = r.u64();
    std::uint64_t executed = r.u64();
    eventq.restoreClock(cycle, seq, executed);
    measureStart = r.u64();
    for (auto &sm : sms)
        sm->restoreState(r);
    engine_->restoreState(r);
    allocator->restoreState(r);
    spaces_->restoreState(r);
    mem->restoreState(r);
    for (auto &workload : workloads_)
        workload->restoreState(r);
}

void
Gpu::installObservability(const Observability &obs)
{
    SW_ASSERT(backendInstalled(),
              "installObservability() before the walk backend: its stats, "
              "gauges and lifecycle events would go unobserved");
    CycleLedger *ledger = obs.ledger;
    if (ledger) {
        if (!ledger->attached()) {
            std::vector<Asid> sm_asids(sms.size());
            for (SmId id = 0; id < SmId(sms.size()); ++id)
                sm_asids[id] = tenantOfSm(cfg, id);
            ledger->attach(std::move(sm_asids), eventq.now());
        }
        // Top-down conservation: every SM cycle lands in exactly one
        // category.  auditConservation() is const — the audit only reads.
        auditor_.registerAudit(
            "obs.ledger.cycles-conserved", AuditScope::Continuous,
            [this, ledger](AuditContext &ctx) {
                std::string err = ledger->auditConservation(eventq.now());
                if (!err.empty())
                    ctx.fail(err);
            });
    }
    lifecycle_.observe(obs.tracer, ledger, obs.events);
    // After the stream: registerStats() exposes "trace.*" and "ledger.*"
    // only when the corresponding observer is installed.
    if (obs.registry)
        registerStats(*obs.registry);
    if (obs.sampler) {
        registerSamplerGauges(*obs.sampler);
        engine_->backend()->registerGauges(*obs.sampler);
        if (ledger) {
            // Sync before the sampler reads its gauges so the CSV row and
            // the NDJSON sample record describe the same closed accounts.
            using Totals = std::array<Cycle, kNumLedgerCategories>;
            EventLog *events = obs.events;
            obs.sampler->onSample(
                [ledger, events, last = std::make_shared<Totals>()](
                    Cycle now) {
                    ledger->syncAll(now);
                    if (!events)
                        return;
                    Totals totals = ledger->categoryTotals();
                    Totals deltas{};
                    for (std::size_t i = 0; i < kNumLedgerCategories; ++i)
                        deltas[i] = totals[i] - (*last)[i];
                    *last = totals;
                    events->sample(now, deltas);
                });
        }
        obs.sampler->install(eventq, obs.sampleInterval);
    }
}

void
Gpu::registerStats(StatRegistry &registry)
{
    StatGroup root = registry.root();

    StatGroup gpu_group = root.group("gpu");
    gpu_group.gauge("cycles", [this]() { return double(eventq.now()); });
    gpu_group.gauge("measured_cycles",
                    [this]() { return double(measuredCycles()); });
    gpu_group.gauge("events_executed",
                    [this]() { return double(eventq.eventsExecuted()); });
    gpu_group.gauge("performance", [this]() { return performance(); });

    for (SmId id = 0; id < SmId(sms.size()); ++id)
        sms[id]->registerStats(root.group(strprintf("sm%u", id)));

    engine_->registerStats(root);
    mem->registerStats(root.group("mem"));
    auditor_.registerStats(root.group("audit"));

    if (const TranslationTracer *tracer = lifecycle_.tracer()) {
        StatGroup trace = root.group("trace");
        trace.latency("queue_phase", &tracer->queuePhase());
        trace.latency("walk_phase", &tracer->walkPhase());
        trace.latency("total_phase", &tracer->totalPhase());
        trace.latency("pt_reads_per_walk", &tracer->ptReadsPerWalk());
    }

    if (CycleLedger *ledger = lifecycle_.ledger())
        ledger->registerStats(root.group("ledger"));
}

void
Gpu::registerSamplerGauges(TimeSeriesSampler &sampler)
{
    sampler.gauge("l2tlb_pending",
                  [this]() { return double(engine_->l2Tlb().pendingCount()); });
    sampler.gauge("outstanding_walks",
                  [this]() { return double(engine_->outstandingWalks()); });
    sampler.gauge("backend_inflight", [this]() {
        WalkBackend *backend = engine_->backend();
        return backend ? double(backend->inFlight()) : 0.0;
    });
    sampler.gauge("l2tlb_miss_rate", [this]() {
        const TranslationEngine::Stats &s = engine_->stats();
        return s.l2Accesses ? double(s.l2Misses) / double(s.l2Accesses)
                            : 0.0;
    });
    sampler.gauge("stalled_warps", [this]() {
        double stalled = 0;
        for (const auto &sm : sms)
            stalled += sm->stalledWarps();
        return stalled;
    });
}

void
Gpu::resetAllStats()
{
    SW_PROF_SCOPE(prof::Zone::StatsAudit);
    measureStart = eventq.now();
    for (auto &sm : sms)
        sm->resetStats();
    engine_->resetStats();
    mem->resetStats();
    if (TranslationTracer *tracer = lifecycle_.tracer())
        tracer->resetAttribution();
    if (CycleLedger *ledger = lifecycle_.ledger())
        ledger->reset(eventq.now());
    if (EventLog *events = lifecycle_.events())
        events->resetMark(eventq.now());
}

std::uint64_t
Gpu::instructionsIssued() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms)
        total += sm->stats().warpInstrs;
    return total;
}

Sm::Stats
Gpu::aggregateSmStats() const
{
    Sm::Stats agg;
    for (const auto &sm : sms) {
        const Sm::Stats &s = sm->stats();
        agg.warpInstrs += s.warpInstrs;
        agg.issueSlotCycles += s.issueSlotCycles;
        agg.pwIssueCycles += s.pwIssueCycles;
        agg.computeCycles += s.computeCycles;
        agg.memStallCycles += s.memStallCycles;
        agg.translationsRequested += s.translationsRequested;
        agg.dataAccesses += s.dataAccesses;
        agg.warpMemLatency.merge(s.warpMemLatency);
        agg.accessLatency.merge(s.accessLatency);
    }
    return agg;
}

double
Gpu::performance() const
{
    // SM stats are zeroed when the measured region starts, so
    // instructionsIssued() already counts only measured instructions.
    Cycle elapsed = measuredCycles();
    if (elapsed == 0)
        return 0.0;
    return double(instructionsIssued()) / double(elapsed);
}

} // namespace sw
