/**
 * @file
 * Exact allocation gate for the request path and both walk paths.
 *
 * This executable replaces the global operator new with a counting one
 * (it is linked into this test only) and drives two batches of the same
 * shape through the machine; the first sizes the slabs, tables and the
 * event queue's wheel and slab chunks, and the second must not allocate
 * at all.  Caches and TLBs are flushed between the batches, so the second
 * repeats the first miss for miss.
 *
 *  - Request path: the MemorySystem and the TranslationEngine alone, with
 *    L1D misses to the L2D and DRAM, L1D merges, L2D MSHR-full parking,
 *    PTE reads, L1 TLB MSHR merges and parking, and L2 TLB parking.
 *  - Software walks: a SoftWalker GPU whose walks cross the distributor's
 *    interconnect hop into the SoftPWBs, run as PW-Warp batches issuing
 *    LDPTs through the engine, and return to the L2 TLB as FL2T fills.
 *  - Hardware walks: a 4-PTW GPU whose walks cross the PWB enqueue port,
 *    fill the PWB and spill past it, with and without NHA coalescing.
 *  - Observers: the translation tracer and the cycle ledger fed the same
 *    batch of lifecycle events twice, and the tracer alone, which must
 *    not allocate even in the first batch.  The event log stays outside
 *    the gate: its record array grows with the run by design.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "check/audit_tester.hh"
#include "core/softwalker.hh"
#include "mem/memory_system.hh"
#include "obs/cycle_ledger.hh"
#include "obs/lifecycle.hh"
#include "obs/trace.hh"
#include "test_util.hh"
#include "vm/ptw.hh"
#include "vm/translation.hh"
#include "workload/generators.hh"

namespace {

std::uint64_t g_allocs = 0;

void *
countedAlloc(std::size_t bytes)
{
    ++g_allocs;
    if (void *ptr = std::malloc(bytes ? bytes : 1))
        return ptr;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t bytes) { return countedAlloc(bytes); }
void *operator new[](std::size_t bytes) { return countedAlloc(bytes); }
void operator delete(void *ptr) noexcept { std::free(ptr); }
void operator delete[](void *ptr) noexcept { std::free(ptr); }
void operator delete(void *ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void *ptr, std::size_t) noexcept { std::free(ptr); }

using namespace sw;

namespace {

/**
 * Counts and frees finished data sectors and translations, taking both
 * tags over from their owner (if any) until it is destroyed.
 */
struct CountingSink : RequestSink
{
    explicit CountingSink(RequestPool &requests)
        : pool(requests),
          displaced{pool.replaceSink(Done::SmAccess, this),
                    pool.replaceSink(Done::Translation, this)}
    {
    }

    ~CountingSink()
    {
        pool.replaceSink(Done::SmAccess, displaced[0]);
        pool.replaceSink(Done::Translation, displaced[1]);
    }

    CountingSink(const CountingSink &) = delete;
    CountingSink &operator=(const CountingSink &) = delete;

    void
    requestDone(RequestId id) override
    {
        ++done;
        pool.free(id);
    }

    RequestPool &pool;
    std::array<RequestSink *, 2> displaced;
    std::uint64_t done = 0;
};

/**
 * A walk backend with a fixed walker array: every level of every walk is
 * one PTE read through the engine, so this gate covers the request path
 * alone (HardwareWalkAllocs below covers the hardware pool).
 */
class ReadingBackend : public WalkBackend
{
  public:
    ReadingBackend(TranslationEngine &engine_ref,
                   const AddressSpaceManager &address_spaces)
        : engine(engine_ref), spaces(address_spaces),
          complete(engine_ref.completionFn())
    {
    }

    void
    submit(WalkId walk) override
    {
        std::uint32_t slot = 0;
        while (walkers[slot] != kNoWalk)
            ++slot;
        ASSERT_LT(slot, walkers.size());
        walkers[slot] = walk;
        engine.walks()[walk].pickedUp = engine.eventQueue().now();
        ++inFlightCount;
        read(slot);
    }

    void
    ptReadDone(std::uint32_t, std::uint32_t slot) override
    {
        WalkId walk = walkers[slot];
        Walk &record = engine.walks()[walk];
        spaces.tableFor(record.key.asid)
            .advance(record.cursor, record.key.vpn);
        if (!record.cursor.done) {
            read(slot);
            return;
        }
        walkers[slot] = kNoWalk;
        --inFlightCount;
        complete(walk);
    }

    std::uint64_t inFlight() const override { return inFlightCount; }
    std::string name() const override { return "reading"; }
    void resetStats() override {}

  private:
    void
    read(std::uint32_t slot)
    {
        const Walk &walk = engine.walks()[walkers[slot]];
        engine.ptRead(
            spaces.tableFor(walk.key.asid).pteAddr(walk.cursor, walk.key.vpn),
            kHardwareWalker, slot);
    }

    TranslationEngine &engine;
    const AddressSpaceManager &spaces;
    WalkCompleteFn complete;
    /** The walk each walker slot is reading, or kNoWalk. */
    std::array<WalkId, 256> walkers = [] {
        std::array<WalkId, 256> idle;
        idle.fill(kNoWalk);
        return idle;
    }();
    std::uint64_t inFlightCount = 0;
};

class RequestPathAllocs : public ::testing::Test
{
  protected:
    static GpuConfig
    config()
    {
        GpuConfig cfg = test::smallConfig();
        cfg.l1dMshrs = 4;        // L1D MSHR-full parking
        cfg.l2dMshrs = 8;        // L2D MSHR-full parking
        cfg.l1TlbMshrs = 4;      // L1 TLB parking
        cfg.l1TlbMergesPerMshr = 2;
        cfg.l2TlbMshrs = 4;      // L2 TLB parking
        return cfg;
    }

    RequestPathAllocs()
        : cfg(config()), alloc(cfg.pageBytes), spaces(cfg, alloc),
          mem(eq, cfg, pool), engine(eq, cfg, mem, spaces, lifecycle),
          sink(pool)
    {
        engine.setBackend(std::make_unique<ReadingBackend>(engine, spaces));
    }

    static constexpr Vpn kPages = 24;

    static Vpn vpnOf(Vpn page) { return 0x10000 + page * 8; }

    /** Forget every cached sector and translation. */
    void
    flushAll()
    {
        for (SmId sm = 0; sm < cfg.numSms; ++sm)
            AuditTester::l1d(mem, sm).flush();
        AuditTester::l2d(mem).flush();
        engine.flushAsid(0);
    }

    /** One batch; @return the allocations it made. */
    std::uint64_t
    runBatch()
    {
        std::uint64_t before = g_allocs;
        PhysAddr base = PhysAddr(1) << 32;
        for (std::uint32_t i = 0; i < 48; ++i) {
            // Two SMs, a few repeated sectors (L1D merges), more distinct
            // sectors than either MSHR file holds (parking at both levels).
            SmId sm = i % 2;
            PhysAddr addr = base + PhysAddr(i % 40) * 4096;
            mem.access(pool.alloc({.addr = addr, .unit = sm}));
        }
        for (Vpn vpn = 0; vpn < kPages; ++vpn) {
            // SM 0 asks twice per page (L1 TLB merge, then merge-full
            // parking on the third ask of the first pages); SM 1 asks for
            // the same pages (L2 TLB merges) and every page needs a walk.
            for (SmId sm : {SmId(0), SmId(0), SmId(1)}) {
                engine.translate(pool.alloc({.addr = vpnOf(vpn),
                                             .unit = sm,
                                             .done = Done::Translation}));
            }
            if (vpn < 4) {
                engine.translate(pool.alloc({.addr = vpnOf(vpn),
                                             .unit = 0,
                                             .done = Done::Translation}));
            }
        }
        eq.run();
        return g_allocs - before;
    }

    GpuConfig cfg;
    EventQueue eq;
    FrameAllocator alloc;
    AddressSpaceManager spaces;
    RequestPool pool;
    MemorySystem mem;
    LifecycleStream lifecycle;
    TranslationEngine engine;
    CountingSink sink;
};

TEST_F(RequestPathAllocs, SecondBatchAllocatesNothing)
{
    std::uint64_t first = runBatch();
    flushAll();
    std::uint64_t second = runBatch();
    EXPECT_GT(first, 0u) << "the first batch sizes the slab and tables";
    EXPECT_EQ(second, 0u);

    // Both batches finished everything they issued.
    EXPECT_EQ(sink.done, 2u * (48 + 3 * kPages + 4));
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_EQ(engine.outstandingWalks(), 0u);
    EXPECT_EQ(engine.walks().live(), 0u);

    // And they took every path the gate claims to cover.
    const TranslationEngine::Stats &ts = engine.stats();
    EXPECT_GT(ts.l1MshrMerges, 0u);
    EXPECT_GT(ts.l1MshrFailures, 0u);
    EXPECT_GT(ts.l2MshrMerges, 0u);
    EXPECT_GT(ts.l2MshrFailures, 0u);
    EXPECT_GT(mem.stats().pteAccesses, 0u);
    Cache::Stats l1d = mem.aggregateL1dStats();
    EXPECT_GT(l1d.mshrMerges, 0u);
    EXPECT_GT(l1d.mshrFailures, 0u);
    EXPECT_GT(mem.l2d().stats().mshrFailures, 0u);
    EXPECT_GT(mem.dram().stats().accesses, 0u);
}

/**
 * Software walks on an idle SoftWalker GPU: its SMs never start, so the
 * only traffic is the translations each batch feeds the engine.
 */
class SoftWalkAllocs : public ::testing::Test
{
  protected:
    SoftWalkAllocs()
        : gpu(test::smallSoftWalkerConfig(),
              std::make_unique<RandomAccessWorkload>("idle", 64ull << 20,
                                                     5)),
          pool(gpu.memory().requests()), sink(pool)
    {
        installWalkBackend(gpu);
    }

    /**
     * Fewer walks than the distributor has credits (4 SMs x 8 SoftPWB
     * entries), so none waits in the distributor's queues.
     */
    static constexpr Vpn kPages = 24;

    static Vpn vpnOf(Vpn page) { return 0x20000 + page * 8; }

    void
    flushAll()
    {
        for (SmId sm = 0; sm < gpu.config().numSms; ++sm)
            AuditTester::l1d(gpu.memory(), sm).flush();
        AuditTester::l2d(gpu.memory()).flush();
        gpu.engine().flushAsid(0);
    }

    /** One batch; @return the allocations it made. */
    std::uint64_t
    runBatch()
    {
        std::uint64_t before = g_allocs;
        for (Vpn page = 0; page < kPages; ++page) {
            // Every SM asks for its own pages at once: one walk each,
            // arriving at the PW Warps faster than they drain.
            gpu.engine().translate(pool.alloc(
                {.addr = vpnOf(page),
                 .unit = SmId(page % gpu.config().numSms),
                 .done = Done::Translation}));
        }
        gpu.eventQueue().run();
        return g_allocs - before;
    }

    Gpu gpu;
    RequestPool &pool;
    CountingSink sink;
};

TEST_F(SoftWalkAllocs, SecondBatchAllocatesNothing)
{
    std::uint64_t first = runBatch();
    flushAll();
    std::uint64_t second = runBatch();
    EXPECT_GT(first, 0u) << "the first batch sizes the slabs";
    EXPECT_EQ(second, 0u);

    // Both batches finished everything they issued.
    EXPECT_EQ(sink.done, 2 * kPages);
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_EQ(gpu.engine().outstandingWalks(), 0u);
    EXPECT_EQ(gpu.engine().walks().live(), 0u);

    // Every walk took the software path end to end, in multi-lane
    // batches, and none queued at the distributor (its waiting queues
    // are outside this gate).
    const SoftWalkerBackend &backend = *softWalkerOf(gpu);
    EXPECT_EQ(backend.stats().toSoftware, 2 * kPages);
    EXPECT_EQ(backend.stats().queuedNoCapacity, 0u);
    EXPECT_EQ(backend.inFlight(), 0u);
    PwWarp::Stats pw = backend.aggregatePwWarpStats();
    EXPECT_EQ(pw.walksCompleted, 2 * kPages);
    EXPECT_LT(pw.batches, pw.walksCompleted);
    EXPECT_GT(pw.ldptIssued, pw.walksCompleted);
    EXPECT_EQ(pw.fl2tIssued, 2 * kPages);
}

/**
 * Hardware walks on an idle 4-PTW GPU: as many walks at once as the L2
 * TLB has MSHRs (16), more than the 4 walkers and the 8-entry PWB hold,
 * so some spill into its overflow queue.  Four consecutive pages share a
 * PTE sector, which NHA coalescing merges.
 */
class HardwareWalkAllocs : public ::testing::Test
{
  protected:
    static constexpr Vpn kPages = 16;

    static Vpn vpnOf(Vpn page) { return 0x20000 + page; }

    void
    build(bool nha)
    {
        GpuConfig cfg = test::smallConfig();
        cfg.nhaCoalescing = nha;
        gpu = std::make_unique<Gpu>(
            cfg, std::make_unique<RandomAccessWorkload>("idle", 64ull << 20,
                                                        5));
        sink = std::make_unique<CountingSink>(gpu->memory().requests());
    }

    void
    flushAll()
    {
        for (SmId sm = 0; sm < gpu->config().numSms; ++sm)
            AuditTester::l1d(gpu->memory(), sm).flush();
        AuditTester::l2d(gpu->memory()).flush();
        gpu->engine().flushAsid(0);
    }

    /** One batch; @return the allocations it made. */
    std::uint64_t
    runBatch()
    {
        std::uint64_t before = g_allocs;
        RequestPool &pool = gpu->memory().requests();
        for (Vpn page = 0; page < kPages; ++page) {
            gpu->engine().translate(pool.alloc(
                {.addr = vpnOf(page),
                 .unit = SmId(page % gpu->config().numSms),
                 .done = Done::Translation}));
        }
        gpu->eventQueue().run();
        return g_allocs - before;
    }

    /** Two batches; checks the second allocated nothing. */
    const HardwarePtwPool::Stats &
    runTwoBatches()
    {
        std::uint64_t first = runBatch();
        flushAll();
        std::uint64_t second = runBatch();
        EXPECT_GT(first, 0u) << "the first batch sizes the rings";
        EXPECT_EQ(second, 0u);

        // Both batches finished everything they issued.
        EXPECT_EQ(sink->done, 2 * kPages);
        EXPECT_EQ(gpu->memory().requests().live(), 0u);
        EXPECT_EQ(gpu->engine().outstandingWalks(), 0u);
        EXPECT_EQ(gpu->engine().walks().live(), 0u);
        const auto &pool =
            *static_cast<const HardwarePtwPool *>(gpu->engine().backend());
        EXPECT_EQ(pool.inFlight(), 0u);
        EXPECT_EQ(pool.stats().completed, 2 * kPages);
        EXPECT_GT(pool.stats().pwbOverflows, 0u);
        return pool.stats();
    }

    std::unique_ptr<Gpu> gpu;
    std::unique_ptr<CountingSink> sink;
};

TEST_F(HardwareWalkAllocs, SecondBatchAllocatesNothing)
{
    build(false);
    const HardwarePtwPool::Stats &stats = runTwoBatches();
    EXPECT_EQ(stats.nhaMerged, 0u);
    EXPECT_EQ(stats.memReads, 2 * 4 * kPages) << "every walk read 4 levels";
}

TEST_F(HardwareWalkAllocs, SecondBatchWithNhaAllocatesNothing)
{
    build(true);
    const HardwarePtwPool::Stats &stats = runTwoBatches();
    EXPECT_GT(stats.nhaMerged, 0u);
    EXPECT_LT(stats.memReads, 2 * 4 * kPages) << "riders read nothing";
}

/**
 * The tracer and the cycle ledger on their own lifecycle stream, fed
 * concurrent walks through every phase either reads: four SMs of two
 * tenants miss, the walks are created, dispatched to a neighbouring SM
 * as PW-Warp work with two issue reservations each (more than a deque
 * node holds per SM), read the page table and fill.  The tracer's rings
 * are small enough to wrap.
 */
class ObservedAllocs : public ::testing::Test
{
  protected:
    static constexpr SmId kSms = 4;
    static constexpr std::uint64_t kWalks = 96;

    ObservedAllocs() : tracer(64)
    {
        ledger.attach({0, 0, 1, 1}, 0);
        stream.observe(&tracer, &ledger, nullptr);
    }

    static SmId smOf(std::uint64_t walk) { return SmId(walk % kSms); }

    static TranslationKey
    keyOf(std::uint64_t walk)
    {
        return {Asid(smOf(walk) / 2), 0x4000 + walk};
    }

    /** Emit @p phase at the next cycle. */
    void
    emit(LifecyclePhase phase, std::uint64_t walk, TranslationKey key,
         std::uint32_t where, Cycle a = 0, Cycle b = 0,
         std::uint32_t walker = LifecycleEvent::kNoWhere,
         std::uint32_t pt_reads = 0)
    {
        SW_LIFECYCLE(stream, phase, now, walk, key, where, true, a, b,
                     walker, pt_reads);
        ++now;
    }

    /** One batch; @return the allocations it made. */
    std::uint64_t
    runBatch()
    {
        using P = LifecyclePhase;
        constexpr std::uint32_t kNoWhere = LifecycleEvent::kNoWhere;
        std::uint64_t before = g_allocs;
        for (SmId sm = 0; sm < kSms; ++sm)
            emit(P::SmSched, 0, {}, sm, 1, 1);
        for (std::uint64_t walk = 1; walk <= kWalks; ++walk) {
            const TranslationKey key = keyOf(walk);
            emit(P::L1Miss, 0, key, smOf(walk));
            emit(P::L2Lookup, 0, key, smOf(walk));
            emit(P::L2Miss, 0, key, smOf(walk));
            emit(P::MshrAlloc, 0, key, smOf(walk));
            created[walk] = now;
            emit(P::WalkCreated, walk, key, kNoWhere);
            emit(P::BackendSubmit, walk, key, kNoWhere);
        }
        for (std::uint64_t walk = 1; walk <= kWalks; ++walk) {
            const TranslationKey key = keyOf(walk);
            const SmId host = (smOf(walk) + 1) % kSms;
            const TranslationKey tenant{key.asid, 0};
            dispatched[walk] = now;
            emit(P::WalkDispatch, walk, key, host);
            emit(P::PwHosted, 0, tenant, host);
            emit(P::PwReserve, 0, tenant, host, now, now + 1);
            emit(P::PtRead, walk, key, host);
            emit(P::PwReserve, 0, tenant, host, now, now + 1);
            emit(P::PtRead, walk, key, host);
            emit(P::PtRead, walk, key, host);
            emit(P::PtRead, walk, key, host);
        }
        for (std::uint64_t walk = 1; walk <= kWalks; ++walk) {
            emit(P::WalkFill, walk, keyOf(walk), kNoWhere,
                 dispatched[walk] - created[walk], now - dispatched[walk],
                 (smOf(walk) + 1) % kSms, 4);
            emit(P::Wakeup, 0, keyOf(walk), smOf(walk));
        }
        for (SmId sm = 0; sm < kSms; ++sm)
            emit(P::SmSched, 0, {}, sm, 1, 0);
        return g_allocs - before;
    }

    Cycle now = 1;
    /** Each walk's WalkCreated and WalkDispatch cycles, by walk id. */
    std::array<Cycle, kWalks + 1> created{};
    std::array<Cycle, kWalks + 1> dispatched{};
    TranslationTracer tracer;
    CycleLedger ledger;
    LifecycleStream stream;
};

TEST_F(ObservedAllocs, TracerAloneAllocatesNothingFromTheFirstBatch)
{
    // Both rings are reserved when the tracer is built, and each span
    // comes whole from its fill record, so no walk allocates.
    stream.observe(&tracer, nullptr, nullptr);
    EXPECT_EQ(runBatch(), 0u);
    EXPECT_EQ(tracer.spansCompleted(), kWalks);
    EXPECT_GT(tracer.spansDropped(), 0u);
    EXPECT_DOUBLE_EQ(tracer.ptReadsPerWalk().mean(), 4.0);
}

TEST_F(ObservedAllocs, SecondBatchAllocatesNothing)
{
    std::uint64_t first = runBatch();
    std::uint64_t second = runBatch();
    EXPECT_GT(first, 0u) << "the first batch sizes the maps and rings";
    EXPECT_EQ(second, 0u);

    // Both batches completed every walk and wrapped the tracer's rings.
    EXPECT_EQ(tracer.spansCompleted(), 2 * kWalks);
    EXPECT_GT(tracer.spansDropped(), 0u);
    EXPECT_GT(tracer.stampsDropped(), 0u);
    EXPECT_DOUBLE_EQ(tracer.ptReadsPerWalk().mean(), 4.0);

    // Every reservation was carved out of an SM's stall time, and every
    // hosted walk landed in the interference matrix.
    ledger.syncAll(now);
    EXPECT_EQ(ledger.auditConservation(now), "");
    Cycle occupancy = 0;
    for (SmId sm = 0; sm < kSms; ++sm)
        occupancy += ledger.account(sm, LedgerCategory::PwOccupancy);
    EXPECT_EQ(occupancy, 2 * 2 * kWalks);
    EXPECT_EQ(ledger.pwOccupancyStalled(), occupancy);
    std::uint64_t hosted = 0;
    for (Asid host : {0u, 1u})
        for (Asid walk : {0u, 1u})
            hosted += ledger.hostedWalks(host, walk);
    EXPECT_EQ(hosted, 2 * kWalks);
}

} // namespace
