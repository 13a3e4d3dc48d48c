/**
 * @file
 * Exact allocation gate for the request path and the software walk path.
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
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "check/audit_tester.hh"
#include "core/softwalker.hh"
#include "mem/memory_system.hh"
#include "test_util.hh"
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
 * one PTE read through the engine.  (The hardware pool's std::deque PWB
 * would allocate as it cycles; that is the walk path, not the request
 * path this gate covers.)
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
    submit(WalkRequest req) override
    {
        std::uint32_t slot = 0;
        while (walks[slot].live)
            ++slot;
        ASSERT_LT(slot, walks.size());
        walks[slot] = {req, true};
        ++inFlightCount;
        read(slot);
    }

    void
    ptReadDone(std::uint32_t, std::uint32_t slot) override
    {
        Walk &walk = walks[slot];
        spaces.tableFor(walk.req.key.asid).advance(walk.req.cursor);
        if (!walk.req.cursor.done) {
            read(slot);
            return;
        }
        walk.live = false;
        --inFlightCount;
        WalkResult result;
        result.id = walk.req.id;
        result.key = walk.req.key;
        result.pfn = walk.req.cursor.pfn;
        complete(result);
    }

    std::uint64_t inFlight() const override { return inFlightCount; }
    std::string name() const override { return "reading"; }
    void resetStats() override {}

  private:
    struct Walk
    {
        WalkRequest req;
        bool live = false;
    };

    void
    read(std::uint32_t slot)
    {
        const WalkRequest &req = walks[slot].req;
        engine.ptRead(spaces.tableFor(req.key.asid).pteAddr(req.cursor),
                      kHardwareWalker, slot);
    }

    TranslationEngine &engine;
    const AddressSpaceManager &spaces;
    WalkCompleteFn complete;
    std::array<Walk, 256> walks{};
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

} // namespace
