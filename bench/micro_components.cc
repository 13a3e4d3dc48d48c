/**
 * @file
 * Component micro-benchmarks (google-benchmark): throughput of the
 * simulator's hot structures.  These validate that the simulator itself is
 * fast enough to sweep the paper's experiments, not paper results.
 */

#include <benchmark/benchmark.h>

#include "bench_main.hh"

#include "mem/cache.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "vm/page_table.hh"
#include "vm/page_walk_cache.hh"
#include "vm/tlb.hh"
#include "workload/generators.hh"

using namespace sw;

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1024; ++i)
            eq.schedule(Cycle(i * 7 % 997), [&]() { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_TlbLookupHit(benchmark::State &state)
{
    TlbArray tlb("bench", 1024, 16);
    for (Vpn vpn = 0; vpn < 1024; ++vpn)
        tlb.fill({0, vpn}, vpn + 1);
    Pfn pfn = 0;
    Vpn vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup({0, vpn}, pfn));
        vpn = (vpn + 1) % 1024;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupHit);

static void
BM_TlbFillEvict(benchmark::State &state)
{
    TlbArray tlb("bench", 1024, 16);
    Vpn vpn = 0;
    for (auto _ : state) {
        tlb.fill({0, vpn}, vpn);
        vpn += 64;   // always a new set conflict eventually
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbFillEvict);

/** gups' L1 TLB path: a 32-entry fully associative array, a lookup miss,
 *  then an LRU fill that evicts. */
static void
BM_TlbL1MissFill(benchmark::State &state)
{
    TlbArray tlb("l1", 32, 32);
    Rng rng(11);
    Pfn pfn = 0;
    for (auto _ : state) {
        Vpn vpn = rng.range(1ull << 33);
        if (!tlb.lookup({0, vpn}, pfn))
            tlb.fill({0, vpn}, vpn + 1);
    }
    benchmark::DoNotOptimize(tlb.stats().evictions);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbL1MissFill);

/** An In-TLB MSHR's life on the Table 3 L2 TLB (1024 entries, 16-way):
 *  allocPending, then clearPending at walk completion. */
static void
BM_TlbL2PendingCycle(benchmark::State &state)
{
    TlbArray tlb("l2", 1024, 16);
    for (Vpn vpn = 0; vpn < 1024; ++vpn)
        tlb.fill({0, vpn}, vpn + 1);
    Rng rng(13);
    for (auto _ : state) {
        Vpn vpn = rng.range(1ull << 33);
        benchmark::DoNotOptimize(tlb.allocPending({0, vpn}));
        tlb.clearPending({0, vpn});
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbL2PendingCycle);

static void
BM_RadixWalkFunctional(benchmark::State &state)
{
    PageGeometry geom(64 * 1024);
    FrameAllocator alloc(64 * 1024);
    RadixPageTable pt(geom, alloc);
    Rng rng(1);
    std::vector<Vpn> vpns;
    for (int i = 0; i < 4096; ++i) {
        Vpn vpn = rng.range(1ull << 30);
        pt.ensureMapped(vpn);
        vpns.push_back(vpn);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        Vpn vpn = vpns[i % vpns.size()];
        WalkCursor cur = pt.startWalk();
        while (!cur.done)
            pt.advance(cur, vpn);
        benchmark::DoNotOptimize(cur.pfn);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RadixWalkFunctional);

static void
BM_PwcLookup(benchmark::State &state)
{
    PageGeometry geom(64 * 1024);
    FrameAllocator alloc(64 * 1024);
    RadixPageTable pt(geom, alloc);
    PageWalkCache pwc(32);
    for (Vpn vpn = 0; vpn < 32; ++vpn)
        pwc.fill(pt, 1, {0, vpn << 10}, vpn * 0x1000);
    int level = 0;
    PhysAddr base = 0;
    Vpn vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pwc.lookup(pt, {0, (vpn << 10) + 1}, level, base));
        vpn = (vpn + 1) % 32;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PwcLookup);

/** One-cycle memory below the cache; completed requests are freed. */
struct CacheBenchRig : Cache::Below, RequestSink
{
    explicit CacheBenchRig(EventQueue &queue) : eq(queue)
    {
        pool.setSink(Done::SmAccess, this);
    }

    void
    fetch(Cache &from, const Request &missed) override
    {
        Cache *cache = &from;
        PhysAddr addr = missed.addr;
        eq.scheduleIn(1, [cache, addr]() { cache->fill(addr); });
    }

    void requestDone(RequestId id) override { pool.free(id); }

    RequestId
    issue(PhysAddr addr = 0)
    {
        return pool.alloc({.addr = addr});
    }

    EventQueue &eq;
    RequestPool pool;
};

static void
BM_CacheAccessHit(benchmark::State &state)
{
    EventQueue eq;
    CacheBenchRig rig(eq);
    Cache::Params params;
    params.sizeBytes = 128 * 1024;
    params.latency = 1;
    Cache cache(eq, params, rig.pool, rig);
    // Warm one sector.
    cache.access(rig.issue());
    eq.run();
    for (auto _ : state) {
        cache.access(rig.issue());
        eq.run();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessHit);

static void
BM_CacheMissSweep(benchmark::State &state)
{
    EventQueue eq;
    CacheBenchRig rig(eq);
    Cache::Params params;   // the Table 3 L2D: 4 MB, 16-way, 128 B lines
    params.sizeBytes = 4ull * 1024 * 1024;
    params.ways = 16;
    params.latency = 1;
    Cache cache(eq, params, rig.pool, rig);
    // Random sectors over four times the capacity: nearly every access
    // scans a full set, misses and picks a victim.
    const std::uint64_t sectors = 4 * params.sizeBytes / params.sectorBytes;
    Rng rng(7);
    for (auto _ : state) {
        cache.access(rig.issue(rng.range(sectors) * params.sectorBytes));
        eq.run();
    }
    benchmark::DoNotOptimize(cache.stats().evictions);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissSweep);

/**
 * 2dc's generator (Table 4: a 1,120 MB footprint, one stream, 4-byte
 * elements): one warp instruction a call, its 32 lane offsets stepped
 * modulo a footprint that is not a power of two.  SMs rotate as warps of
 * the Table 3 machine fetch.
 */
static void
BM_StreamingNext(benchmark::State &state)
{
    StreamingWorkload wl("2dc", 1120ull << 20, false, 25,
                         StreamingWorkload::Params{});
    Rng rng(3);
    SmId sm = 0;
    for (auto _ : state) {
        WarpInstr instr = wl.next(sm, 0, rng);
        benchmark::DoNotOptimize(instr);
        sm = sm == 79 ? 0 : sm + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamingNext);

static void
BM_RngRange(benchmark::State &state)
{
    Rng rng(9);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.range(1000003));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngRange);

SW_BENCHMARK_MAIN_WITH_MANIFEST();
