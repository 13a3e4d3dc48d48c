/**
 * @file
 * Event-scheduler micro-benchmarks (google-benchmark): events/second on
 * the EventQueue (a timing wheel in front of a far-event heap, handlers
 * built in place in a chunked slab), with the capture sizes the
 * simulator schedules (16-byte [this, id] request and issue events,
 * 24-byte [this, key] and [this, lane, addr] events, the most a handler
 * may capture), self-scheduling chains, a periodic sweep-hook workload, a
 * queue as deep as gups-sw's with its measured delays (empty handlers,
 * and handlers that each read a random record of a 16 MB slab, with and
 * without naming it to the queue), and delays that all land in the far
 * heap.
 *
 * BM_LegacyQueue* replicate the pre-EventFn design in-file — a
 * std::priority_queue of {cycle, seq, std::function} — so the speedup of
 * the current design is measured against the exact structure it replaced
 * rather than against memory.  They also run the 40- and 64-byte
 * captures that design carried, which an EventFn refuses.
 */

#include <benchmark/benchmark.h>

#include "bench_main.hh"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

using namespace sw;

namespace {

constexpr int kEvents = 4096;

/** A handler whose whole capture is @p kBytes: a pointer, then words. */
template <std::size_t kBytes>
struct Capture
{
    std::uint64_t *sink;
    std::uint64_t words[kBytes / 8 - 1] = {};

    void operator()() const { *sink += words[0]; }
};

/** The design EventFn replaced, reproduced for comparison. */
class LegacyQueue
{
  public:
    void
    schedule(Cycle when, std::function<void()> fn)
    {
        heap.push(Event{when, nextSeq++, std::move(fn)});
    }

    void
    scheduleIn(Cycle delay, std::function<void()> fn)
    {
        schedule(now + delay, std::move(fn));
    }

    void
    run()
    {
        while (!heap.empty()) {
            // std::priority_queue::top() is const; the historical code
            // const_cast the event out to move its closure.
            Event &top = const_cast<Event &>(heap.top());
            now = top.when;
            std::function<void()> fn = std::move(top.fn);
            heap.pop();
            fn();
        }
    }

    Cycle now = 0;

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        std::function<void()> fn;

        bool
        operator>(const Event &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
    std::uint64_t nextSeq = 0;
};

template <typename Queue, std::size_t kBytes>
void
scheduleRun(benchmark::State &state)
{
    static_assert(sizeof(Capture<kBytes>) == kBytes);
    for (auto _ : state) {
        Queue eq;
        std::uint64_t sink = 0;
        for (int i = 0; i < kEvents; ++i) {
            eq.schedule(Cycle(i * 7 % 997),
                        Capture<kBytes>{&sink, {std::uint64_t(i)}});
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * kEvents);
}

/**
 * Steady-state queue depth: every event reschedules itself at a delay
 * drawn from @p delays until @p total events have run, so the queue
 * holds @p depth events throughout.
 */
template <typename Queue>
void
steadyState(benchmark::State &state, const std::vector<Cycle> &delays,
            int depth, std::int64_t total)
{
    struct Ctx
    {
        Queue eq;
        const std::vector<Cycle> &delays;
        std::size_t next = 0;
        std::int64_t remaining = 0;
    };
    struct Refire
    {
        Ctx *ctx;

        void
        operator()() const
        {
            if (ctx->remaining-- <= 0)
                return;
            Cycle delay = ctx->delays[ctx->next++ % ctx->delays.size()];
            ctx->eq.scheduleIn(delay, Refire{ctx});
        }
    };
    for (auto _ : state) {
        Ctx ctx{{}, delays, 0, total - depth};
        for (int i = 0; i < depth; ++i)
            ctx.eq.scheduleIn(delays[ctx.next++ % delays.size()],
                              Refire{&ctx});
        ctx.eq.run();
        benchmark::DoNotOptimize(ctx.next);
    }
    state.SetItemsProcessed(state.iterations() * total);
}

/**
 * Scheduling delays of gups-sw (Table 3 SoftWalker config, seed 1), per
 * mille of its 1,151,820 schedules; all are below 1,024 cycles.
 */
constexpr std::array<std::pair<Cycle, int>, 19> kGupsDelays = {{
    {180, 195}, {80, 172}, {4, 150}, {40, 122}, {10, 116}, {81, 74},
    {160, 46}, {1, 45}, {162, 24}, {164, 12}, {7, 8}, {161, 6}, {163, 6},
    {166, 6}, {165, 4}, {168, 5}, {172, 4}, {300, 3}, {526, 2},
}};

/** The queue depth gups-sw peaks at. */
constexpr int kGupsDepth = 16800;

/** 4096 delays shuffled from @p weights (per mille). */
std::vector<Cycle>
delayTable(const std::pair<Cycle, int> *weights, std::size_t n)
{
    std::vector<Cycle> table;
    for (std::size_t i = 0; i < n; ++i)
        for (int k = 0; k < weights[i].second * 4; ++k)
            table.push_back(weights[i].first);
    std::shuffle(table.begin(), table.end(), std::mt19937_64(42));
    return table;
}

/** A 32-byte record: what a simulator handler reads first. */
struct Record
{
    std::uint64_t words[4];
};

/** Records in the slab the reading rows draw from: 16 MB, past L2. */
constexpr std::size_t kSlabRecords = std::size_t(1) << 19;

/**
 * A steady-state deep queue whose handlers each read one random record
 * of a 16 MB slab, as the simulator's read a request or a walk record.
 * With @p kNamed an event names its record when it is scheduled, so the
 * queue prefetches it before the handler runs.
 */
template <bool kNamed>
class ReadingQueue
{
  public:
    ReadingQueue(const std::vector<Record> &records,
                 const std::vector<Cycle> &delays, std::int64_t events)
        : slab(records), delayTable(delays), remaining(events)
    {
    }

    /** Schedule one event reading a random record. */
    void
    schedule()
    {
        struct Read
        {
            ReadingQueue *queue;
            const Record *record;

            void operator()() const { queue->fire(*record); }
        };
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const Record *record = &slab[rng & (slab.size() - 1)];
        eq.scheduleIn(delayTable[next++ % delayTable.size()],
                      Read{this, record}, kNamed ? record : nullptr);
    }

    EventQueue eq;
    std::uint64_t sum = 0;

  private:
    void
    fire(const Record &record)
    {
        for (std::uint64_t word : record.words)
            sum += word;
        if (remaining-- > 0)
            schedule();
    }

    const std::vector<Record> &slab;
    const std::vector<Cycle> &delayTable;
    std::int64_t remaining;
    std::size_t next = 0;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
};

/** BM_DeepQueue's depth and delays, each handler reading a record. */
template <bool kNamed>
void
deepQueueReading(benchmark::State &state, const std::vector<Cycle> &delays,
                 int depth, std::int64_t total)
{
    static const std::vector<Record> records(kSlabRecords,
                                             Record{{1, 2, 3, 4}});
    for (auto _ : state) {
        ReadingQueue<kNamed> queue(records, delays, total - depth);
        for (int i = 0; i < depth; ++i)
            queue.schedule();
        queue.eq.run();
        benchmark::DoNotOptimize(queue.sum);
    }
    state.SetItemsProcessed(state.iterations() * total);
}

/** Delays from one to four wheel spans: all of them far-heap events. */
std::vector<Cycle>
farDelayTable()
{
    std::mt19937_64 rng(7);
    std::vector<Cycle> table(4096);
    for (Cycle &delay : table)
        delay = EventQueue::kWheelSpan + rng() % (3 * EventQueue::kWheelSpan);
    return table;
}

} // namespace

static void
BM_Schedule16B(benchmark::State &state)
{
    scheduleRun<EventQueue, 16>(state);
}
BENCHMARK(BM_Schedule16B);

static void
BM_Schedule24B(benchmark::State &state)
{
    scheduleRun<EventQueue, 24>(state);
}
BENCHMARK(BM_Schedule24B);

static void
BM_LegacyQueue16B(benchmark::State &state)
{
    scheduleRun<LegacyQueue, 16>(state);
}
BENCHMARK(BM_LegacyQueue16B);

static void
BM_LegacyQueue40B(benchmark::State &state)
{
    scheduleRun<LegacyQueue, 40>(state);
}
BENCHMARK(BM_LegacyQueue40B);

static void
BM_LegacyQueue64B(benchmark::State &state)
{
    scheduleRun<LegacyQueue, 64>(state);
}
BENCHMARK(BM_LegacyQueue64B);

/** Self-scheduling chain: the simulator's dominant pattern (tryIssue). */
static void
BM_SelfSchedulingChain(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int remaining = kEvents;
        std::function<void()> step = [&]() {
            if (--remaining > 0)
                eq.scheduleIn(1, [&]() { step(); });
        };
        eq.scheduleIn(1, [&]() { step(); });
        eq.run();
        benchmark::DoNotOptimize(remaining);
    }
    state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_SelfSchedulingChain);

/** Scheduling with a live periodic sweep hook (Auditor/sampler overhead). */
static void
BM_ScheduleWithPeriodicCheck(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sweeps = 0;
        eq.addPeriodicCheck(64, [&](Cycle) { ++sweeps; });
        std::uint64_t sink = 0;
        for (int i = 0; i < kEvents; ++i)
            eq.schedule(Cycle(i), [&sink]() { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sweeps);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_ScheduleWithPeriodicCheck);

/** gups-sw's peak depth (16,800 pending) with its measured delays. */
static void
BM_DeepQueue(benchmark::State &state)
{
    static const std::vector<Cycle> delays =
        delayTable(kGupsDelays.data(), kGupsDelays.size());
    steadyState<EventQueue>(state, delays, kGupsDepth, 8 * kGupsDepth);
}
BENCHMARK(BM_DeepQueue);

/** BM_DeepQueue with a record read per handler, not named to the queue. */
static void
BM_DeepQueueRecordUnnamed(benchmark::State &state)
{
    static const std::vector<Cycle> delays =
        delayTable(kGupsDelays.data(), kGupsDelays.size());
    deepQueueReading<false>(state, delays, kGupsDepth, 8 * kGupsDepth);
}
BENCHMARK(BM_DeepQueueRecordUnnamed);

/** The same, each event naming its record: the queue prefetches it. */
static void
BM_DeepQueueRecordNamed(benchmark::State &state)
{
    static const std::vector<Cycle> delays =
        delayTable(kGupsDelays.data(), kGupsDelays.size());
    deepQueueReading<true>(state, delays, kGupsDepth, 8 * kGupsDepth);
}
BENCHMARK(BM_DeepQueueRecordNamed);

static void
BM_LegacyDeepQueue(benchmark::State &state)
{
    static const std::vector<Cycle> delays =
        delayTable(kGupsDelays.data(), kGupsDelays.size());
    steadyState<LegacyQueue>(state, delays, kGupsDepth, 8 * kGupsDepth);
}
BENCHMARK(BM_LegacyDeepQueue);

/** Every delay a wheel span or more: the far heap's own speed. */
static void
BM_FarDelays(benchmark::State &state)
{
    static const std::vector<Cycle> delays = farDelayTable();
    steadyState<EventQueue>(state, delays, kEvents, 8 * kEvents);
}
BENCHMARK(BM_FarDelays);

SW_BENCHMARK_MAIN_WITH_MANIFEST();
