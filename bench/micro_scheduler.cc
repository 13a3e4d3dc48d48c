/**
 * @file
 * Event-scheduler micro-benchmarks (google-benchmark): events/second on
 * the EventQueue (a timing wheel in front of a far-event heap, handlers
 * built in place in a chunked slab), with capture sizes matching the
 * simulator's real hot paths (16-byte issue events up to 80-byte
 * interconnect hops carrying a WalkRequest), self-scheduling chains, a
 * periodic sweep-hook workload, a queue as deep as gups-sw's with its
 * measured delays, and delays that all land in the far heap.
 *
 * BM_LegacyQueue* replicate the pre-InlineFunction design in-file — a
 * std::priority_queue of {cycle, seq, std::function} — so the speedup of
 * the current design is measured against the exact structure it replaced
 * rather than against memory.
 */

#include <benchmark/benchmark.h>

#include "bench_main.hh"

#include <algorithm>
#include <array>
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

/** Capture payloads shaped like the simulator's real events. */
struct Pad16
{
    std::uint64_t a[2] = {};
};
struct Pad40
{
    std::uint64_t a[5] = {};
};
struct Pad64
{
    std::uint64_t a[8] = {};
};

/** The design InlineFunction replaced, reproduced for comparison. */
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

template <typename Queue, typename Pad>
void
scheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        Queue eq;
        std::uint64_t sink = 0;
        Pad pad;
        for (int i = 0; i < kEvents; ++i) {
            pad.a[0] = std::uint64_t(i);
            eq.schedule(Cycle(i * 7 % 997),
                        [&sink, pad]() { sink += pad.a[0]; });
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
    scheduleRun<EventQueue, Pad16>(state);
}
BENCHMARK(BM_Schedule16B);

static void
BM_Schedule40B(benchmark::State &state)
{
    scheduleRun<EventQueue, Pad40>(state);
}
BENCHMARK(BM_Schedule40B);

static void
BM_Schedule64B(benchmark::State &state)
{
    scheduleRun<EventQueue, Pad64>(state);
}
BENCHMARK(BM_Schedule64B);

static void
BM_LegacyQueue16B(benchmark::State &state)
{
    scheduleRun<LegacyQueue, Pad16>(state);
}
BENCHMARK(BM_LegacyQueue16B);

static void
BM_LegacyQueue40B(benchmark::State &state)
{
    scheduleRun<LegacyQueue, Pad40>(state);
}
BENCHMARK(BM_LegacyQueue40B);

static void
BM_LegacyQueue64B(benchmark::State &state)
{
    scheduleRun<LegacyQueue, Pad64>(state);
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

/** Slab-spilling captures (larger than kEventInlineBytes): the slow path. */
static void
BM_ScheduleOversized(benchmark::State &state)
{
    struct Pad128
    {
        std::uint64_t a[16] = {};
    };
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sink = 0;
        Pad128 pad;
        for (int i = 0; i < kEvents; ++i) {
            pad.a[0] = std::uint64_t(i);
            eq.schedule(Cycle(i * 7 % 997),
                        [&sink, pad]() { sink += pad.a[0]; });
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_ScheduleOversized);

/** gups-sw's peak depth (16,800 pending) with its measured delays. */
static void
BM_DeepQueue(benchmark::State &state)
{
    static const std::vector<Cycle> delays =
        delayTable(kGupsDelays.data(), kGupsDelays.size());
    steadyState<EventQueue>(state, delays, kGupsDepth, 8 * kGupsDepth);
}
BENCHMARK(BM_DeepQueue);

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
