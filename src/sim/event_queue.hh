/**
 * @file
 * Global event queue driving the cycle-level simulation.
 *
 * The simulator is event-driven: components schedule callbacks at absolute
 * cycles and the kernel executes them in (cycle, insertion-order) order.
 * There is no per-cycle tick loop; idle periods cost nothing, which is what
 * makes sweeping twenty workloads over dozens of configurations cheap.
 *
 * Scheduling and running an event are O(1) and allocation-free for the
 * delays the model uses, across three structures:
 *
 *  - the *event slab*: every handler (an EventFn, 32 bytes) is built
 *    directly in a slot of a 1024-slot chunk that never moves and runs
 *    there, so an event costs no closure move.  The whole capture lives
 *    inside the slot and needs no destructor: one that does not fit, or
 *    that owns anything, does not compile.  Freed slots are reused before
 *    a new chunk is taken, so steady state never touches the allocator.
 *
 *  - the *timing wheel*: kWheelSpan per-cycle FIFO buckets, linked through
 *    the slab, holding every event due less than kWheelSpan cycles ahead.
 *    A bitmap of 64-bit words, summarised by one more word, finds the
 *    next occupied bucket in a few bit operations.  Every benchmark
 *    workload schedules all of its events inside the span.
 *
 *  - the *far heap*: a binary heap of trivially-copyable 24-byte
 *    (cycle, seq, slot) entries for the rare events scheduled a full span
 *    or more ahead (UVM fault replays under long fixed page-table
 *    latencies).
 *
 * Execution order is a strict total order on (cycle, insertion-seq) —
 * neither the tiers nor the slot assignment can change *which* event runs
 * next (EventQueue::peek() says why), so `cycles` and `eventsExecuted`
 * are bit-identical to the std::function/priority_queue kernel this
 * replaced.
 *
 * An event may name the memory its handler reads first: schedule()'s
 * optional `record` pointer (a request record, a walk record, a warp's
 * state), kept in the slab beside the slot's link.  Before a handler
 * runs, dispatch() prefetches the handler storage and the record of the
 * next one or two wheel events, so a handler rarely starts by waiting on
 * a cache miss.  The pointer is a hint only: it is never dereferenced, it
 * may be null or name freed memory, and it changes neither what runs nor
 * when.  Once events are typed (ROADMAP), the record follows from the
 * event's kind and first word, and the argument goes away.
 */

#ifndef SW_SIM_EVENT_QUEUE_HH
#define SW_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/audit.hh"
#include "prof/hostprof.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace sw {

/**
 * Capture budget of an event handler: the owning component's pointer
 * plus up to two words (a request or walk id, a translation key, or a
 * lane index and a physical address).  A record larger than that lives
 * in a slab (mem/request.hh) and the event captures its id.
 */
inline constexpr std::size_t kEventInlineBytes = 24;

/**
 * The closure rule: an event handler is a trivially destructible void()
 * callable whose capture fits kEventInlineBytes and needs no more than
 * max_align_t alignment.  A handler that breaks it does not compile.
 * Capture indices, request ids or a pointer to the owning component, not
 * the objects themselves, and nothing that owns memory.
 */
template <typename F>
concept EventHandler =
    std::is_invocable_r_v<void, std::decay_t<F> &> &&
    std::is_trivially_destructible_v<std::decay_t<F>> &&
    sizeof(std::decay_t<F>) <= kEventInlineBytes &&
    alignof(std::decay_t<F>) <= alignof(std::max_align_t);

/**
 * A scheduled event's handler: its capture and one invoke pointer.
 * EventQueue builds it in place in a slab slot straight from the callable
 * handed to schedule() and calls it once there, so it is neither copied
 * nor moved and has no empty state.  Nothing is destroyed: the slot is
 * simply reused.
 */
class EventFn
{
  public:
    template <EventHandler F>
    explicit EventFn(F &&fn) : invoke(&invokeAs<std::decay_t<F>>)
    {
        ::new (static_cast<void *>(capture)) std::decay_t<F>(
            std::forward<F>(fn));
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    void operator()() { invoke(capture); }

  private:
    template <typename Fn>
    static void
    invokeAs(void *fn)
    {
        (*static_cast<Fn *>(fn))();
    }

    alignas(std::max_align_t) unsigned char capture[kEventInlineBytes];
    void (*invoke)(void *);
};
static_assert(sizeof(EventFn) == kEventInlineBytes + sizeof(void *) &&
                  std::is_trivially_destructible_v<EventFn>,
              "an EventFn is its capture plus one invoke pointer");

/**
 * Tick-ordered event queue.  Events scheduled for the same cycle execute in
 * insertion order, which keeps the model deterministic.
 */
class EventQueue
{
  public:
    /**
     * Cycles the timing wheel covers: an event due fewer than this many
     * cycles ahead waits in a wheel bucket, a later one in the far heap.
     * A constant, not a knob: the execution order is the same either way.
     */
    static constexpr Cycle kWheelSpan = 4096;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated cycle. */
    Cycle now() const { return curCycle; }

    /** Total number of events executed so far. */
    std::uint64_t eventsExecuted() const { return numExecuted; }

    /** Number of pending events. */
    std::size_t pending() const { return numPending; }

    bool empty() const { return numPending == 0; }

    /**
     * Schedule @p fn to run at absolute cycle @p when; the handler is
     * built in its slab slot straight from @p fn.  @p record, if given,
     * is the memory the handler reads first, prefetched shortly before it
     * runs (never dereferenced).
     * Scheduling in the past is a simulator bug.
     */
    template <EventHandler F>
    void
    schedule(Cycle when, F &&fn, const void *record = nullptr)
    {
        SW_ASSERT(when >= curCycle,
                  "event scheduled in the past (%llu < %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(curCycle));
        std::uint32_t slot = allocSlot();
        Chunk &chunk = chunkOf(slot);
        ::new (static_cast<void *>(&chunk.fns[slot & kChunkMask]))
            EventFn(std::forward<F>(fn));
        chunk.records[slot & kChunkMask] = record;
        std::uint64_t seq = nextSeq++;
        if (when - curCycle < kWheelSpan) {
            pushNear(when, slot);
        } else {
            far.push_back(FarEntry{when, seq, slot});
            std::push_heap(far.begin(), far.end(), Later{});
        }
        ++numPending;
    }

    /** Schedule @p fn to run @p delay cycles from now. */
    template <EventHandler F>
    void
    scheduleIn(Cycle delay, F &&fn, const void *record = nullptr)
    {
        schedule(curCycle + delay, std::forward<F>(fn), record);
    }

    /**
     * Execute the earliest pending event, advancing the clock to it.
     * @retval false if the queue was empty.
     */
    bool
    runOne()
    {
        if (numPending == 0)
            return false;
        dispatch(peek());
        return true;
    }

    /**
     * Sweep hooks are invoked from run() between two events whenever at
     * least their interval has elapsed since their previous sweep.  Hooks
     * piggyback on real events: they never schedule anything, never
     * advance the clock, and never keep a drained simulation alive, so the
     * simulated timeline is identical with and without them (the
     * Simulation Auditor and the observability sampler both depend on
     * this — they observe, they must not perturb).
     */
    using SweepFn = std::function<void(Cycle)>;

    /**
     * Subscribe an independent sweep hook with its own interval.
     * Several subscribers may coexist (e.g. the Auditor's conservation
     * sweep and the TimeSeriesSampler); each fires on its own cadence.
     * @return a handle for removePeriodicCheck().
     */
    std::uint64_t
    addPeriodicCheck(Cycle interval, SweepFn fn)
    {
        SW_ASSERT(interval > 0 && fn, "sweep hook needs an interval and fn");
        std::uint64_t id = nextSweepId++;
        sweeps.push_back(Sweep{id, interval, curCycle, std::move(fn)});
        return id;
    }

    /** Unsubscribe a hook added with addPeriodicCheck(); unknown ids ok. */
    void
    removePeriodicCheck(std::uint64_t id)
    {
        for (std::size_t i = 0; i < sweeps.size(); ++i) {
            if (sweeps[i].id == id) {
                sweeps.erase(sweeps.begin() +
                             static_cast<std::ptrdiff_t>(i));
                return;
            }
        }
    }

    /** Number of live periodic-check subscriptions. */
    std::size_t numPeriodicChecks() const { return sweeps.size(); }

    /** Insertion-sequence counter (checkpointing; pairs with now()). */
    std::uint64_t seqCounter() const { return nextSeq; }

    /**
     * Restore the clock of a drained queue to a checkpointed position.
     * Only the scalar counters move: pending events cannot be serialised
     * (they are closures), which is why checkpoints are taken at a
     * quiesced tick in the first place.  The sequence counter must be
     * restored too — it breaks same-cycle scheduling ties, so resuming
     * with a different value would reorder the resumed timeline.
     */
    void
    restoreClock(Cycle cycle, std::uint64_t seq, std::uint64_t executed)
    {
        SW_ASSERT(numPending == 0,
                  "clock restore with %zu event(s) pending", numPending);
        SW_ASSERT(cycle >= curCycle && seq >= nextSeq,
                  "clock restore would rewind time");
        curCycle = cycle;
        nextSeq = seq;
        numExecuted = executed;
    }

    /**
     * Run events until the queue is empty or the next one is due after
     * @p cycle_limit.
     * @return the cycle at which execution stopped.
     */
    Cycle
    run(Cycle cycle_limit = kCycleMax)
    {
        SW_PROF_SCOPE(::sw::prof::Zone::SimLoop);
        while (numPending != 0) {
            Next next = peek();
            if (next.when > cycle_limit)
                break;
            dispatch(next);
            for (Sweep &sweep : sweeps) {
                if (curCycle - sweep.last >= sweep.interval) {
                    sweep.last = curCycle;
                    sweep.fn(curCycle);
                }
            }
            // Host gauges every 2^16 events: the cadence is driven by the
            // (deterministic) event count, so the sampled sim cycles are
            // identical across runs even though the values are host-side.
            // Every pending event holds exactly one slab slot.
            if ((numExecuted & ((1u << 16) - 1)) == 0)
                SW_PROF_GAUGES(curCycle, numPending, numPending, highWater);
            if ((numExecuted & ((1u << 24) - 1)) == 0) {
                inform("event queue: %llu events, cycle %llu, %zu pending",
                       static_cast<unsigned long long>(numExecuted),
                       static_cast<unsigned long long>(curCycle),
                       numPending);
            }
        }
        return curCycle;
    }

    /**
     * Drop all pending events, periodic-check subscriptions, and counters;
     * reset the clock (tests only; never from inside a handler).  Sweep
     * subscriptions must not survive: their captures point into
     * components whose lifetime ended with the run being reset.
     * Subscription ids keep counting, so a handle from before the reset
     * never names a later subscription.  No handler runs or needs
     * destroying; the slab chunks are kept and reused from slot 0.
     */
    void
    reset()
    {
        occupied.fill(0);
        occupiedWords = 0;
        far.clear();
        numNear = 0;
        numPending = 0;
        freeHead = kNoSlot;
        warmSlot = kNoSlot;
        highWater = 0;
        curCycle = 0;
        nextSeq = 0;
        numExecuted = 0;
        sweeps.clear();
    }

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    static constexpr unsigned kChunkShift = 10;   ///< 1024 slots a chunk
    static constexpr std::uint32_t kChunk = std::uint32_t(1)
                                            << kChunkShift;
    static constexpr std::uint32_t kChunkMask = kChunk - 1;
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);
    static constexpr unsigned kWheelMask = unsigned(kWheelSpan - 1);
    static constexpr unsigned kWheelWords = unsigned(kWheelSpan / 64);
    static_assert(std::has_single_bit(kWheelSpan) && kWheelWords <= 64,
                  "one summary word indexes the bucket bitmap");

    /** Raw, suitably aligned room for one handler. */
    struct alignas(EventFn) FnStorage
    {
        unsigned char bytes[sizeof(EventFn)];
    };

    /**
     * A slab chunk.  links[i] chains slot i into its wheel bucket, or
     * into the free list while the slot is unused; records[i] is the
     * record pointer slot i's event was scheduled with.  Line-aligned, so
     * no handler straddles two cache lines.
     */
    struct alignas(64) Chunk
    {
        FnStorage fns[kChunk];
        std::uint32_t links[kChunk];
        const void *records[kChunk];
    };

    /** A wheel bucket's FIFO; meaningful only while its bit is set. */
    struct Bucket
    {
        std::uint32_t head;
        std::uint32_t tail;
    };

    /** Far-heap element: ordering key + slab slot; trivially copyable. */
    struct FarEntry
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    static_assert(std::is_trivially_copyable_v<FarEntry>,
                  "heap sifts must be memcpys");

    struct Later
    {
        bool
        operator()(const FarEntry &a, const FarEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** The next event to run: its cycle, and whether the far heap has it. */
    struct Next
    {
        Cycle when;
        bool far;
    };

    /** One periodic sweep subscription (see addPeriodicCheck()). */
    struct Sweep
    {
        std::uint64_t id;
        Cycle interval;
        Cycle last;
        SweepFn fn;
    };

    Chunk &
    chunkOf(std::uint32_t slot)
    {
        return *chunks[slot >> kChunkShift];
    }

    /** The wheel-bucket or free-list link of @p slot. */
    std::uint32_t &
    link(std::uint32_t slot)
    {
        return chunkOf(slot).links[slot & kChunkMask];
    }

    EventFn &
    fnAt(std::uint32_t slot)
    {
        return *std::launder(reinterpret_cast<EventFn *>(
            chunkOf(slot).fns[slot & kChunkMask].bytes));
    }

    std::uint32_t
    allocSlot()
    {
        std::uint32_t slot = freeHead;
        if (slot != kNoSlot) {
            freeHead = link(slot);
            return slot;
        }
        if (highWater == chunks.size() * kChunk) {
            SW_ASSERT(chunks.size() + 1 <
                          (std::size_t(1) << (32 - kChunkShift)),
                      "event slab exhausted");
            // The wheel comes with the first chunk, on the first
            // schedule(), so a queue that never runs costs no pages.
            if (!buckets) {
                buckets =
                    std::make_unique_for_overwrite<Bucket[]>(kWheelSpan);
            }
            chunks.push_back(std::make_unique_for_overwrite<Chunk>());
        }
        return highWater++;
    }

    void
    freeSlot(std::uint32_t slot)
    {
        link(slot) = freeHead;
        freeHead = slot;
    }

    /** Append @p slot to the bucket of @p when (< now + kWheelSpan). */
    void
    pushNear(Cycle when, std::uint32_t slot)
    {
        unsigned b = unsigned(when) & kWheelMask;
        std::uint64_t bit = std::uint64_t(1) << (b & 63);
        link(slot) = kNoSlot;
        if (occupied[b >> 6] & bit) {
            link(buckets[b].tail) = slot;
            buckets[b].tail = slot;
        } else {
            buckets[b] = Bucket{slot, slot};
            occupied[b >> 6] |= bit;
            occupiedWords |= std::uint64_t(1) << (b >> 6);
        }
        ++numNear;
    }

    /** Take the first event of the (occupied) bucket of @p when. */
    std::uint32_t
    popNear(Cycle when)
    {
        unsigned b = unsigned(when) & kWheelMask;
        Bucket &bucket = buckets[b];
        std::uint32_t slot = bucket.head;
        bucket.head = link(slot);
        if (bucket.head == kNoSlot) {
            occupied[b >> 6] &= ~(std::uint64_t(1) << (b & 63));
            if (occupied[b >> 6] == 0)
                occupiedWords &= ~(std::uint64_t(1) << (b >> 6));
        }
        --numNear;
        return slot;
    }

    /**
     * The first occupied bucket at or after bucket @p pos, wrapping once
     * (the wheel must not be empty).
     */
    unsigned
    firstOccupied(unsigned pos) const
    {
        unsigned word = pos >> 6;
        std::uint64_t bits =
            occupied[word] & (~std::uint64_t(0) << (pos & 63));
        if (bits == 0) {
            // The rest of this lap, else the wrap back to bucket 0.
            std::uint64_t later =
                occupiedWords & ~((std::uint64_t(2) << word) - 1);
            word = unsigned(std::countr_zero(later ? later : occupiedWords));
            bits = occupied[word];
        }
        return (word << 6) | unsigned(std::countr_zero(bits));
    }

    /**
     * Cycle of the earliest wheel event (the wheel must not be empty).
     * Every wheel event is due in [now, now + kWheelSpan), so the first
     * occupied bucket at or after now's, wrapping once, names it.
     */
    Cycle
    nextNearCycle() const
    {
        unsigned pos = unsigned(curCycle) & kWheelMask;
        return curCycle + ((firstOccupied(pos) - pos) & kWheelMask);
    }

    /**
     * The earliest pending event (the queue must not be empty).
     *
     * Why the two tiers keep the (cycle, seq) order: a bucket is a FIFO,
     * so the wheel events of one cycle run in insertion order, and the
     * heap orders its own events by (cycle, seq).  An event for cycle c
     * enters the far heap only when scheduled at least kWheelSpan cycles
     * before c, and the wheel only when scheduled less than kWheelSpan
     * before c.  The clock never moves backwards, so every far event for
     * c was scheduled, and numbered, before every wheel event for c: the
     * heap goes first while its top is at or before the next occupied
     * bucket's cycle.  The clock only ever moves to the cycle of the
     * event being run, which keeps every wheel event inside the span;
     * restoreClock() (and the tests' clock rewind) are legal only on a
     * drained queue for the same reason.
     */
    Next
    peek() const
    {
        if (numNear == 0)
            return Next{far.front().when, true};
        Cycle near = nextNearCycle();
        if (!far.empty() && far.front().when <= near)
            return Next{far.front().when, true};
        return Next{near, false};
    }

    /**
     * Prefetch what the next one or two wheel events read first, while
     * the current handler runs: the rest of the current bucket, else the
     * head of the next occupied bucket (the far heap is not looked at).
     * @p after is the slot behind the running event in its bucket, or
     * kNoSlot.  The lookahead adds no stall of its own: it reads the
     * record pointer only of a slot the previous dispatch prefetched, and
     * otherwise only links the next dispatch reads anyway.  A wrong guess
     * (an earlier event scheduled meanwhile) costs a wasted prefetch.
     */
    void
    prefetchAhead(std::uint32_t after)
    {
        unsigned b1 = unsigned(curCycle) & kWheelMask;
        std::uint32_t n1 = after;
        if (n1 == kNoSlot) {
            if (numNear == 0)
                return;
            b1 = firstOccupied(b1);
            n1 = buckets[b1].head;
        }
        if (n1 == warmSlot) {
            if (const void *record = chunkOf(n1).records[n1 & kChunkMask])
                __builtin_prefetch(record);
        } else {
            __builtin_prefetch(&chunkOf(n1).fns[n1 & kChunkMask]);
        }
        std::uint32_t n2 = link(n1);
        if (n2 == kNoSlot) {
            unsigned b2 = firstOccupied((b1 + 1) & kWheelMask);
            n2 = b2 != b1 ? buckets[b2].head : kNoSlot;
        }
        warmSlot = n2;
        if (n2 != kNoSlot) {
            Chunk &chunk = chunkOf(n2);
            __builtin_prefetch(&chunk.fns[n2 & kChunkMask]);
            __builtin_prefetch(&chunk.records[n2 & kChunkMask]);
        }
    }

    /** Remove @p next from its tier and run it in place. */
    void
    dispatch(Next next)
    {
        std::uint32_t slot;
        std::uint32_t after = kNoSlot;
        if (next.far) {
            std::pop_heap(far.begin(), far.end(), Later{});
            slot = far.back().slot;
            far.pop_back();
        } else {
            slot = popNear(next.when);
            after = link(slot);
        }
        --numPending;
        SW_AUDIT(next.when >= curCycle,
                 "event time moved backwards (%llu < %llu)",
                 static_cast<unsigned long long>(next.when),
                 static_cast<unsigned long long>(curCycle));
        curCycle = next.when;
        ++numExecuted;
        prefetchAhead(after);
        // The slot stays taken while its handler runs (which may schedule
        // more: chunks never move, so the handler's storage stays put).
        {
            // Host-time attribution only; compiled out by default and a
            // single relaxed load when compiled in but disabled.
            SW_PROF_SCOPE(::sw::prof::Zone::EventDispatch);
            fnAt(slot)();
        }
        freeSlot(slot);
    }

    /** Handler storage; a slot is reused through the free list. */
    std::vector<std::unique_ptr<Chunk>> chunks;
    std::uint32_t freeHead = kNoSlot;
    std::uint32_t highWater = 0;
    /** The slot whose handler and record pointer the last dispatch
     *  prefetched, or kNoSlot. */
    std::uint32_t warmSlot = kNoSlot;
    /** Wheel buckets, indexed by cycle % kWheelSpan (first schedule()). */
    std::unique_ptr<Bucket[]> buckets;
    /** Bit b set: bucket b holds events. */
    std::array<std::uint64_t, kWheelWords> occupied{};
    /** Bit w set: occupied[w] != 0. */
    std::uint64_t occupiedWords = 0;
    std::size_t numNear = 0;
    /** Binary min-heap on (when, seq) of events a span or more ahead. */
    std::vector<FarEntry> far;
    std::size_t numPending = 0;
    Cycle curCycle = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
    std::vector<Sweep> sweeps;
    std::uint64_t nextSweepId = 1;
};

} // namespace sw

#endif // SW_SIM_EVENT_QUEUE_HH
