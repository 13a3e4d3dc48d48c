/**
 * @file
 * Global event queue driving the cycle-level simulation.
 *
 * The simulator is event-driven: components schedule callbacks at absolute
 * cycles and the kernel executes them in (cycle, insertion-order) order.
 * There is no per-cycle tick loop; idle periods cost nothing, which is what
 * makes sweeping twenty workloads over dozens of configurations cheap.
 *
 * The hot path is allocation-free and sift-cheap, split across two
 * structures:
 *
 *  - a slot-recycling *event slab* holding the handlers themselves —
 *    InlineFunctions whose captures live inside the slab entry (up to
 *    kEventInlineBytes; larger captures recycle through a thread-local
 *    overflow slab).  Slots freed by executed events are reused before the
 *    slab ever grows, so steady state never touches the allocator.
 *
 *  - a binary heap of trivially-copyable 24-byte (cycle, seq, slot)
 *    entries maintained with std::push_heap/std::pop_heap.  Sift
 *    operations move only these PODs, never the closures, so push/pop
 *    cost log(n) memcpys of three words instead of log(n) closure moves
 *    (or, before this design, log(n) std::function moves plus a
 *    malloc/free pair per event).
 *
 * Execution order is a strict total order on (cycle, insertion-seq), so
 * neither the heap layout nor the slab slot assignment can change *which*
 * event runs next — `cycles` and `eventsExecuted` are bit-identical to
 * the std::function/priority_queue implementation this replaced.
 */

#ifndef SW_SIM_EVENT_QUEUE_HH
#define SW_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "check/audit.hh"
#include "prof/hostprof.hh"
#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace sw {

/**
 * Inline capture budget for event handlers.  Sized for the largest hot
 * capture in the simulator — the SoftWalker interconnect hop, which moves
 * a whole WalkRequest (64 bytes) plus a target SM id — with the hot files
 * static_asserting that their closures fit (see e.g. core/softwalker.cc).
 */
inline constexpr std::size_t kEventInlineBytes = 80;

/** Callback executed when an event fires. */
using EventFn = InlineFunction<void(), kEventInlineBytes>;

/**
 * Tick-ordered event queue.  Events scheduled for the same cycle execute in
 * insertion order, which keeps the model deterministic.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated cycle. */
    Cycle now() const { return curCycle; }

    /** Total number of events executed so far. */
    std::uint64_t eventsExecuted() const { return numExecuted; }

    /** Number of pending events. */
    std::size_t pending() const { return heap.size(); }

    bool empty() const { return heap.empty(); }

    /**
     * Schedule @p fn to run at absolute cycle @p when.
     * Scheduling in the past is a simulator bug.
     */
    void
    schedule(Cycle when, EventFn fn)
    {
        SW_ASSERT(when >= curCycle,
                  "event scheduled in the past (%llu < %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(curCycle));
        std::uint32_t slot;
        if (freeSlots.empty()) {
            slot = static_cast<std::uint32_t>(slab.size());
            slab.emplace_back();
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
        }
        slab[slot] = std::move(fn);
        heap.push_back(HeapEntry{when, nextSeq++, slot});
        std::push_heap(heap.begin(), heap.end(), Later{});
    }

    /** Schedule @p fn to run @p delay cycles from now. */
    void
    scheduleIn(Cycle delay, EventFn fn)
    {
        schedule(curCycle + delay, std::move(fn));
    }

    /**
     * Execute the earliest pending event, advancing the clock to it.
     * @retval false if the queue was empty.
     */
    bool
    runOne()
    {
        if (heap.empty())
            return false;
        std::pop_heap(heap.begin(), heap.end(), Later{});
        HeapEntry top = heap.back();
        heap.pop_back();
        SW_AUDIT(top.when >= curCycle,
                 "event time moved backwards (%llu < %llu)",
                 static_cast<unsigned long long>(top.when),
                 static_cast<unsigned long long>(curCycle));
        curCycle = top.when;
        ++numExecuted;
        // Move the handler out and recycle its slot *before* invoking:
        // the callback is free to schedule (and the slab free to hand the
        // slot straight back to it).
        EventFn fn = std::move(slab[top.slot]);
        freeSlots.push_back(top.slot);
        {
            // Host-time attribution only; compiled out by default and a
            // single relaxed load when compiled in but disabled.
            SW_PROF_SCOPE(::sw::prof::Zone::EventDispatch);
            fn();
        }
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
        SW_ASSERT(heap.empty(),
                  "clock restore with %zu event(s) pending", heap.size());
        SW_ASSERT(cycle >= curCycle && seq >= nextSeq,
                  "clock restore would rewind time");
        curCycle = cycle;
        nextSeq = seq;
        numExecuted = executed;
    }

    /**
     * Run events until the queue is empty, @p predicate returns true, or
     * @p cycle_limit is reached.
     * @return the cycle at which execution stopped.
     */
    Cycle
    run(Cycle cycle_limit = kCycleMax,
        const std::function<bool()> &predicate = {})
    {
        SW_PROF_SCOPE(::sw::prof::Zone::SimLoop);
        while (!heap.empty() && heap.front().when <= cycle_limit) {
            if (predicate && predicate())
                break;
            runOne();
            for (Sweep &sweep : sweeps) {
                if (curCycle - sweep.last >= sweep.interval) {
                    sweep.last = curCycle;
                    sweep.fn(curCycle);
                }
            }
            // Host gauges every 2^16 events: the cadence is driven by the
            // (deterministic) event count, so the sampled sim cycles are
            // identical across runs even though the values are host-side.
            if ((numExecuted & ((1u << 16) - 1)) == 0) {
                SW_PROF_GAUGES(curCycle, heap.size(),
                               slab.size() - freeSlots.size(), slab.size());
            }
            if ((numExecuted & ((1u << 24) - 1)) == 0) {
                inform("event queue: %llu events, cycle %llu, %zu pending",
                       static_cast<unsigned long long>(numExecuted),
                       static_cast<unsigned long long>(curCycle),
                       heap.size());
            }
        }
        return curCycle;
    }

    /**
     * Drop all pending events, periodic-check subscriptions, and counters;
     * reset the clock (tests only).  Sweep subscriptions must not survive:
     * their captures point into components whose lifetime ended with the
     * run being reset.  Subscription ids keep counting, so a handle from
     * before the reset never names a later subscription.
     */
    void
    reset()
    {
        heap.clear();
        slab.clear();
        freeSlots.clear();
        curCycle = 0;
        nextSeq = 0;
        numExecuted = 0;
        sweeps.clear();
    }

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    /** Heap element: ordering key + slab slot; trivially copyable. */
    struct HeapEntry
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    static_assert(std::is_trivially_copyable_v<HeapEntry>,
                  "heap sifts must be memcpys");

    struct Later
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** One periodic sweep subscription (see addPeriodicCheck()). */
    struct Sweep
    {
        std::uint64_t id;
        Cycle interval;
        Cycle last;
        SweepFn fn;
    };

    /** Binary min-heap on (when, seq); heap.front() is the next event. */
    std::vector<HeapEntry> heap;
    /** Handler storage; slots are recycled through freeSlots. */
    std::vector<EventFn> slab;
    std::vector<std::uint32_t> freeSlots;
    Cycle curCycle = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
    std::vector<Sweep> sweeps;
    std::uint64_t nextSweepId = 1;
};

} // namespace sw

#endif // SW_SIM_EVENT_QUEUE_HH
