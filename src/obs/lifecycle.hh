/**
 * @file
 * LifecycleStream: the one hook stream every simulated-machine observer
 * reads.
 *
 * Each transition of a translation's lifecycle (L1 TLB miss, L2 lookup,
 * MSHR allocation or park, walk creation, dispatch, page-table read, fill,
 * fault, wakeup), and each SM-side transition the cycle ledger needs
 * (scheduler state, PW-issue reservation, walk hosting), is emitted once
 * as a LifecycleEvent through SW_LIFECYCLE.  The stream hands the event to
 * its three consumers: the TranslationTracer, the CycleLedger and the
 * EventLog.  The emitting components (src/vm, src/core, the SM) know the
 * stream only, never the observers behind it.
 *
 * The Gpu owns the stream and Gpu::installObservability() points it at the
 * bundle.  SW_LIFECYCLE builds the event only when a consumer is attached,
 * so an unobserved run pays one load and branch per site; its arguments
 * must therefore be free of side effects (swtidy's
 * softwalker-audit-side-effect check enforces this).  Consumers never
 * schedule events, so an observed run is bit-identical to a bare one.
 * docs/CYCLE_ACCOUNTING.md tabulates which consumer reads which phase.
 */

#ifndef SW_OBS_LIFECYCLE_HH
#define SW_OBS_LIFECYCLE_HH

#include <cstdint>

#include "sim/types.hh"
#include "vm/address.hh"

/** Emit one lifecycle event if any observer is attached to @p stream. */
#define SW_LIFECYCLE(stream, ...)                                           \
    do {                                                                    \
        if ((stream).observed())                                            \
            (stream).emit(::sw::LifecycleEvent{__VA_ARGS__});               \
    } while (0)

namespace sw {

class CycleLedger;
class EventLog;
class TranslationTracer;

/**
 * Lifecycle transitions of one translation, walk, or SM.  The tracer's
 * phases come first, through Wakeup; the tracer skips everything after.
 */
enum class LifecyclePhase : std::uint8_t
{
    L1Miss,         ///< L1 TLB lookup missed
    L2Lookup,       ///< request reached the L2 TLB
    L2Hit,          ///< L2 TLB lookup hit
    L2Miss,         ///< L2 TLB lookup missed
    MshrAlloc,      ///< regular L2 MSHR allocated
    InTlbAlloc,     ///< In-TLB MSHR slot allocated (§4.5)
    MshrFail,       ///< no miss-tracking capacity; requester parked
    WalkCreated,    ///< walk spawned (after the PWC consult)
    BackendSubmit,  ///< walk handed to the walk backend
    WalkDispatch,   ///< picked up by a hardware walker / PW-Warp lane
    PtRead,         ///< one per-level page-table memory read issued
    WalkFill,       ///< walk completed; TLBs filled
    Fault,          ///< walk faulted into the Fault Buffer
    Wakeup,         ///< an L1 waiter was resolved
    // Read by the cycle ledger only.
    L1Hit,          ///< L1 TLB lookup hit (ends a retried miss)
    L2Merge,        ///< L2 request merged into an in-flight walk
    FaultReplay,    ///< faulted walk replayed after the OS mapped the page
    PwHosted,       ///< SM picked to host a software walk
    PwReserve,      ///< SM issue slots reserved for PW-Warp instructions
    SmSched,        ///< SM scheduler state changed
};

/** Snake-case name of @p phase ("l1_miss", "walk_dispatch"). */
const char *toString(LifecyclePhase phase);

/**
 * One lifecycle transition.  The payload words a and b carry:
 * - WalkFill: the walk's queue delay and access latency (§3.2);
 * - PwReserve: the reserved issue-slot window [a, b);
 * - SmSched: a = any live warps, b = every live warp blocked;
 * - FaultReplay: a = the walk holds an In-TLB MSHR slot.
 * A WalkFill also carries the rest of the walk's record (Walk, vm/walk.hh):
 * the walker that picked the walk up and the page-table reads it issued.
 */
struct LifecycleEvent
{
    /** @c where value meaning "not tied to one SM or walker". */
    static constexpr std::uint32_t kNoWhere = ~0u;

    LifecyclePhase phase = LifecyclePhase::L1Miss;
    Cycle cycle = 0;
    std::uint64_t walk = 0;          ///< walk id (0: not tied to one walk)
    TranslationKey key;              ///< for PW events, the walked tenant
    std::uint32_t where = kNoWhere;  ///< SM id, or hardware walker slot
    bool software = false;           ///< walked by a PW Warp
    Cycle a = 0;
    Cycle b = 0;
    std::uint32_t walker = kNoWhere; ///< WalkFill: PTW slot or PW Warp's SM
    std::uint32_t ptReads = 0;       ///< WalkFill: page-table reads issued
};

/** The stream the machine emits into and the three observers read. */
class LifecycleStream
{
  public:
    /** Point the stream at its consumers; a null one is not attached. */
    void observe(TranslationTracer *tracer, CycleLedger *ledger,
                 EventLog *events);

    /** True while any consumer is attached. */
    bool observed() const { return observed_; }

    /** Hand @p event to every attached consumer (use SW_LIFECYCLE). */
    void emit(const LifecycleEvent &event) const;

    TranslationTracer *tracer() const { return tracer_; }
    CycleLedger *ledger() const { return ledger_; }
    EventLog *events() const { return events_; }

  private:
    TranslationTracer *tracer_ = nullptr;
    CycleLedger *ledger_ = nullptr;
    EventLog *events_ = nullptr;
    bool observed_ = false;
};

} // namespace sw

#endif // SW_OBS_LIFECYCLE_HH
