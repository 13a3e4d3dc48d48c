#include "obs/lifecycle.hh"

#include "obs/cycle_ledger.hh"
#include "obs/event_log.hh"
#include "obs/trace.hh"

namespace sw {

const char *
toString(LifecyclePhase phase)
{
    switch (phase) {
      case LifecyclePhase::L1Miss:        return "l1_miss";
      case LifecyclePhase::L2Lookup:      return "l2_lookup";
      case LifecyclePhase::L2Hit:         return "l2_hit";
      case LifecyclePhase::L2Miss:        return "l2_miss";
      case LifecyclePhase::MshrAlloc:     return "mshr_alloc";
      case LifecyclePhase::InTlbAlloc:    return "intlb_alloc";
      case LifecyclePhase::MshrFail:      return "mshr_fail";
      case LifecyclePhase::WalkCreated:   return "walk_created";
      case LifecyclePhase::BackendSubmit: return "backend_submit";
      case LifecyclePhase::WalkDispatch:  return "walk_dispatch";
      case LifecyclePhase::PtRead:        return "pt_read";
      case LifecyclePhase::WalkFill:      return "walk_fill";
      case LifecyclePhase::Fault:         return "fault";
      case LifecyclePhase::Wakeup:        return "wakeup";
      case LifecyclePhase::L1Hit:         return "l1_hit";
      case LifecyclePhase::L2Merge:       return "l2_merge";
      case LifecyclePhase::FaultReplay:   return "fault_replay";
      case LifecyclePhase::PwHosted:      return "pw_hosted";
      case LifecyclePhase::PwReserve:     return "pw_reserve";
      case LifecyclePhase::SmSched:       return "sm_sched";
    }
    return "?";
}

void
LifecycleStream::observe(TranslationTracer *tracer, CycleLedger *ledger,
                         EventLog *events)
{
    tracer_ = tracer;
    ledger_ = ledger;
    events_ = events;
    observed_ = tracer || ledger || events;
}

void
LifecycleStream::emit(const LifecycleEvent &event) const
{
    if (tracer_)
        tracer_->consume(event);
    if (ledger_)
        ledger_->consume(event);
    if (events_)
        events_->consume(event);
}

} // namespace sw
