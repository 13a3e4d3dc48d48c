#include "core/pw_warp.hh"

#include <array>
#include <span>

#include "check/audit.hh"
#include "prof/hostprof.hh"
#include "sim/logging.hh"

namespace sw {

const char *
toString(PwOpcode op)
{
    switch (op) {
      case PwOpcode::Alu:  return "ALU";
      case PwOpcode::Ldpt: return "LDPT";
      case PwOpcode::Fl2t: return "FL2T";
      case PwOpcode::Fpwc: return "FPWC";
      case PwOpcode::Ffb:  return "FFB";
    }
    return "?";
}

PwWarp::PwWarp(EventQueue &eq, const AddressSpaceManager &aspaces,
               SoftPwb &buffer, Hooks hooks_in, PwWarpCodeTiming timing_in,
               std::uint32_t num_lanes, Cycle comm_latency,
               const LifecycleStream &lifecycle)
    : eventq(eq), spaces(aspaces), pwb(buffer), hooks(std::move(hooks_in)),
      timing(timing_in), numLanes(num_lanes), commLatency(comm_latency),
      lifecycle_(lifecycle)
{
    SW_ASSERT(numLanes > 0 && numLanes <= kMaxLanes,
              "PW Warp lanes out of range");
}

void
PwWarp::notifyWork()
{
    if (running)
        return;
    if (pwb.validCount() == 0)
        return;
    startBatch();
}

void
PwWarp::startBatch()
{
    SW_PROF_SCOPE(prof::Zone::PwWarpExec);
    running = true;
    batchStart = eventq.now();

    if (!lanes)
        lanes = std::make_unique<Lane[]>(numLanes);
    std::array<std::uint32_t, kMaxLanes> picked;
    batchLanes = pwb.collectValid(std::span(picked).first(numLanes));
    SW_ASSERT(batchLanes > 0, "batch started with no valid entries");

    for (std::uint32_t i = 0; i < batchLanes; ++i) {
        const SoftPwb::Slot &slot = pwb.slot(picked[i]);
        Lane &lane = lanes[i];
        lane.slot = picked[i];
        lane.cursor = slot.req.cursor;
        lane.pickedUp = eventq.now();
        lane.created = slot.req.created;
        lane.id = slot.req.id;
        lane.key = slot.req.key;
        SW_LIFECYCLE(lifecycle_, LifecyclePhase::WalkDispatch, eventq.now(),
                     lane.id, lane.key, hooks.walker, true);
    }

    ++stats_.batches;
    stats_.batchSize.add(batchLanes);

    // Fig 14 lines 1-6: load the requests from SoftPWB and decode them.
    stats_.instructionsIssued += timing.setupInstrs;
    Cycle setup_done =
        hooks.reserveIssue(timing.setupInstrs, lanes[0].key.asid);
    auto fire = [this]() { levelIteration(); };
    static_assert(EventFn::fitsInline<decltype(fire)>(),
                  "batch setup event must not spill to the slab pool");
    eventq.schedule(setup_done, std::move(fire));
}

void
PwWarp::levelIteration()
{
    SW_PROF_SCOPE(prof::Zone::PwWarpExec);
    // Lanes proceed in SIMT lockstep: each iteration handles one radix
    // level for every lane that still has levels to read.
    std::array<std::uint32_t, kMaxLanes> active;
    std::uint32_t num_active = 0;
    for (std::uint32_t i = 0; i < batchLanes; ++i)
        if (!lanes[i].cursor.done)
            active[num_active++] = i;

    if (num_active == 0) {
        finishBatch();
        return;
    }

    // Offset computation, LDPT issue, validity check, FPWC store.
    stats_.instructionsIssued += timing.perLevelInstrs;
    stats_.ldptIssued += num_active;
    Cycle issue_done =
        hooks.reserveIssue(timing.perLevelInstrs, lanes[0].key.asid);

    pendingLoads = num_active;
    for (std::uint32_t lane_idx : std::span(active).first(num_active)) {
        const PageTableBase &pt =
            spaces.tableFor(lanes[lane_idx].key.asid);
        PhysAddr addr = pt.pteAddr(lanes[lane_idx].cursor);
        auto fire = [this, lane_idx, addr]() {
            SW_LIFECYCLE(lifecycle_, LifecyclePhase::PtRead, eventq.now(),
                         lanes[lane_idx].id, lanes[lane_idx].key,
                         hooks.walker, true);
            hooks.ptReader->ptRead(addr, hooks.walker, lane_idx);
        };
        static_assert(EventFn::fitsInline<decltype(fire)>(),
                      "LDPT issue event must not spill to the slab pool");
        eventq.schedule(issue_done, std::move(fire));
    }
}

void
PwWarp::ptReadDone(std::uint32_t lane_idx)
{
    SW_ASSERT(lane_idx < batchLanes, "LDPT completion for a lost lane");
    Lane &lane = lanes[lane_idx];
    const PageTableBase &table = spaces.tableFor(lane.key.asid);
    int level_read = lane.cursor.level;
    table.advance(lane.cursor);
    if (!lane.cursor.done && level_read > 1) {
        // FPWC: publish the just-learned table base.
        ++stats_.fpwcIssued;
        hooks.pwcFill(lane.cursor.level, lane.key, lane.cursor.tableBase);
    }
    SW_ASSERT(pendingLoads > 0, "LDPT completion underflow");
    if (--pendingLoads == 0)
        levelIteration();
}

void
PwWarp::registerStats(StatGroup group)
{
    group.counter("batches", &stats_.batches);
    group.counter("walks_completed", &stats_.walksCompleted);
    group.counter("instructions", &stats_.instructionsIssued);
    group.counter("ldpt", &stats_.ldptIssued);
    group.counter("fl2t", &stats_.fl2tIssued);
    group.counter("fpwc", &stats_.fpwcIssued);
    group.counter("ffb", &stats_.ffbIssued);
    group.latency("batch_size", &stats_.batchSize);
    group.latency("batch_latency", &stats_.batchLatency);
    group.gauge("busy", [this]() { return running ? 1.0 : 0.0; });
}

void
PwWarp::finishBatch()
{
    SW_PROF_SCOPE(prof::Zone::PwWarpExec);
    // FL2T for every lane (plus FFB for faulted lanes), then the fills
    // travel back to the L2 TLB over the interconnect.
    std::span<const Lane> batch(lanes.get(), batchLanes);
    std::uint32_t fault_lanes = 0;
    for (const Lane &lane : batch)
        if (lane.cursor.fault)
            ++fault_lanes;

    std::uint32_t instrs =
        timing.finishInstrs + fault_lanes * timing.faultInstrs;
    stats_.instructionsIssued += instrs;
    stats_.fl2tIssued += batchLanes - fault_lanes;
    stats_.ffbIssued += fault_lanes;

    Cycle issue_done = hooks.reserveIssue(instrs, lanes[0].key.asid);
    Cycle arrive = issue_done + commLatency;

    SW_AUDIT(batchLanes <= numLanes,
             "batch carries %u lanes but the warp has %u",
             batchLanes, numLanes);

    for (const Lane &lane : batch) {
        WalkResult result;
        result.id = lane.id;
        result.key = lane.key;
        result.pfn = lane.cursor.pfn;
        result.fault = lane.cursor.fault;
        result.software = true;
        result.queueDelay = lane.pickedUp - lane.created;
        result.accessLatency = arrive - lane.pickedUp;
        // The SoftPWB slot frees now; the fill is in transit until the
        // FL2T/FFB lands at the L2 TLB and the distributor credit drops.
        ++fillsInTransit_;
        auto fire = [this, result]() {
            SW_ASSERT(fillsInTransit_ > 0, "FL2T transit underflow");
            --fillsInTransit_;
            hooks.complete(result);
        };
        static_assert(EventFn::fitsInline<decltype(fire)>(),
                      "FL2T fill event must not spill to the slab pool");
        eventq.schedule(arrive, std::move(fire));
        pwb.release(lane.slot);
        ++stats_.walksCompleted;
    }
    stats_.batchLatency.add(eventq.now() - batchStart);

    running = false;
    batchLanes = 0;
    // More requests may have become valid while this batch ran.
    notifyWork();
}

void
PwWarp::saveState(CkptWriter &w) const
{
    SW_ASSERT(!running && pendingLoads == 0 && fillsInTransit_ == 0,
              "PW Warp checkpointed mid-batch");
    w.section("pw_warp");
    w.u64(stats_.batches);
    w.u64(stats_.walksCompleted);
    w.u64(stats_.instructionsIssued);
    w.u64(stats_.ldptIssued);
    w.u64(stats_.fl2tIssued);
    w.u64(stats_.fpwcIssued);
    w.u64(stats_.ffbIssued);
    w.latency(stats_.batchSize);
    w.latency(stats_.batchLatency);
}

void
PwWarp::restoreState(CkptReader &r)
{
    r.expectSection("pw_warp");
    stats_.batches = r.u64();
    stats_.walksCompleted = r.u64();
    stats_.instructionsIssued = r.u64();
    stats_.ldptIssued = r.u64();
    stats_.fl2tIssued = r.u64();
    stats_.fpwcIssued = r.u64();
    stats_.ffbIssued = r.u64();
    r.latency(stats_.batchSize);
    r.latency(stats_.batchLatency);
}

} // namespace sw
