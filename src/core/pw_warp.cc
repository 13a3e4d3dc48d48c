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
               PageWalkCache &walk_cache, SoftPwb &buffer,
               WalkPool &walk_pool, Hooks hooks_in,
               PwWarpCodeTiming timing_in, std::uint32_t num_lanes,
               Cycle comm_latency, const LifecycleStream &lifecycle)
    : eventq(eq), spaces(aspaces), pwc(walk_cache), pwb(buffer),
      walks(walk_pool),
      hooks(std::move(hooks_in)), timing(timing_in), numLanes(num_lanes),
      commLatency(comm_latency), lifecycle_(lifecycle)
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
        lanes[i] = {picked[i], pwb.slot(picked[i]).walk};
        Walk &walk = walks[lanes[i].walk];
        walk.pickedUp = eventq.now();
        walk.walker = hooks.walker;
        walk.software = true;
        SW_LIFECYCLE(lifecycle_, LifecyclePhase::WalkDispatch, eventq.now(),
                     walk.id, walk.key, hooks.walker, true);
    }

    ++stats_.batches;
    stats_.batchSize.add(batchLanes);

    // Fig 14 lines 1-6: load the requests from SoftPWB and decode them.
    stats_.instructionsIssued += timing.setupInstrs;
    Cycle setup_done = hooks.reserveIssue(timing.setupInstrs, batchAsid());
    eventq.schedule(setup_done, [this]() { levelIteration(); });
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
        if (!walks[lanes[i].walk].cursor.done)
            active[num_active++] = i;

    if (num_active == 0) {
        finishBatch();
        return;
    }

    // Offset computation, LDPT issue, validity check, FPWC store.
    stats_.instructionsIssued += timing.perLevelInstrs;
    stats_.ldptIssued += num_active;
    Cycle issue_done =
        hooks.reserveIssue(timing.perLevelInstrs, batchAsid());

    pendingLoads = num_active;
    for (std::uint32_t lane_idx : std::span(active).first(num_active)) {
        const Walk &walk = walks[lanes[lane_idx].walk];
        PhysAddr addr = spaces.tableFor(walk.key.asid)
                            .pteAddr(walk.cursor, walk.key.vpn);
        eventq.schedule(issue_done, [this, lane_idx, addr]() {
            Walk &reading = walks[lanes[lane_idx].walk];
            ++reading.ptReads;
            SW_LIFECYCLE(lifecycle_, LifecyclePhase::PtRead, eventq.now(),
                         reading.id, reading.key, hooks.walker, true);
            hooks.ptReader->ptRead(addr, hooks.walker, lane_idx);
        }, &walk);
    }
}

void
PwWarp::ptReadDone(std::uint32_t lane_idx)
{
    SW_ASSERT(lane_idx < batchLanes, "LDPT completion for a lost lane");
    Walk &walk = walks[lanes[lane_idx].walk];
    // FPWC: publish the just-learned table base.
    const PageTableBase &table = spaces.tableFor(walk.key.asid);
    if (advanceWalk(table, pwc, walk.key, walk.cursor))
        ++stats_.fpwcIssued;
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
        if (walks[lane.walk].cursor.fault)
            ++fault_lanes;

    std::uint32_t instrs =
        timing.finishInstrs + fault_lanes * timing.faultInstrs;
    stats_.instructionsIssued += instrs;
    stats_.fl2tIssued += batchLanes - fault_lanes;
    stats_.ffbIssued += fault_lanes;

    Cycle issue_done = hooks.reserveIssue(instrs, batchAsid());
    Cycle arrive = issue_done + commLatency;

    SW_AUDIT(batchLanes <= numLanes,
             "batch carries %u lanes but the warp has %u",
             batchLanes, numLanes);

    for (const Lane &lane : batch) {
        // The SoftPWB slot frees now; the fill is in transit until the
        // FL2T/FFB lands at the L2 TLB, completes the walk and drops the
        // distributor credit.
        ++fillsCrossing;
        eventq.schedule(arrive, [this, walk = lane.walk]() {
            --fillsCrossing;
            hooks.complete(walk);
        }, &walks[lane.walk]);
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
    SW_ASSERT(!running && pendingLoads == 0 && fillsCrossing == 0,
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
