#include "gpu/sm.hh"

#include <algorithm>
#include <bit>

#include "ckpt/ckpt_io.hh"
#include "obs/stat_registry.hh"
#include "prof/hostprof.hh"
#include "sim/logging.hh"

namespace sw {

Sm::Sm(EventQueue &eq, Params params, Workload &wl, RequestPool &requests,
       SmPort &machine, const LifecycleStream &lifecycle)
    : eventq(eq), params_(params), workload(wl), pool(requests),
      port(machine), lifecycle_(lifecycle),
      geometry(params.pageBytes),
      rng(params.rngSeed * 0x100000001b3ULL + params.id)
{
    SW_ASSERT(params_.numWarps > 0, "SM needs warps");
    SW_ASSERT(params_.numWarps <= kMaxWarps,
              "SM %u: %u warps; a translation record names at most %u",
              params_.id, params_.numWarps, kMaxWarps);
    SW_ASSERT(std::has_single_bit(params_.sectorBytes),
              "SM %u: sector size %u is not a power of two", params_.id,
              params_.sectorBytes);
    warps.resize(params_.numWarps);
}

void
Sm::start(std::uint64_t *instr_quota, std::uint32_t active_warps)
{
    quota = instr_quota;
    std::uint32_t count = std::min(active_warps, params_.numWarps);
    for (WarpId w = 0; w < count; ++w) {
        warps[w].live = true;
        ++liveWarps;
    }
    SW_LIFECYCLE(lifecycle_, LifecyclePhase::SmSched, eventq.now(), 0, {},
                 params_.id, false, liveWarps > 0,
                 liveWarps > 0 && blockedWarps >= liveWarps);
    for (WarpId w = 0; w < count; ++w)
        fetchAndSchedule(w);
}

Cycle
Sm::reservePwIssue(std::uint32_t slots, Asid walkAsid)
{
    Cycle start = std::max(eventq.now(), nextIssueFree);
    nextIssueFree = start + slots;
    stats_.pwIssueCycles += slots;
    SW_LIFECYCLE(lifecycle_, LifecyclePhase::PwReserve, eventq.now(), 0,
                 TranslationKey{walkAsid, 0}, params_.id, true, start,
                 start + slots);
    return start + slots;
}

void
Sm::fetchAndSchedule(WarpId warp)
{
    SW_PROF_SCOPE(prof::Zone::SmExec);
    WarpState &ws = warps[warp];
    SW_ASSERT(ws.live, "fetch on a dead warp");
    if (*quota == 0) {
        retireWarp(warp);
        return;
    }
    --*quota;
    ws.pending = workload.next(params_.id, warp, rng);
    stats_.computeCycles += ws.pending.computeGap;
    eventq.scheduleIn(
        ws.pending.computeGap, [this, warp]() { tryIssue(warp); }, &ws);
}

void
Sm::tryIssue(WarpId warp)
{
    Cycle now = eventq.now();
    if (nextIssueFree > now) {
        // Issue port busy (another warp or the PW Warp): retry when free.
        eventq.schedule(
            nextIssueFree, [this, warp]() { tryIssue(warp); }, &warps[warp]);
        return;
    }
    nextIssueFree = now + 1;
    ++stats_.issueSlotCycles;
    ++stats_.warpInstrs;
    execMemInstr(warp);
}

void
Sm::execMemInstr(WarpId warp)
{
    SW_PROF_SCOPE(prof::Zone::SmExec);
    WarpState &ws = warps[warp];
    const WarpInstr &instr = ws.pending;
    ws.issuedAt = eventq.now();

    // Coalesce the warp's lanes into unique pages, and each page's unique
    // sectors in first-touch lane order.  A lane compares its sector only
    // against its own page's list (next[] threads the lists through the
    // first-touch order).
    std::uint32_t lanes = std::min<std::uint32_t>(instr.activeLanes,
                                                  params_.warpSize);
    const std::uint64_t sector_mask = ~std::uint64_t(params_.sectorBytes - 1);
    Vpn vpns[kMaxLanes];
    std::uint8_t first[kMaxLanes];     // page -> its first sector
    std::uint8_t last[kMaxLanes];      // page -> its last sector
    std::uint64_t offsets[kMaxLanes];  // sector -> offset in its page
    std::uint8_t next[kMaxLanes];      // sector -> its page's next sector
    std::uint32_t num_pages = 0;
    std::uint32_t num_sectors = 0;
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        VirtAddr va = instr.addrs[lane];
        Vpn vpn = geometry.vpnOf(va);
        std::uint64_t sector_off = geometry.offsetOf(va) & sector_mask;
        std::uint32_t page = 0;
        while (page < num_pages && vpns[page] != vpn)
            ++page;
        if (page == num_pages) {
            vpns[page] = vpn;
            first[page] = std::uint8_t(num_sectors);
            ++num_pages;
        } else {
            std::uint32_t s = first[page];
            while (s != kNoSector && offsets[s] != sector_off)
                s = next[s];
            if (s != kNoSector)
                continue;
            next[last[page]] = std::uint8_t(num_sectors);
        }
        last[page] = std::uint8_t(num_sectors);
        offsets[num_sectors] = sector_off;
        next[num_sectors] = kNoSector;
        ++num_sectors;
    }

    if (num_sectors == 0) {
        // Degenerate instruction: nothing to do, move on next cycle.
        eventq.scheduleIn(1, [this, warp]() { fetchAndSchedule(warp); });
        return;
    }

    // The lane addresses are dead after issue: they now hold each page's
    // sector offsets as one run, and the page's translation record names
    // its run.  translated() makes the run's sector records.
    ws.outstanding = num_sectors;
    enterBlocked(warp);
    stats_.translationsRequested += num_pages;
    RequestId pages[kMaxLanes];
    std::uint32_t run_start = 0;
    for (std::uint32_t page = 0; page < num_pages; ++page) {
        std::uint32_t at = run_start;
        for (std::uint32_t s = first[page]; s != kNoSector; s = next[s])
            ws.pending.addrs[at++] = offsets[s];
        pages[page] = pool.alloc({.addr = vpns[page],
                                  .unit = params_.id,
                                  .slot = runSlot(warp, run_start,
                                                  at - run_start),
                                  .asid = std::uint16_t(params_.asid),
                                  .done = Done::Translation});
        run_start = at;
    }
    for (std::uint32_t page = 0; page < num_pages; ++page)
        port.translate(pages[page]);
}

void
Sm::translated(RequestId id)
{
    Pfn pfn = pool[id].addr;
    std::uint32_t slot = pool[id].slot;
    pool.free(id);
    WarpId warp = slot >> (2 * kRunBits);
    std::uint32_t start = (slot >> kRunBits) & (kMaxLanes - 1);
    std::uint32_t count = (slot & (kMaxLanes - 1)) + 1;
    const WarpInstr &instr = warps[warp].pending;
    for (std::uint32_t i = start; i < start + count; ++i) {
        RequestId sector = pool.alloc(
            {.addr = geometry.composePa(pfn, instr.addrs[i]),
             .unit = params_.id,
             .slot = warp,
             .done = Done::SmAccess,
             .write = instr.write});
        ++stats_.dataAccesses;
        port.access(sector);
    }
}

void
Sm::accessDone(RequestId id)
{
    SW_PROF_SCOPE(prof::Zone::SmExec);
    WarpId warp = pool[id].slot;
    pool.free(id);
    WarpState &ws = warps[warp];
    stats_.accessLatency.add(eventq.now() - ws.issuedAt);
    SW_ASSERT(ws.outstanding > 0, "access completion underflow");
    if (--ws.outstanding == 0) {
        stats_.warpMemLatency.add(eventq.now() - ws.issuedAt);
        leaveBlocked(warp);
        fetchAndSchedule(warp);
    }
}

void
Sm::enterBlocked(WarpId warp)
{
    WarpState &ws = warps[warp];
    SW_ASSERT(!ws.blocked, "double block");
    ws.blocked = true;
    ++blockedWarps;
    updateStallWindow();
}

void
Sm::leaveBlocked(WarpId warp)
{
    WarpState &ws = warps[warp];
    SW_ASSERT(ws.blocked, "unblock of a running warp");
    ws.blocked = false;
    SW_ASSERT(blockedWarps > 0, "blocked warp underflow");
    --blockedWarps;
    updateStallWindow();
}

void
Sm::retireWarp(WarpId warp)
{
    WarpState &ws = warps[warp];
    ws.live = false;
    SW_ASSERT(liveWarps > 0, "live warp underflow");
    --liveWarps;
    updateStallWindow();
}

void
Sm::updateStallWindow()
{
    bool stalled_now = liveWarps > 0 && blockedWarps >= liveWarps;
    Cycle now = eventq.now();
    if (stalled_now && !fullyStalled) {
        fullyStalled = true;
        stallStart = now;
    } else if (!stalled_now && fullyStalled) {
        fullyStalled = false;
        stats_.memStallCycles += now - stallStart;
    }
    SW_LIFECYCLE(lifecycle_, LifecyclePhase::SmSched, now, 0, {}, params_.id,
                 false, liveWarps > 0, stalled_now);
}

void
Sm::saveState(CkptWriter &w) const
{
    // At a drained barrier every warp has retired (start() re-activates
    // them when the next segment begins), so warp state needs no bytes.
    SW_ASSERT(liveWarps == 0 && blockedWarps == 0 && !fullyStalled,
              "SM %u checkpointed with live warps", params_.id);
    w.section("sm");
    w.u32(params_.id);
    std::uint64_t rng_state[4];
    rng.snapshot(rng_state);
    for (std::uint64_t word : rng_state)
        w.u64(word);
    w.u64(nextIssueFree);
    w.u64(stats_.warpInstrs);
    w.u64(stats_.issueSlotCycles);
    w.u64(stats_.pwIssueCycles);
    w.u64(stats_.computeCycles);
    w.u64(stats_.memStallCycles);
    w.u64(stats_.translationsRequested);
    w.u64(stats_.dataAccesses);
    w.latency(stats_.warpMemLatency);
    w.latency(stats_.accessLatency);
}

void
Sm::restoreState(CkptReader &r)
{
    r.expectSection("sm");
    std::uint32_t id = r.u32();
    if (id != params_.id)
        fatal("checkpoint SM %u restored into SM %u", id, params_.id);
    std::uint64_t rng_state[4];
    for (auto &word : rng_state)
        word = r.u64();
    rng.restore(rng_state);
    nextIssueFree = r.u64();
    stats_.warpInstrs = r.u64();
    stats_.issueSlotCycles = r.u64();
    stats_.pwIssueCycles = r.u64();
    stats_.computeCycles = r.u64();
    stats_.memStallCycles = r.u64();
    stats_.translationsRequested = r.u64();
    stats_.dataAccesses = r.u64();
    r.latency(stats_.warpMemLatency);
    r.latency(stats_.accessLatency);
}

void
Sm::registerStats(StatGroup group)
{
    group.counter("warp_instrs", &stats_.warpInstrs);
    group.counter("issue_slot_cycles", &stats_.issueSlotCycles);
    group.counter("pw_issue_cycles", &stats_.pwIssueCycles);
    group.counter("compute_cycles", &stats_.computeCycles);
    group.counter("mem_stall_cycles", &stats_.memStallCycles);
    group.counter("translations", &stats_.translationsRequested);
    group.counter("data_accesses", &stats_.dataAccesses);
    group.latency("warp_mem_latency", &stats_.warpMemLatency);
    group.latency("access_latency", &stats_.accessLatency);
    group.gauge("stalled_warps",
                [this]() { return double(blockedWarps); });
}

} // namespace sw
