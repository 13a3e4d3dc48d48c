/**
 * @file
 * CycleLedger implementation: span state machine, PW-reservation
 * carve-out, per-ASID accumulation, conservation check, JSON dump.
 */

#include "obs/cycle_ledger.hh"

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>

#include "sim/logging.hh"

namespace sw {

const char *
categoryName(LedgerCategory cat)
{
    switch (cat) {
      case LedgerCategory::Idle:
        return "idle";
      case LedgerCategory::IssueExecute:
        return "issue_execute";
      case LedgerCategory::MemWait:
        return "mem_wait";
      case LedgerCategory::TransL1Miss:
        return "trans_l1_miss";
      case LedgerCategory::TransL2Queue:
        return "trans_l2_queue";
      case LedgerCategory::TransInTlbMshr:
        return "trans_intlb_mshr";
      case LedgerCategory::TransWalkDispatch:
        return "trans_walk_dispatch";
      case LedgerCategory::TransPwExec:
        return "trans_pw_exec";
      case LedgerCategory::TransPtwExec:
        return "trans_ptw_exec";
      case LedgerCategory::TransFault:
        return "trans_fault";
      case LedgerCategory::PwOccupancy:
        return "pw_occupancy";
      case LedgerCategory::NumCategories:
        break;
    }
    SW_ASSERT(false, "invalid ledger category");
    return "?";
}

void
CycleLedger::attach(std::vector<Asid> smAsids, Cycle now)
{
    SW_ASSERT(sms_.empty(), "CycleLedger::attach called twice");
    SW_ASSERT(!smAsids.empty(), "CycleLedger::attach with no SMs");
    smAsid_ = std::move(smAsids);
    sms_.assign(smAsid_.size(), SmLedger{});
    wordsPerSet_ = (sms_.size() + 63) / 64;
    for (SmLedger &led : sms_)
        led.spanStart = now;
    // Size the per-tenant accounts and the host x walk interference
    // matrices for the full tenant universe, so registerStats() can hand
    // out stable pointers and dumps always show the complete matrix.
    const Asid tenants =
        *std::max_element(smAsid_.begin(), smAsid_.end()) + 1;
    std::vector<bool> owns(tenants, false);
    for (Asid asid : smAsid_)
        owns[asid] = true;
    SW_ASSERT(std::find(owns.begin(), owns.end(), false) == owns.end(),
              "every tenant 0..%u must own an SM", unsigned(tenants - 1));
    asidAccounts_.assign(tenants, {});
    hostedCycles_.assign(std::size_t(tenants) * tenants, 0);
    hostedWalks_.assign(std::size_t(tenants) * tenants, 0);
    start_ = now;
    syncedAt_ = now;
}

void
CycleLedger::consume(const LifecycleEvent &event)
{
    if (sms_.empty())
        return;
    const SmId sm = event.where;
    const Cycle now = event.cycle;
    switch (event.phase) {
      case LifecyclePhase::SmSched:
        smSchedState(sm, now, event.a != 0, event.b != 0);
        break;
      case LifecyclePhase::L1Miss:
        transEnter(sm, event.key, now);
        break;
      case LifecyclePhase::L1Hit:
      case LifecyclePhase::Wakeup:
        transLeave(sm, event.key, now);
        break;
      case LifecyclePhase::MshrFail:
        transPark(sm, event.key, now);
        break;
      case LifecyclePhase::L2Merge:
        transJoin(sm, event.key, now);
        break;
      case LifecyclePhase::MshrAlloc:
      case LifecyclePhase::InTlbAlloc:
        transTrackNew(event.key,
                      event.phase == LifecyclePhase::InTlbAlloc
                          ? LedgerCategory::TransInTlbMshr
                          : LedgerCategory::TransWalkDispatch,
                      now);
        transJoin(sm, event.key, now);
        break;
      case LifecyclePhase::WalkDispatch:
        transTrackStage(event.key,
                        event.software ? LedgerCategory::TransPwExec
                                       : LedgerCategory::TransPtwExec,
                        now);
        break;
      case LifecyclePhase::Fault:
        transTrackStage(event.key, LedgerCategory::TransFault, now);
        break;
      case LifecyclePhase::FaultReplay:
        transTrackStage(event.key,
                        event.a ? LedgerCategory::TransInTlbMshr
                                : LedgerCategory::TransWalkDispatch,
                        now);
        break;
      case LifecyclePhase::WalkFill:
        transTrackDone(event.key);
        break;
      case LifecyclePhase::PwReserve:
        pwReserve(sm, event.a, event.b, event.key.asid);
        break;
      case LifecyclePhase::PwHosted:
        pwWalkHosted(sm, event.key.asid);
        break;
      default:
        break;
    }
}

LedgerCategory
CycleLedger::currentCategory(const SmLedger &led) const
{
    if (!led.anyLive)
        return LedgerCategory::Idle;
    if (!led.stalled)
        return LedgerCategory::IssueExecute;
    // Deepest outstanding translation stage wins: a walk already executing
    // explains a full stall better than the L1 miss that spawned it.
    static constexpr std::array<LedgerCategory, kNumTransStages> kByDepth = {
        LedgerCategory::TransFault,        LedgerCategory::TransPtwExec,
        LedgerCategory::TransPwExec,       LedgerCategory::TransInTlbMshr,
        LedgerCategory::TransWalkDispatch, LedgerCategory::TransL2Queue,
        LedgerCategory::TransL1Miss,
    };
    for (LedgerCategory stage : kByDepth)
        if (led.stageCount[stageIndex(stage)] > 0)
            return stage;
    return LedgerCategory::MemWait;
}

void
CycleLedger::charge(SmId sm, LedgerCategory cat, Cycle cycles)
{
    const std::size_t idx = static_cast<std::size_t>(cat);
    sms_[sm].accounts[idx] += cycles;
    asidAccounts_[smAsid_[sm]][idx] += cycles;
}

void
CycleLedger::closeSpan(SmId sm, Cycle now)
{
    SmLedger &led = sms_[sm];
    SW_ASSERT(now >= led.spanStart, "ledger span runs backwards");
    if (now == led.spanStart)
        return;
    const Cycle from = led.spanStart;
    Cycle carved = 0;
    const Asid host = smAsid_[sm];
    while (!led.pwIntervals.empty()) {
        PwInterval &iv = led.pwIntervals.front();
        if (iv.start >= now)
            break;
        const Cycle ovStart = std::max(iv.start, from);
        const Cycle ovEnd = std::min(iv.end, now);
        if (ovEnd > ovStart) {
            const Cycle ov = ovEnd - ovStart;
            carved += ov;
            hostedCycles_[cell(host, iv.walkAsid)] += ov;
        }
        if (iv.end > now) {
            iv.start = now; // the rest belongs to future spans
            break;
        }
        led.pwIntervals.popFront();
    }
    const Cycle span = now - from;
    SW_ASSERT(carved <= span, "PW carve-out exceeds span");
    const LedgerCategory cat = currentCategory(led);
    if (carved > 0) {
        charge(sm, LedgerCategory::PwOccupancy, carved);
        // Remember how much of the carve-out displaced stall time: the
        // scheduler's memStallCycles counts the whole stall window, so
        // stall accounts + this subset reconstruct it exactly.
        if (cat == LedgerCategory::MemWait || isTransStage(cat))
            led.pwStalled += carved;
    }
    if (span > carved)
        charge(sm, cat, span - carved);
    led.spanStart = now;
}

void
CycleLedger::smSchedState(SmId sm, Cycle now, bool anyLive, bool stalled)
{
    SW_ASSERT(sm < sms_.size(), "ledger SM id out of range");
    SmLedger &led = sms_[sm];
    if (led.anyLive == anyLive && led.stalled == stalled)
        return;
    closeSpan(sm, now);
    led.anyLive = anyLive;
    led.stalled = stalled;
}

CycleLedger::KeyState &
CycleLedger::keyState(const TranslationKey &key)
{
    if (KeyState *state = keys_.find(key))
        return *state;
    KeyState &state = keys_.insert(key);
    if (freeSets_ != kNoSets) {
        state.sets = freeSets_;
        freeSets_ = std::uint32_t(setSlab_[state.sets]);
        setSlab_[state.sets] = 0;
    } else {
        const std::size_t blockWords = kNumSmSets * wordsPerSet_;
        SW_ASSERT(setSlab_.size() + blockWords < kNoSets,
                  "ledger SM-set slab exceeds 2^32 words");
        state.sets = std::uint32_t(setSlab_.size());
        setSlab_.resize(setSlab_.size() + blockWords, 0);
    }
    return state;
}

void
CycleLedger::releaseIfIdle(const TranslationKey &key, const KeyState &state)
{
    if (state.walking)
        return;
    const std::uint64_t *block = &setSlab_[state.sets];
    for (std::size_t word = 0; word < kNumSmSets * wordsPerSet_; ++word)
        if (block[word] != 0)
            return;
    setSlab_[state.sets] = freeSets_;
    freeSets_ = state.sets;
    keys_.erase(key);
}

CycleLedger::SmSet
CycleLedger::setOf(const KeyState &state, SmId sm) const
{
    SW_ASSERT(sm < sms_.size(), "ledger SM id out of range");
    const std::uint64_t *word = &setSlab_[state.sets + sm / 64 * kNumSmSets];
    const std::uint64_t bit = std::uint64_t(1) << (sm % 64);
    for (std::size_t set = 0; set < kNumSmSets; ++set)
        if (word[set] & bit)
            return SmSet(set);
    return NoSet;
}

void
CycleLedger::moveSm(const KeyState &state, SmId sm, SmSet from, SmSet to,
                    Cycle now)
{
    auto stageOf = [&state](SmSet set) {
        return set == L1MissSet   ? LedgerCategory::TransL1Miss
               : set == ParkedSet ? LedgerCategory::TransL2Queue
                                  : state.stage;
    };
    closeSpan(sm, now);
    std::uint64_t *word = &setSlab_[state.sets + sm / 64 * kNumSmSets];
    const std::uint64_t bit = std::uint64_t(1) << (sm % 64);
    if (from != NoSet) {
        --sms_[sm].stageCount[stageIndex(stageOf(from))];
        word[from] &= ~bit;
    }
    if (to != NoSet) {
        ++sms_[sm].stageCount[stageIndex(stageOf(to))];
        word[to] |= bit;
    }
}

void
CycleLedger::track(KeyState &state, LedgerCategory stage, Cycle now)
{
    SW_ASSERT(isTrackStage(stage), "track stage must be key-wide");
    state.walking = true;
    const LedgerCategory from = state.stage;
    if (from == stage)
        return;
    state.stage = stage;
    // Only SMs riding the walk advance with it; SMs still in an sm-local
    // stage (L1 miss, L2 queue) move via transJoin().  Each SM's span is
    // its own and accounts are sums, so the order riders close in
    // affects no account.
    for (std::size_t w = 0; w < wordsPerSet_; ++w) {
        for (std::uint64_t bits =
                 setSlab_[state.sets + w * kNumSmSets + RidingSet];
             bits != 0; bits &= bits - 1) {
            const SmId sm = SmId(w * 64 + std::countr_zero(bits));
            closeSpan(sm, now);
            --sms_[sm].stageCount[stageIndex(from)];
            ++sms_[sm].stageCount[stageIndex(stage)];
        }
    }
}

void
CycleLedger::transEnter(SmId sm, const TranslationKey &key, Cycle now)
{
    KeyState &state = keyState(key);
    // Already tracked (retry/merge path): idempotent.
    if (setOf(state, sm) == NoSet)
        moveSm(state, sm, NoSet, L1MissSet, now);
}

void
CycleLedger::transLeave(SmId sm, const TranslationKey &key, Cycle now)
{
    KeyState *state = keys_.find(key);
    if (!state)
        return;
    const SmSet set = setOf(*state, sm);
    if (set == NoSet)
        return;
    moveSm(*state, sm, set, NoSet, now);
    releaseIfIdle(key, *state);
}

void
CycleLedger::transPark(SmId sm, const TranslationKey &key, Cycle now)
{
    KeyState &state = keyState(key);
    const SmSet set = setOf(state, sm);
    if (set != ParkedSet)
        moveSm(state, sm, set, ParkedSet, now);
}

void
CycleLedger::transJoin(SmId sm, const TranslationKey &key, Cycle now)
{
    KeyState *state = keys_.find(key);
    if (!state || !state->walking)
        return; // no walk in flight; stay at the local stage
    const SmSet set = setOf(*state, sm);
    if (set != RidingSet)
        moveSm(*state, sm, set, RidingSet, now);
}

void
CycleLedger::transTrackNew(const TranslationKey &key, LedgerCategory stage,
                           Cycle now)
{
    track(keyState(key), stage, now);
}

void
CycleLedger::transTrackStage(const TranslationKey &key, LedgerCategory stage,
                             Cycle now)
{
    if (KeyState *state = keys_.find(key))
        track(*state, stage, now);
}

void
CycleLedger::transTrackDone(const TranslationKey &key)
{
    // Riders stay at their last stage until their transLeave() wakeup.
    KeyState *state = keys_.find(key);
    if (!state)
        return;
    state->walking = false;
    releaseIfIdle(key, *state);
}

void
CycleLedger::pwReserve(SmId sm, Cycle start, Cycle end, Asid walkAsid)
{
    SW_ASSERT(sm < sms_.size(), "ledger SM id out of range");
    SW_ASSERT(walkAsid < asidAccounts_.size(), "unknown walk tenant %u",
              unsigned(walkAsid));
    if (start >= end)
        return;
    SmLedger &led = sms_[sm];
    SW_ASSERT(led.pwIntervals.empty() || led.pwIntervals.back().end <= start,
              "PW reservations must arrive in issue-cursor order");
    if (!led.pwIntervals.empty() && led.pwIntervals.back().end == start &&
        led.pwIntervals.back().walkAsid == walkAsid) {
        led.pwIntervals.back().end = end; // contiguous same-tenant extend
        return;
    }
    led.pwIntervals.pushBack(PwInterval{start, end, walkAsid});
}

void
CycleLedger::pwWalkHosted(SmId sm, Asid walkAsid)
{
    SW_ASSERT(sm < sms_.size(), "ledger SM id out of range");
    SW_ASSERT(walkAsid < asidAccounts_.size(), "unknown walk tenant %u",
              unsigned(walkAsid));
    ++hostedWalks_[cell(smAsid_[sm], walkAsid)];
}

void
CycleLedger::syncAll(Cycle now)
{
    if (sms_.empty())
        return;
    for (SmId sm = 0; sm < sms_.size(); ++sm)
        closeSpan(sm, now);
    syncedAt_ = now;
}

void
CycleLedger::reset(Cycle now)
{
    if (sms_.empty())
        return;
    for (SmLedger &led : sms_) {
        led.accounts.fill(0);
        led.pwStalled = 0;
        led.spanStart = now;
        // Reservations already consumed (or being consumed) by the old
        // window are gone; windows extending past now keep their tail.
        while (!led.pwIntervals.empty() &&
               led.pwIntervals.front().end <= now) {
            led.pwIntervals.popFront();
        }
        if (!led.pwIntervals.empty() &&
            led.pwIntervals.front().start < now) {
            led.pwIntervals.front().start = now;
        }
    }
    for (auto &accounts : asidAccounts_)
        accounts.fill(0);
    std::fill(hostedCycles_.begin(), hostedCycles_.end(), 0);
    std::fill(hostedWalks_.begin(), hostedWalks_.end(), 0);
    start_ = now;
    syncedAt_ = now;
}

Cycle
CycleLedger::account(SmId sm, LedgerCategory cat) const
{
    SW_ASSERT(sm < sms_.size(), "ledger SM id out of range");
    return sms_[sm].accounts[static_cast<std::size_t>(cat)];
}

Cycle
CycleLedger::asidAccount(Asid asid, LedgerCategory cat) const
{
    if (asid >= asidAccounts_.size())
        return 0;
    return asidAccounts_[asid][static_cast<std::size_t>(cat)];
}

std::array<Cycle, kNumLedgerCategories>
CycleLedger::categoryTotals() const
{
    std::array<Cycle, kNumLedgerCategories> totals{};
    for (const SmLedger &led : sms_)
        for (std::size_t cat = 0; cat < kNumLedgerCategories; ++cat)
            totals[cat] += led.accounts[cat];
    return totals;
}

Cycle
CycleLedger::pwOccupancyStalled() const
{
    Cycle total = 0;
    for (const SmLedger &led : sms_)
        total += led.pwStalled;
    return total;
}

Cycle
CycleLedger::hostedCycles(Asid host, Asid walk) const
{
    const Asid tenants = Asid(asidAccounts_.size());
    return host < tenants && walk < tenants ? hostedCycles_[cell(host, walk)]
                                            : 0;
}

std::uint64_t
CycleLedger::hostedWalks(Asid host, Asid walk) const
{
    const Asid tenants = Asid(asidAccounts_.size());
    return host < tenants && walk < tenants ? hostedWalks_[cell(host, walk)]
                                            : 0;
}

void
CycleLedger::registerStats(StatGroup group)
{
    SW_ASSERT(attached(), "register after attach()");
    for (SmId sm = 0; sm < sms_.size(); ++sm) {
        StatGroup g = group.group("sm" + std::to_string(sm));
        for (std::size_t cat = 0; cat < kNumLedgerCategories; ++cat) {
            g.counter(categoryName(static_cast<LedgerCategory>(cat)),
                      &sms_[sm].accounts[cat]);
        }
    }
    const Asid tenants = Asid(asidAccounts_.size());
    for (Asid asid = 0; asid < tenants; ++asid) {
        StatGroup g = group.group("asid" + std::to_string(asid));
        for (std::size_t cat = 0; cat < kNumLedgerCategories; ++cat) {
            g.counter(categoryName(static_cast<LedgerCategory>(cat)),
                      &asidAccounts_[asid][cat]);
        }
    }
    for (Asid host = 0; host < tenants; ++host) {
        StatGroup g = group.group("asid" + std::to_string(host))
                          .group("hosted_cycles");
        for (Asid walk = 0; walk < tenants; ++walk) {
            g.counter("asid" + std::to_string(walk),
                      &hostedCycles_[cell(host, walk)]);
        }
    }
    for (Asid host = 0; host < tenants; ++host) {
        StatGroup g = group.group("asid" + std::to_string(host))
                          .group("hosted_walks");
        for (Asid walk = 0; walk < tenants; ++walk) {
            g.counter("asid" + std::to_string(walk),
                      &hostedWalks_[cell(host, walk)]);
        }
    }
    group.gauge("elapsed", [this]() {
        return static_cast<double>(syncedAt_ - start_);
    });
}

std::string
CycleLedger::auditConservation(Cycle now) const
{
    if (sms_.empty())
        return "";
    std::ostringstream err;
    const Cycle elapsed = now - start_;
    std::vector<Cycle> openByAsid(asidAccounts_.size(), 0);
    std::vector<Cycle> smsOfAsid(asidAccounts_.size(), 0);
    for (SmId sm = 0; sm < sms_.size(); ++sm) {
        const SmLedger &led = sms_[sm];
        if (now < led.spanStart) {
            err << "ledger sm" << sm << " span starts in the future ("
                << led.spanStart << " > " << now << ")";
            return err.str();
        }
        const Cycle open = now - led.spanStart;
        const Cycle sum = std::accumulate(led.accounts.begin(),
                                          led.accounts.end(), Cycle{0});
        if (sum + open != elapsed) {
            err << "ledger sm" << sm << " leaks cycles: accounts " << sum
                << " + open span " << open << " != elapsed " << elapsed;
            return err.str();
        }
        openByAsid[smAsid_[sm]] += open;
        smsOfAsid[smAsid_[sm]] += 1;
    }
    for (Asid asid = 0; asid < asidAccounts_.size(); ++asid) {
        const auto &accounts = asidAccounts_[asid];
        const Cycle sum =
            std::accumulate(accounts.begin(), accounts.end(), Cycle{0});
        const Cycle expect = smsOfAsid[asid] * elapsed;
        if (sum + openByAsid[asid] != expect) {
            err << "ledger asid" << asid << " leaks cycles: accounts "
                << sum << " + open " << openByAsid[asid]
                << " != " << expect;
            return err.str();
        }
    }
    return "";
}

std::string
CycleLedger::dumpJson() const
{
    std::ostringstream out;
    auto writeAccounts =
        [&out](const std::array<Cycle, kNumLedgerCategories> &accounts) {
            for (std::size_t cat = 0; cat < kNumLedgerCategories; ++cat) {
                out << (cat ? "," : "") << "\""
                    << categoryName(static_cast<LedgerCategory>(cat))
                    << "\":" << accounts[cat];
            }
        };
    out << "{\"start\":" << start_ << ",\"synced\":" << syncedAt_
        << ",\"elapsed\":" << (syncedAt_ - start_) << ",\"per_sm\":[";
    for (SmId sm = 0; sm < sms_.size(); ++sm) {
        out << (sm ? "," : "") << "{\"sm\":" << sm
            << ",\"asid\":" << smAsid_[sm] << ",";
        writeAccounts(sms_[sm].accounts);
        out << "}";
    }
    out << "],\"per_asid\":[";
    const Asid tenants = Asid(asidAccounts_.size());
    for (Asid asid = 0; asid < tenants; ++asid) {
        out << (asid ? "," : "") << "{\"asid\":" << asid << ",";
        writeAccounts(asidAccounts_[asid]);
        out << "}";
    }
    out << "],\"interference\":[";
    for (Asid host = 0; host < tenants; ++host) {
        for (Asid walk = 0; walk < tenants; ++walk) {
            out << (host || walk ? "," : "") << "{\"host\":" << host
                << ",\"walk\":" << walk
                << ",\"cycles\":" << hostedCycles_[cell(host, walk)]
                << ",\"walks\":" << hostedWalks_[cell(host, walk)] << "}";
        }
    }
    out << "],\"totals\":{";
    writeAccounts(categoryTotals());
    out << "}}";
    return out.str();
}

} // namespace sw
