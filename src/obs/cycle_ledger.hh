/**
 * @file
 * CycleLedger: conservation-audited top-down cycle accounting.
 *
 * Every simulated SM cycle is attributed to exactly one category of a
 * fixed taxonomy: issue/execute, memory wait, a translation-wait subtree
 * decomposed along the walk lifecycle stages (L1-TLB miss, L2-TLB queue,
 * In-TLB-MSHR wait, walk dispatch queue, PW-warp execution vs. hardware
 * PTW, fault-buffer wait), and PW-warp occupancy (issue slots an SM spent
 * hosting walks instead of tenant work).  Accounts are kept per-SM and
 * per-ASID, so co-run interference is a first-class breakdown instead of
 * a derived slowdown number.
 *
 * The ledger is a pure observer: a consumer of the LifecycleStream
 * (obs/lifecycle.hh), whose events mark the stall sites the machine
 * already has (scheduler stall window, TLB miss/fill, MSHR park/merge,
 * walk dispatch, fault replay, PW issue reservation).  It never schedules
 * events, so enabling it cannot perturb simulation results — the
 * zero-perturbation suite pins this with bit-identical fingerprints.
 *
 * Conservation holds by construction: each SM runs a span state machine
 * whose open span is closed (attributed) at every category transition,
 * hence at any sync point
 *
 *     sum(accounts[sm]) == syncedAt - start          (exactly)
 *
 * per SM, and the per-ASID accounts sum to nSms(asid) * elapsed.  The
 * `obs.ledger.cycles-conserved` audit (registered by the Gpu) re-checks
 * both identities every audit sweep; auditConservation() is const and
 * read-only per the audit-side-effect contract.
 */

#ifndef SW_OBS_CYCLE_LEDGER_HH
#define SW_OBS_CYCLE_LEDGER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/lifecycle.hh"
#include "obs/stat_registry.hh"
#include "sim/flat_map.hh"
#include "sim/ring_queue.hh"
#include "sim/types.hh"
#include "vm/address.hh"

namespace sw {

/**
 * The fixed attribution taxonomy.  A stalled SM is charged to the deepest
 * lifecycle stage any of its outstanding translations has reached (a walk
 * in flight explains the stall better than the L1 miss that spawned it);
 * with no translation outstanding a full stall is a plain memory wait.
 * PwOccupancy is carved out of whatever category the SM was in while its
 * issue slots were reserved for walk instructions.
 */
enum class LedgerCategory : std::uint8_t
{
    Idle,              ///< no live warps on the SM
    IssueExecute,      ///< at least one warp could issue
    MemWait,           ///< fully stalled, no translation outstanding
    TransL1Miss,       ///< stalled; deepest stage: L1-TLB miss handling
    TransL2Queue,      ///< stalled; deepest stage: parked in L2-TLB queue
    TransInTlbMshr,    ///< stalled; deepest stage: In-TLB-MSHR wait
    TransWalkDispatch, ///< stalled; deepest stage: walk dispatch queue
    TransPwExec,       ///< stalled; deepest stage: PW-warp executing
    TransPtwExec,      ///< stalled; deepest stage: hardware PTW walking
    TransFault,        ///< stalled; deepest stage: fault-buffer wait
    PwOccupancy,       ///< issue slots reserved for hosted PW-warp work
    NumCategories,     ///< sentinel
};

inline constexpr std::size_t kNumLedgerCategories =
    static_cast<std::size_t>(LedgerCategory::NumCategories);

/** Snake-case stat/JSON name of @p cat ("issue_execute", "trans_fault"). */
const char *categoryName(LedgerCategory cat);

/** Translation lifecycle stages, i.e. the Trans* slice of the taxonomy. */
inline constexpr std::size_t kNumTransStages =
    static_cast<std::size_t>(LedgerCategory::TransFault) -
    static_cast<std::size_t>(LedgerCategory::TransL1Miss) + 1;

/** True for the Trans* categories. */
constexpr bool
isTransStage(LedgerCategory cat)
{
    return cat >= LedgerCategory::TransL1Miss &&
           cat <= LedgerCategory::TransFault;
}

/**
 * True for stages that advance key-wide (one walk serves every merged
 * SM): In-TLB-MSHR wait onward.  L1-miss and L2-queue are per-SM local —
 * an SM parked in the L2 queue stays parked while another SM's walk for
 * the same key progresses.
 */
constexpr bool
isTrackStage(LedgerCategory cat)
{
    return cat >= LedgerCategory::TransInTlbMshr &&
           cat <= LedgerCategory::TransFault;
}

/** Top-down cycle-accounting ledger, per-SM and per-ASID. */
class CycleLedger
{
  public:
    CycleLedger() = default;

    CycleLedger(const CycleLedger &) = delete;
    CycleLedger &operator=(const CycleLedger &) = delete;

    /**
     * Bind to a machine: one ledger row per SM, @p smAsids[sm] giving the
     * tenant each SM belongs to.  Tenants are 0..T-1 and each owns an SM
     * (GpuConfig::validate() guarantees it).  All accounts start empty at
     * @p now.
     */
    void attach(std::vector<Asid> smAsids, Cycle now);

    bool attached() const { return !sms_.empty(); }
    std::size_t numSms() const { return sms_.size(); }
    Cycle start() const { return start_; }
    Cycle syncedAt() const { return syncedAt_; }

    /**
     * Stream entry: apply one lifecycle event (a no-op until attach()).
     * docs/CYCLE_ACCOUNTING.md maps each phase to the handler below.
     */
    void consume(const LifecycleEvent &event);

    // -- Sync / lifecycle -------------------------------------------------

    /** Close every SM's open span at @p now; accounts become exact. */
    void syncAll(Cycle now);

    /**
     * Zero all accounts and restart attribution at @p now (measurement
     * window reset).  Live machine state — scheduler state, outstanding
     * translations, future PW reservations — is kept.
     */
    void reset(Cycle now);

    // -- Readout ----------------------------------------------------------

    /** Closed per-SM account (cycles attributed so far). */
    Cycle account(SmId sm, LedgerCategory cat) const;

    /** Closed per-ASID account. */
    Cycle asidAccount(Asid asid, LedgerCategory cat) const;

    /** Per-category totals summed over all SMs (closed accounts only). */
    std::array<Cycle, kNumLedgerCategories> categoryTotals() const;

    /**
     * The share of the PwOccupancy account that was carved out of
     * *stall* spans (MemWait / Trans*), summed over all SMs.  The
     * remainder overlapped IssueExecute or Idle spans.  Together with
     * the stall-category totals this reconstructs the SM scheduler's
     * memStallCycles counter exactly:
     * stall + pwOccupancyStalled == memStall.
     */
    Cycle pwOccupancyStalled() const;

    /** Issue cycles SMs of @p host spent walking on behalf of @p walk. */
    Cycle hostedCycles(Asid host, Asid walk) const;

    /** Walks SMs of @p host hosted on behalf of @p walk. */
    std::uint64_t hostedWalks(Asid host, Asid walk) const;

    /**
     * Register every account under @p group ("sm<N>.<cat>",
     * "asid<A>.<cat>", interference matrices, elapsed).  Call after
     * attach(); pointers stay valid for the ledger's lifetime.
     */
    void registerStats(StatGroup group);

    /**
     * Conservation check (read-only): per-SM and per-ASID account sums
     * must equal elapsed cycles exactly, counting each open span.
     * Returns "" when conserved, else a description of the first
     * violation.  Wired to the `obs.ledger.cycles-conserved` audit.
     */
    std::string auditConservation(Cycle now) const;

    /** JSON object body for the softwalker.ledger/1 artifact. */
    std::string dumpJson() const;

  private:
    friend struct AuditTester;

    // -- Handlers behind consume() ----------------------------------------

    /** Scheduler state change: any live warps / all live warps blocked. */
    void smSchedState(SmId sm, Cycle now, bool anyLive, bool stalled);

    /**
     * @p sm missed its L1 TLB for @p key (stage TransL1Miss).  Idempotent:
     * re-entry while already tracked (e.g. a parked-drain retry) is a
     * no-op.
     */
    void transEnter(SmId sm, const TranslationKey &key, Cycle now);

    /** @p sm received its translation for @p key; stop tracking the pair. */
    void transLeave(SmId sm, const TranslationKey &key, Cycle now);

    /** @p sm parked in the L2-TLB wait queue (MSHR-full back-pressure). */
    void transPark(SmId sm, const TranslationKey &key, Cycle now);

    /** @p sm merged into @p key's in-flight walk: adopt its track stage. */
    void transJoin(SmId sm, const TranslationKey &key, Cycle now);

    /** A walk track for @p key came into existence at @p stage. */
    void transTrackNew(const TranslationKey &key, LedgerCategory stage,
                       Cycle now);

    /** @p key's walk advanced to @p stage; moves every merged SM. */
    void transTrackStage(const TranslationKey &key, LedgerCategory stage,
                         Cycle now);

    /** @p key's walk finished; SMs stay until their transLeave() wakeup. */
    void transTrackDone(const TranslationKey &key);

    /**
     * @p sm's issue slots [start, end) were reserved for PW-warp
     * instructions walking on behalf of @p walkAsid.  Reservations arrive
     * with monotonically non-decreasing start (the SM's issue cursor), so
     * the interval queue stays sorted and disjoint.
     */
    void pwReserve(SmId sm, Cycle start, Cycle end, Asid walkAsid);

    /** @p sm (host tenant) was picked to host a walk for @p walkAsid. */
    void pwWalkHosted(SmId sm, Asid walkAsid);

    /** One reserved PW-issue window on an SM. */
    struct PwInterval
    {
        Cycle start = 0;
        Cycle end = 0;
        Asid walkAsid = 0;
    };

    /** Per-SM span state machine plus closed accounts. */
    struct SmLedger
    {
        std::array<Cycle, kNumLedgerCategories> accounts{};
        /** PwOccupancy carved from stall spans (subset of the account). */
        Cycle pwStalled = 0;
        Cycle spanStart = 0;
        bool anyLive = false;
        bool stalled = false;
        /** Outstanding translations of this SM per Trans* stage. */
        std::array<std::uint32_t, kNumTransStages> stageCount{};
        /** Future/open PW-issue reservations, sorted and disjoint. */
        RingQueue<PwInterval> pwIntervals;
    };

    /**
     * The three SM sets of an in-flight key, one bit per SM.  An SM
     * waiting on the key is in exactly one of them.
     */
    enum SmSet : std::uint8_t
    {
        L1MissSet, ///< at its L1-miss stage
        ParkedSet, ///< parked in the L2-TLB queue
        RidingSet, ///< riding the key's walk, at KeyState::stage
        NoSet,     ///< not waiting on the key
    };
    static constexpr std::size_t kNumSmSets = NoSet;

    /** End of the free list of set blocks. */
    static constexpr std::uint32_t kNoSets = ~0u;

    /** Shared walk-track state for one in-flight key. */
    struct KeyState
    {
        /**
         * The stage of the key's walk and of every SM riding it: riders
         * move together at each track change and keep their last stage
         * after the fill until their own wakeup.
         */
        LedgerCategory stage = LedgerCategory::NumCategories;
        /** A walk for the key is in flight (its fill has not landed). */
        bool walking = false;
        /**
         * Offset of the key's set block in setSlab_: word w of set s is
         * setSlab_[sets + w * kNumSmSets + s], so an SM's bits in the
         * three sets sit side by side.
         */
        std::uint32_t sets = kNoSets;
    };

    static std::size_t
    stageIndex(LedgerCategory cat)
    {
        return static_cast<std::size_t>(cat) -
               static_cast<std::size_t>(LedgerCategory::TransL1Miss);
    }

    /** The category the open span is accruing toward. */
    LedgerCategory currentCategory(const SmLedger &led) const;

    /**
     * Attribute [spanStart, now) and restart the span.  PW-reservation
     * overlap is carved out to PwOccupancy (and the host/walk
     * interference matrix); the remainder goes to the current category.
     */
    void closeSpan(SmId sm, Cycle now);

    /** @p key's state, created with empty sets if the key is new. */
    KeyState &keyState(const TranslationKey &key);

    /** Erase @p key, recycling its sets, once no walk or SM is left. */
    void releaseIfIdle(const TranslationKey &key, const KeyState &state);

    /** The set of @p state holding @p sm, or NoSet. */
    SmSet setOf(const KeyState &state, SmId sm) const;

    /** Move @p sm from set @p from to set @p to (either may be NoSet). */
    void moveSm(const KeyState &state, SmId sm, SmSet from, SmSet to,
                Cycle now);

    /** Put @p state's walk at @p stage and move every rider with it. */
    void track(KeyState &state, LedgerCategory stage, Cycle now);

    void charge(SmId sm, LedgerCategory cat, Cycle cycles);

    /** Index of the (host, walk) cell of the interference matrices. */
    std::size_t
    cell(Asid host, Asid walk) const
    {
        return std::size_t(host) * asidAccounts_.size() + walk;
    }

    std::vector<SmLedger> sms_;
    std::vector<Asid> smAsid_;
    /** In-flight translation keys with at least one tracked SM or walk. */
    FlatMap<TranslationKey, KeyState> keys_{kNoTranslationKey};
    /** 64-bit words per SM set: ceil(numSms / 64). */
    std::size_t wordsPerSet_ = 0;
    /**
     * Each key's set block, kNumSmSets * wordsPerSet_ words.  A freed
     * block is all zero but for its first word, which links the next
     * free block.
     */
    std::vector<std::uint64_t> setSlab_;
    std::uint32_t freeSets_ = kNoSets;
    /** Per-tenant accounts, accumulated alongside per-SM closes. */
    std::vector<std::array<Cycle, kNumLedgerCategories>> asidAccounts_;
    /** [host][walk] cell -> issue cycles SMs of host spent on walk's walks. */
    std::vector<Cycle> hostedCycles_;
    /** [host][walk] cell -> walks hosted. */
    std::vector<std::uint64_t> hostedWalks_;
    Cycle start_ = 0;
    Cycle syncedAt_ = 0;
};

} // namespace sw

#endif // SW_OBS_CYCLE_LEDGER_HH
