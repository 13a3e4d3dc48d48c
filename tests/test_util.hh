/**
 * @file
 * Shared helpers for the test suite: a scaled-down GPU configuration that
 * keeps end-to-end tests fast while exercising every subsystem, and a
 * callback-style requester over the request slab.
 */

#ifndef SW_TESTS_TEST_UTIL_HH
#define SW_TESTS_TEST_UTIL_HH

#include <functional>
#include <initializer_list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/request.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "vm/address.hh"
#include "vm/walk.hh"

namespace sw::test {

/**
 * Issues request records and runs a callback when each completes: the
 * sink for every tag in @p tags, taken over from their owners (if any)
 * for the client's lifetime.  Tests may allocate; the simulator's own
 * request path does not.
 */
class RequestClient : public RequestSink
{
  public:
    using DoneFn = std::function<void(const Request &)>;

    RequestClient(RequestPool &pool, std::initializer_list<Done> tags)
        : pool_(pool)
    {
        for (Done tag : tags)
            displaced.emplace_back(tag, pool_.replaceSink(tag, this));
    }

    ~RequestClient()
    {
        for (auto [tag, owner] : displaced)
            pool_.replaceSink(tag, owner);
    }

    RequestClient(const RequestClient &) = delete;
    RequestClient &operator=(const RequestClient &) = delete;

    /** Allocate a record from @p init; @p done runs when it completes. */
    RequestId
    issue(const Request &init, DoneFn done = {})
    {
        RequestId id = pool_.alloc(init);
        callbacks[id] = std::move(done);
        return id;
    }

    /** A Done::Translation of @p key for SM @p sm; @p done gets the PFN. */
    RequestId
    translation(SmId sm, TranslationKey key, std::function<void(Pfn)> done)
    {
        return issue({.addr = key.vpn,
                      .unit = sm,
                      .asid = std::uint16_t(key.asid),
                      .done = Done::Translation},
                     [done = std::move(done)](const Request &req) {
                         done(req.addr);
                     });
    }

    void
    requestDone(RequestId id) override
    {
        Request req = pool_[id];
        DoneFn done = std::move(callbacks[id]);
        callbacks.erase(id);
        pool_.free(id);
        ++completed;
        if (done)
            done(req);
    }

    std::uint64_t completed = 0;

  private:
    RequestPool &pool_;
    std::vector<std::pair<Done, RequestSink *>> displaced;
    std::unordered_map<RequestId, DoneFn> callbacks;
};

/** A small machine: 4 SMs, 8 warps each, tiny TLBs. */
inline GpuConfig
smallConfig()
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.numSms = 4;
    cfg.maxWarpsPerSm = 8;
    cfg.l1TlbEntries = 8;
    cfg.l1TlbMshrs = 8;
    cfg.l2TlbEntries = 64;
    cfg.l2TlbWays = 8;
    cfg.l2TlbMshrs = 16;
    cfg.numPtws = 4;
    cfg.pwbEntries = 8;
    cfg.softPwbEntries = 8;
    cfg.pwWarpThreads = 8;
    return cfg;
}

/** Small machine in SoftWalker mode with In-TLB MSHR enabled. */
inline GpuConfig
smallSoftWalkerConfig()
{
    GpuConfig cfg = smallConfig();
    cfg.mode = TranslationMode::SoftWalker;
    cfg.inTlbMshrMax = 32;
    return cfg;
}

/**
 * What a backend reported for a finished walk: its record's outcome and
 * the §3.2 latency split, as the engine computes them at completion.
 */
struct WalkOutcome
{
    std::uint64_t id = 0;
    TranslationKey key;
    Pfn pfn = 0;
    bool fault = false;
    bool software = false;
    std::uint16_t ptReads = 0;
    std::uint32_t walker = 0;
    Cycle queueDelay = 0;      ///< created -> picked up by a walker
    Cycle accessLatency = 0;   ///< picked up -> completed
};

/** Walk @p walk of @p walks completed at @p now: report it and free it. */
inline WalkOutcome
completeWalk(WalkPool &walks, WalkId walk, Cycle now)
{
    const Walk &w = walks[walk];
    WalkOutcome outcome{.id = w.id,
                        .key = w.key,
                        .pfn = w.cursor.pfn,
                        .fault = w.cursor.fault,
                        .software = w.software,
                        .ptReads = w.ptReads,
                        .walker = w.walker,
                        .queueDelay = w.pickedUp - w.created,
                        .accessLatency = now - w.pickedUp};
    walks.free(walk);
    return outcome;
}

/**
 * A PtReader answering every page-table read after a fixed latency by
 * calling @c answer(walker, lane); counts reads into @p reads.
 */
struct FixedLatencyReader : PtReader
{
    using AnswerFn = std::function<void(std::uint32_t, std::uint32_t)>;

    FixedLatencyReader(EventQueue &queue, Cycle lat, int &read_count)
        : eq(queue), latency(lat), reads(read_count)
    {
    }

    void
    ptRead(PhysAddr, std::uint32_t walker, std::uint32_t lane) override
    {
        ++reads;
        eq.scheduleIn(latency,
                      [this, walker, lane]() { answer(walker, lane); });
    }

    EventQueue &eq;
    Cycle latency;
    int &reads;
    AnswerFn answer;
};

} // namespace sw::test

#endif // SW_TESTS_TEST_UTIL_HH
