/**
 * @file
 * The request record: one plain-data slab entry per in-flight request on
 * the SM -> TLB -> L1D/L2D -> DRAM path.
 *
 * Every translation, data sector, L1D fill and page-table read in flight is
 * a 32-byte Request held in the per-GPU RequestPool and named by a 32-bit
 * RequestId.  Waiter lists and parked requests are intrusive FIFOs threaded
 * through Request::next, so merging, parking and waking allocate nothing.
 * A request finishes by RequestPool::complete(), which hands it to the
 * sink registered for its Done tag (see docs/ARCHITECTURE.md).  The
 * chunked storage is the Slab template, which page-table walks
 * (vm/walk.hh) use too.
 */

#ifndef SW_MEM_REQUEST_HH
#define SW_MEM_REQUEST_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace sw {

/** Index of a Request in its RequestPool. */
using RequestId = std::uint32_t;

/** "No request": the end of a FIFO. */
inline constexpr RequestId kNoRequest = ~RequestId(0);

/** What finishing a request means: selects the sink it completes to. */
enum class Done : std::uint8_t
{
    SmAccess,     ///< warp data sector: unit = SM, slot = warp
    L1dFill,      ///< L1D miss served by the L2D: unit = SM
    PtRead,       ///< page-table read: unit = walker, slot = lane
    /**
     * TLB translation: unit = SM, slot = the warp and its page's run of
     * sector offsets (Sm::runSlot), which the engine never reads.  The
     * engine's own L2 TLB requests carry this tag too but never leave the
     * engine.
     */
    Translation,
};

inline constexpr std::size_t kNumDone = 4;

/**
 * One in-flight request.  Field meaning depends on the Done tag; a
 * translation's addr holds its VPN while it is looked up and its PFN once
 * it completes.  A warp's data-sector records are made when their page's
 * translation completes, with the composed physical address.
 */
struct Request
{
    std::uint64_t addr = 0;       ///< sector address, or VPN/PFN
    Cycle start = 0;              ///< issue / arrival cycle (latency stats)
    RequestId next = kNoRequest;  ///< FIFO or free-list link
    std::uint32_t unit = 0;       ///< SM, or walker for a PtRead
    std::uint32_t slot = 0;       ///< warp, PtRead lane, or warp + run
    std::uint16_t asid = 0;       ///< translation key's ASID
    Done done = Done::SmAccess;
    bool write = false;
};

static_assert(sizeof(Request) == 32, "request records stay 32 bytes");

/** Receiver of finished requests; it owns (and frees) what it is handed. */
class RequestSink
{
  public:
    virtual void requestDone(RequestId id) = 0;

  protected:
    ~RequestSink() = default;
};

/**
 * Slab of @p Record in fixed chunks that never move, recycled through a
 * free list threaded through Record::next: after warmup, allocating and
 * freeing a record touches no allocator, and a reference to a live record
 * stays valid while later allocations take new chunks.  The first chunk
 * is taken by the first alloc(), so an unused slab costs nothing.
 */
template <typename Record>
class Slab
{
  public:
    Slab() = default;
    Slab(const Slab &) = delete;
    Slab &operator=(const Slab &) = delete;

    Record &
    operator[](std::uint32_t id)
    {
        return chunks[id >> kChunkShift][id & kChunkMask];
    }

    const Record &
    operator[](std::uint32_t id) const
    {
        return chunks[id >> kChunkShift][id & kChunkMask];
    }

    /** Take a record and initialise it to @p init. */
    std::uint32_t
    alloc(const Record &init)
    {
        std::uint32_t id = freeHead;
        if (id != kNone) {
            freeHead = (*this)[id].next;
        } else {
            if (highWater == chunks.size() << kChunkShift) {
                SW_ASSERT(chunks.size() + 1 <
                              (std::size_t(1) << (32 - kChunkShift)),
                          "slab exhausted");
                chunks.push_back(
                    std::make_unique_for_overwrite<Record[]>(kChunk));
            }
            id = highWater++;
        }
        (*this)[id] = init;
        ++live_;
        return id;
    }

    void
    free(std::uint32_t id)
    {
        SW_ASSERT(live_ > 0, "slab free underflow");
        --live_;
        (*this)[id].next = freeHead;
        freeHead = id;
    }

    /** Records currently allocated. */
    std::size_t live() const { return live_; }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t(0);  ///< list end
    static constexpr unsigned kChunkShift = 10;   ///< 1024 records a chunk
    static constexpr std::size_t kChunk = std::size_t(1) << kChunkShift;
    static constexpr std::uint32_t kChunkMask = kChunk - 1;

    std::vector<std::unique_ptr<Record[]>> chunks;
    std::uint32_t freeHead = kNone;
    std::uint32_t highWater = 0;
    std::size_t live_ = 0;
};

/** The request slab, with one completion sink per Done tag. */
class RequestPool : public Slab<Request>
{
  public:
    /**
     * Route every request tagged @p done to @p sink.  A tag has one owner
     * per pool: a second owner would silently take the first one's
     * completions, so registering it panics.  An owner that can die
     * before its pool calls clearSink() first.
     */
    void
    setSink(Done done, RequestSink *sink)
    {
        SW_ASSERT(sinks[std::size_t(done)] == nullptr,
                  "request tag %u already has a sink", unsigned(done));
        sinks[std::size_t(done)] = sink;
    }

    /** @p sink stops receiving tag @p done (a no-op once replaced). */
    void
    clearSink(Done done, const RequestSink *sink)
    {
        if (sinks[std::size_t(done)] == sink)
            sinks[std::size_t(done)] = nullptr;
    }

    /**
     * Take tag @p done over from its owner, whoever it is; @return the
     * displaced sink.  Only for test clients that stand in for a unit
     * (e.g. SMs that never start); they hand the tag back when done.
     */
    RequestSink *
    replaceSink(Done done, RequestSink *sink)
    {
        return std::exchange(sinks[std::size_t(done)], sink);
    }

    /** Finish @p id: hand it to the sink registered for its tag. */
    void
    complete(RequestId id)
    {
        RequestSink *sink = sinks[std::size_t((*this)[id].done)];
        SW_ASSERT(sink != nullptr, "no sink for request tag %u",
                  unsigned((*this)[id].done));
        sink->requestDone(id);
    }

  private:
    std::array<RequestSink *, kNumDone> sinks{};
};

/** FIFO of requests threaded through Request::next. */
struct RequestFifo
{
    RequestId head = kNoRequest;
    RequestId tail = kNoRequest;
    std::uint32_t size = 0;

    bool empty() const { return head == kNoRequest; }

    void
    push(RequestPool &pool, RequestId id)
    {
        pool[id].next = kNoRequest;
        if (tail == kNoRequest)
            head = id;
        else
            pool[tail].next = id;
        tail = id;
        ++size;
    }

    /** Put @p id back at the head (a retry that must keep its place). */
    void
    pushFront(RequestPool &pool, RequestId id)
    {
        pool[id].next = head;
        head = id;
        if (tail == kNoRequest)
            tail = id;
        ++size;
    }

    /** Unlink and return the head; the caller may free or relink it. */
    RequestId
    pop(RequestPool &pool)
    {
        RequestId id = head;
        head = pool[id].next;
        if (head == kNoRequest)
            tail = kNoRequest;
        --size;
        return id;
    }
};

} // namespace sw

#endif // SW_MEM_REQUEST_HH
