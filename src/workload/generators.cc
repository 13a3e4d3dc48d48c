#include "workload/generators.hh"

#include <cmath>

#include "ckpt/ckpt_io.hh"
#include "sim/logging.hh"
#include "sim/ordered.hh"

namespace sw {

namespace {

/** @p x mod @p m, dividing only when @p x is not already below @p m. */
std::uint64_t
reduce(std::uint64_t x, std::uint64_t m)
{
    return x < m ? x : x % m;
}

/**
 * The offsets (base + i * stride) mod m for i = 0, 1, ..., one per
 * next().  The base and the stride are reduced once; each later offset
 * costs a compare and a subtract instead of a divide.  Equal to the % form
 * of each term for any m, base and stride whose sums do not wrap 2^64.
 */
class StridedOffsets
{
  public:
    StridedOffsets(std::uint64_t base, std::uint64_t stride, std::uint64_t m)
        : at(reduce(base, m)), step(reduce(stride, m)), wrapAt(m - step)
    {
    }

    std::uint64_t
    next()
    {
        std::uint64_t offset = at;
        at = at >= wrapAt ? at - wrapAt : at + step;
        return offset;
    }

  private:
    std::uint64_t at;      ///< the next offset, below m
    std::uint64_t step;    ///< stride mod m
    std::uint64_t wrapAt;  ///< m - step: from here on, at + step wraps
};

} // namespace

SyntheticWorkload::SyntheticWorkload(std::string name,
                                     std::uint64_t footprint_bytes,
                                     bool irregular,
                                     std::uint32_t compute_gap)
    : name_(std::move(name)), footprint(footprint_bytes),
      irregular_(irregular), computeGap(compute_gap)
{
    SW_ASSERT(footprint > 0, "workload needs a footprint");
}

VirtAddr
SyntheticWorkload::randomAddr(Rng &rng, std::uint64_t align) const
{
    std::uint64_t offset = rng.range(footprint / align) * align;
    return kHeapBase + offset;
}

std::uint64_t &
SyntheticWorkload::cursor(SmId sm, WarpId warp)
{
    std::uint64_t key = (std::uint64_t(sm) << 32) | warp;
    auto [it, inserted] = cursors.try_emplace(key, 0);
    if (inserted) {
        // Seed each warp at a distinct, element-aligned partition start.
        // Full avalanche (murmur finaliser): a plain multiply loses the
        // key's high bits under the power-of-two modulus below.
        std::uint64_t h = key;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ULL;
        h ^= h >> 33;
        it->second = (h % (footprint / kCursorBytes)) * kCursorBytes;
    }
    return it->second;
}

void
SyntheticWorkload::initWindow(std::uint64_t window_pages,
                              double pages_per_instr)
{
    windowBytes = window_pages * kWindowPageBytes;
    windowAdvanceBytes = pages_per_instr * double(kWindowPageBytes);
    SW_ASSERT(windowBytes > 0 && windowBytes <= footprint,
              "window must fit inside the footprint");
}

void
SyntheticWorkload::windowTick(SmId sm)
{
    ++windowClock[sm];
}

VirtAddr
SyntheticWorkload::windowAddr(SmId sm, Rng &rng, std::uint64_t align)
{
    SW_ASSERT(windowBytes > 0, "windowAddr before initWindow");
    // Each SM works a disjoint region of the footprint (thread-block
    // partitioning), sliding forward as it issues instructions.
    std::uint64_t sm_base = (std::uint64_t(sm) * (footprint / 64)) % footprint;
    auto slide = static_cast<std::uint64_t>(
        double(windowClock[sm]) * windowAdvanceBytes);

    std::uint64_t offset;
    if (windowSpreadBytes > kWindowPageBytes) {
        // Scattered mode: the window is windowPages 64 KB slots spaced
        // windowSpreadBytes apart, sliding slot by slot.
        std::uint64_t slots = windowBytes / kWindowPageBytes;
        std::uint64_t slot = rng.range(std::max<std::uint64_t>(1, slots));
        std::uint64_t slide_slots = slide / kWindowPageBytes;
        offset = (sm_base + (slide_slots + slot) * windowSpreadBytes +
                  rng.range(kWindowPageBytes / align) * align)
                 % footprint;
    } else {
        offset = (sm_base + slide + rng.range(windowBytes / align) * align)
                 % footprint;
    }
    return kHeapBase + (offset / align) * align;
}

void
SyntheticWorkload::saveState(CkptWriter &w) const
{
    // Cursors and window clocks are lazily populated unordered maps:
    // serialise in sorted-key order so the byte stream is deterministic.
    w.section("synthetic_workload");
    w.u64(cursors.size());
    for (std::uint64_t key : sortedKeys(cursors)) {
        w.u64(key);
        w.u64(cursors.at(key));
    }
    w.u64(windowClock.size());
    for (SmId sm : sortedKeys(windowClock)) {
        w.u32(sm);
        w.u64(windowClock.at(sm));
    }
}

void
SyntheticWorkload::restoreState(CkptReader &r)
{
    r.expectSection("synthetic_workload");
    cursors.clear();
    std::uint64_t num_cursors = r.count(16, "workload cursors");
    for (std::uint64_t i = 0; i < num_cursors; ++i) {
        std::uint64_t key = r.u64();
        std::uint64_t pos = r.u64();
        if (!cursors.emplace(key, pos).second)
            fatal("checkpoint workload cursor key %llu duplicated",
                  static_cast<unsigned long long>(key));
    }
    windowClock.clear();
    std::uint64_t num_clocks = r.count(12, "workload window clocks");
    for (std::uint64_t i = 0; i < num_clocks; ++i) {
        SmId sm = r.u32();
        std::uint64_t ticks = r.u64();
        if (!windowClock.emplace(sm, ticks).second)
            fatal("checkpoint workload window clock for SM %u duplicated",
                  sm);
    }
}

// --------------------------------------------------------------------------

StreamingWorkload::StreamingWorkload(std::string name,
                                     std::uint64_t footprint_bytes,
                                     bool irregular,
                                     std::uint32_t compute_gap,
                                     Params params)
    : SyntheticWorkload(std::move(name), footprint_bytes, irregular,
                        compute_gap),
      params_(params)
{
    SW_ASSERT(params_.numStreams >= 1, "need at least one stream");
}

WarpInstr
StreamingWorkload::next(SmId sm, WarpId warp, Rng &rng)
{
    (void)rng;
    (void)warp;
    // Thread blocks on one SM work adjacent tiles: warps share the SM's
    // stream position, keeping the stream L1-TLB-resident.
    std::uint64_t &pos = sharedCursor(sm);
    WarpInstr instr;
    instr.computeGap = computeGap;
    instr.activeLanes = 32;

    // Rotate across the stencil's row streams instruction by instruction.
    std::uint64_t stream = (pos / (32 * params_.elemBytes))
                           % params_.numStreams;
    std::uint64_t stream_offset = stream * params_.streamPitchBytes;

    StridedOffsets offsets(pos + stream_offset, params_.elemBytes,
                           footprint);
    for (std::uint32_t lane = 0; lane < 32; ++lane)
        instr.addrs[lane] = kHeapBase + offsets.next();
    pos = reduce(pos + 32 * params_.elemBytes + params_.strideBytes,
                 footprint);
    return instr;
}

// --------------------------------------------------------------------------

RandomAccessWorkload::RandomAccessWorkload(std::string name,
                                           std::uint64_t footprint_bytes,
                                           std::uint32_t compute_gap,
                                           double cold_fraction)
    : SyntheticWorkload(std::move(name), footprint_bytes,
                        /*irregular=*/true, compute_gap),
      coldFraction(cold_fraction)
{
    // Hot region: a static, L2-TLB-coverable slice of the table.
    initWindow(std::min<std::uint64_t>(512, footprint / kWindowPageBytes),
               /*pages_per_instr=*/0.0);
}

WarpInstr
RandomAccessWorkload::next(SmId sm, WarpId, Rng &rng)
{
    windowTick(sm);
    WarpInstr instr;
    instr.computeGap = computeGap;
    instr.activeLanes = 32;
    instr.write = true;   // GUPS updates
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
        if (rng.uniform() < coldFraction) {
            instr.addrs[lane] = randomAddr(rng);
        } else {
            instr.addrs[lane] = windowAddr(sm, rng);
        }
    }
    return instr;
}

// --------------------------------------------------------------------------

GraphWorkload::GraphWorkload(std::string name,
                             std::uint64_t footprint_bytes, bool irregular,
                             std::uint32_t compute_gap, Params params)
    : SyntheticWorkload(std::move(name), footprint_bytes, irregular,
                        compute_gap),
      params_(params)
{
    initWindow(params_.windowPages, params_.pagesPerInstr);
}

WarpInstr
GraphWorkload::next(SmId sm, WarpId warp, Rng &rng)
{
    (void)warp;
    windowTick(sm);
    std::uint64_t &pos = sharedCursor(sm);
    WarpInstr instr;
    instr.computeGap = computeGap;
    instr.activeLanes = 32;

    // Gather bases: the distinct adjacency runs this instruction reads.
    std::uint32_t num_bases = std::max<std::uint32_t>(1,
                                                      params_.gatherBases);
    VirtAddr bases[32];
    for (std::uint32_t b = 0; b < num_bases; ++b) {
        if (params_.coldFraction > 0.0 &&
            rng.uniform() < params_.coldFraction) {
            // Far edge: neighbour outside the frontier neighbourhood.
            bases[b] = randomAddr(rng, params_.elemBytes);
        } else {
            bases[b] = windowAddr(sm, rng, params_.elemBytes);
        }
    }

    StridedOffsets offsets(pos, params_.elemBytes, footprint);
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
        std::uint64_t offset = offsets.next();
        if (rng.uniform() < params_.gatherFraction) {
            // Contiguous run off a shared base (CSR neighbour list).
            std::uint32_t base_idx = lane % num_bases;
            instr.addrs[lane] = bases[base_idx] +
                (lane / num_bases) * params_.elemBytes;
        } else {
            // Frontier / offset array: coalesced stream.
            instr.addrs[lane] = kHeapBase + offset;
        }
    }
    pos = reduce(pos + 32 * params_.elemBytes, footprint);
    return instr;
}

// --------------------------------------------------------------------------

SparseWorkload::SparseWorkload(std::string name,
                               std::uint64_t footprint_bytes,
                               std::uint32_t compute_gap, Params params)
    : SyntheticWorkload(std::move(name), footprint_bytes,
                        /*irregular=*/true, compute_gap),
      params_(params)
{
    initWindow(params_.windowPages, params_.pagesPerInstr);
}

WarpInstr
SparseWorkload::next(SmId sm, WarpId warp, Rng &rng)
{
    (void)warp;
    windowTick(sm);
    std::uint64_t &pos = sharedCursor(sm);
    WarpInstr instr;
    instr.computeGap = computeGap;
    instr.activeLanes = 32;

    std::uint64_t page = params_.pageBytesHint;
    std::uint64_t pages = std::max<std::uint64_t>(1, footprint / page);

    // Column-gather bases: distinct x-vector regions this instruction
    // reads (each a short contiguous run).
    std::uint32_t num_bases = std::max<std::uint32_t>(1,
                                                      params_.gatherBases);
    VirtAddr bases[32];
    for (std::uint32_t b = 0; b < num_bases; ++b) {
        // With both a set-stride and a sliding window configured,
        // alternate between them: spmv has set-conflicting column gathers
        // *and* sustained row-block misses.
        bool use_stride = params_.setStridePages > 0 &&
            (params_.pagesPerInstr <= 0.0 || b % 2 == 0);
        if (use_stride) {
            // Gather pages a fixed set-stride apart: they contend for the
            // same few L2 TLB sets (spmv).
            std::uint64_t cluster = pages / params_.setStridePages;
            std::uint64_t k =
                rng.range(std::max<std::uint64_t>(1, cluster));
            std::uint64_t target_page =
                (k * params_.setStridePages) % pages;
            std::uint64_t in_page =
                rng.range(page / params_.elemBytes) * params_.elemBytes;
            bases[b] = kHeapBase + target_page * page + in_page;
        } else if (params_.coldFraction > 0.0 &&
                   rng.uniform() < params_.coldFraction) {
            bases[b] = randomAddr(rng, params_.elemBytes);
        } else {
            bases[b] = windowAddr(sm, rng, params_.elemBytes);
        }
    }

    StridedOffsets offsets(pos, params_.elemBytes, footprint);
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
        std::uint64_t offset = offsets.next();
        if (rng.uniform() < params_.gatherFraction) {
            std::uint32_t base_idx = lane % num_bases;
            instr.addrs[lane] = bases[base_idx] +
                (lane / num_bases) * params_.elemBytes;
        } else {
            instr.addrs[lane] = kHeapBase + offset;
        }
    }
    pos = reduce(pos + 32 * params_.elemBytes, footprint);
    return instr;
}

// --------------------------------------------------------------------------

HashProbeWorkload::HashProbeWorkload(std::string name,
                                     std::uint64_t footprint_bytes,
                                     std::uint32_t compute_gap,
                                     double sequential_fraction,
                                     std::uint64_t window_pages,
                                     double pages_per_instr)
    : SyntheticWorkload(std::move(name), footprint_bytes,
                        /*irregular=*/true, compute_gap),
      seqFraction(sequential_fraction)
{
    initWindow(window_pages, pages_per_instr);
}

WarpInstr
HashProbeWorkload::next(SmId sm, WarpId warp, Rng &rng)
{
    (void)warp;
    windowTick(sm);
    std::uint64_t &pos = sharedCursor(sm);
    WarpInstr instr;
    instr.computeGap = computeGap;
    instr.activeLanes = 32;
    // Probe groups: a handful of distinct grid entries per instruction,
    // each read as a short contiguous run of cross-section data.
    constexpr std::uint32_t kProbeBases = 8;
    VirtAddr bases[kProbeBases];
    for (std::uint32_t b = 0; b < kProbeBases; ++b)
        bases[b] = windowAddr(sm, rng, 16);

    StridedOffsets offsets(pos, 8, footprint);
    for (std::uint32_t lane = 0; lane < 32; ++lane) {
        std::uint64_t offset = offsets.next();
        if (rng.uniform() < seqFraction) {
            instr.addrs[lane] = kHeapBase + offset;
        } else {
            instr.addrs[lane] =
                bases[lane % kProbeBases] + (lane / kProbeBases) * 16;
        }
    }
    pos = reduce(pos + 32 * 8, footprint);
    return instr;
}

// --------------------------------------------------------------------------

WavefrontWorkload::WavefrontWorkload(std::string name,
                                     std::uint64_t footprint_bytes,
                                     std::uint32_t compute_gap,
                                     Params params)
    : SyntheticWorkload(std::move(name), footprint_bytes,
                        /*irregular=*/true, compute_gap),
      params_(params)
{
    initWindow(params_.windowPages, params_.pagesPerInstr);
}

WarpInstr
WavefrontWorkload::next(SmId sm, WarpId warp, Rng &rng)
{
    windowTick(sm);
    std::uint64_t &diag = cursor(sm, warp);
    WarpInstr instr;
    instr.computeGap = computeGap;
    instr.activeLanes = 32;
    // Anti-diagonal band: lanes spread evenly across the sliding band of
    // matrix rows (lane i owns one row of the diagonal).
    std::uint64_t lane_pitch =
        (params_.windowPages * kWindowPageBytes) / 32;
    VirtAddr band = windowAddr(sm, rng, params_.elemBytes);
    StridedOffsets offsets(band - kHeapBase + diag % lane_pitch, lane_pitch,
                           footprint);
    for (std::uint32_t lane = 0; lane < 32; ++lane)
        instr.addrs[lane] = kHeapBase + offsets.next();
    diag = reduce(diag + params_.elemBytes * 32, footprint);
    return instr;
}

// --------------------------------------------------------------------------

HistogramWorkload::HistogramWorkload(std::string name,
                                     std::uint64_t footprint_bytes,
                                     std::uint32_t compute_gap,
                                     std::uint64_t table_bytes)
    : SyntheticWorkload(std::move(name), footprint_bytes,
                        /*irregular=*/false, compute_gap),
      tableBytes(table_bytes)
{
}

WarpInstr
HistogramWorkload::next(SmId sm, WarpId warp, Rng &rng)
{
    (void)warp;
    std::uint64_t &pos = sharedCursor(sm);
    WarpInstr instr;
    instr.computeGap = computeGap;
    instr.activeLanes = 32;
    bool table_phase = (pos / 128) % 2 == 1;
    if (table_phase) {
        // Scattered bin updates into the small, TLB-resident table.
        instr.write = true;
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
            std::uint64_t off = rng.range(tableBytes / 4) * 4;
            instr.addrs[lane] = kHeapBase + off;
        }
    } else {
        StridedOffsets offsets(pos, 4, footprint);
        for (std::uint32_t lane = 0; lane < 32; ++lane)
            instr.addrs[lane] = kHeapBase + tableBytes + offsets.next();
    }
    pos = reduce(pos + 32 * 4, footprint);
    return instr;
}

// --------------------------------------------------------------------------

PointerChaseWorkload::PointerChaseWorkload(std::uint64_t footprint_bytes,
                                           std::uint32_t compute_gap)
    : SyntheticWorkload("ptrchase", footprint_bytes, /*irregular=*/true,
                        compute_gap)
{
}

WarpInstr
PointerChaseWorkload::next(SmId, WarpId, Rng &rng)
{
    WarpInstr instr;
    instr.computeGap = computeGap;
    instr.activeLanes = 1;   // one active thread per warp (Fig 4 setup)
    instr.addrs[0] = randomAddr(rng, 128);
    return instr;
}

} // namespace sw
