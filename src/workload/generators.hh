/**
 * @file
 * Synthetic workload generators.
 *
 * Each class reproduces the page-level access pattern of one family from
 * the paper's Table 4 suite (Rodinia, GraphBIG, SHOC, Polybench, XSBench,
 * CUDA samples).  The CUDA binaries themselves are proprietary-trace
 * territory for a simulator; what address translation cares about is the
 * footprint, the per-warp page divergence, and the reuse pattern — which
 * these generators parameterise directly (see DESIGN.md, substitutions).
 */

#ifndef SW_WORKLOAD_GENERATORS_HH
#define SW_WORKLOAD_GENERATORS_HH

#include <cstdint>
#include <string>
#include <unordered_map>

#include "workload/workload.hh"

namespace sw {

/** Virtual base of all synthetic generators: footprint + naming. */
class SyntheticWorkload : public Workload
{
  public:
    /** Page size irregular-locality windows are denominated in. */
    static constexpr std::uint64_t kWindowPageBytes = 64 * 1024;

    /** Warp cursors start on partitions of this many bytes. */
    static constexpr std::uint64_t kCursorBytes = 256;

    /** Base virtual address of the data segment. */
    static constexpr VirtAddr kHeapBase = 1ull << 34;

    SyntheticWorkload(std::string name, std::uint64_t footprint_bytes,
                      bool irregular, std::uint32_t compute_gap);

    std::uint64_t footprintBytes() const override { return footprint; }
    std::string name() const override { return name_; }
    bool irregular() const override { return irregular_; }

    void saveState(CkptWriter &w) const override;
    void restoreState(CkptReader &r) override;

  protected:
    /** Uniform random element-aligned address within the footprint. */
    VirtAddr randomAddr(Rng &rng, std::uint64_t align = 8) const;

    /** Persistent per-(sm,warp) cursor, lazily seeded from a hash. */
    std::uint64_t &cursor(SmId sm, WarpId warp);

    /**
     * Per-SM shared stream cursor: warps of one SM interleave over the
     * same array region (consecutive thread blocks process consecutive
     * chunks), so an SM's streams occupy only a page or two of its L1 TLB.
     */
    std::uint64_t &sharedCursor(SmId sm) { return cursor(sm, 0xFFFFFFu); }

    // ---- Sliding hot-window machinery ----------------------------------
    //
    // Irregular GPU kernels (graph frontiers, sparse row blocks, grid
    // lookups) gather within a working set that fits the per-SM L1 TLB but
    // slides through a footprint far beyond the shared L2 TLB — which is
    // why the paper sees ~2.4% L2 TLB hit rates (§4.5): by the time a page
    // leaves the window it has also left the L2 TLB.  The window slide
    // rate, in 64 KB pages per SM instruction, directly sets the L2 TLB
    // MPKI each Table 4 entry publishes.

    /**
     * @param window_pages working-set size in 64 KB pages (L1-TLB scale)
     * @param pages_per_instr slide rate; ~= L2 TLB misses per warp instr
     */
    void initWindow(std::uint64_t window_pages, double pages_per_instr);

    /** Advance the SM's window clock; call once per next(). */
    void windowTick(SmId sm);

    /** Random address inside the SM's current hot window. */
    VirtAddr windowAddr(SmId sm, Rng &rng, std::uint64_t align = 8);

  public:
    /**
     * Scatter the window's 64 KB slots @p spacing_bytes apart instead of
     * keeping them contiguous.  At the 64 KB base page size contiguity is
     * irrelevant to translation (same page count either way); real
     * irregular working sets are scattered objects, though, so large-page
     * (2 MB) experiments must spread the slots or a single huge page
     * swallows the whole window.  The harness enables this for 2 MB runs.
     */
    void
    setWindowSpread(std::uint64_t spacing_bytes)
    {
        windowSpreadBytes = spacing_bytes;
    }

  protected:

    std::string name_;
    std::uint64_t footprint;
    bool irregular_;
    std::uint32_t computeGap;

  private:
    std::unordered_map<std::uint64_t, std::uint64_t> cursors;
    std::unordered_map<SmId, std::uint64_t> windowClock;
    std::uint64_t windowBytes = 0;
    double windowAdvanceBytes = 0.0;
    std::uint64_t windowSpreadBytes = 0;   ///< 0: contiguous slots
};

/**
 * Coalesced streaming (2dconv, reduction, scan, gemm, fft, stencil2d):
 * every lane reads consecutive elements, so a warp instruction touches one
 * page (or a handful for multi-stream stencils).
 */
class StreamingWorkload : public SyntheticWorkload
{
  public:
    struct Params
    {
        std::uint32_t elemBytes = 4;
        /** Extra jump between warp instructions (strided FFT phases). */
        std::uint64_t strideBytes = 0;
        /** Concurrent row streams (3 for a 2D stencil's row triple). */
        std::uint32_t numStreams = 1;
        /** Distance between streams (the stencil's row pitch). */
        std::uint64_t streamPitchBytes = 1ull << 20;
    };

    StreamingWorkload(std::string name, std::uint64_t footprint_bytes,
                      bool irregular, std::uint32_t compute_gap,
                      Params params);

    WarpInstr next(SmId sm, WarpId warp, Rng &rng) override;

  private:
    Params params_;
};

/**
 * GUPS-style random updates: scattered writes, partially covered by a
 * TLB-resident hot region (the update table's dense head).
 */
class RandomAccessWorkload : public SyntheticWorkload
{
  public:
    /**
     * @param cold_fraction per-lane probability of a fully uniform access;
     *        the rest land in a static TLB-resident hot region.
     */
    RandomAccessWorkload(std::string name, std::uint64_t footprint_bytes,
                         std::uint32_t compute_gap,
                         double cold_fraction = 1.0);

    WarpInstr next(SmId sm, WarpId warp, Rng &rng) override;

  private:
    double coldFraction;
};

/**
 * Graph analytics (bc, dc, sssp, gc, bfs, cc, kcore): sequential frontier
 * and offset-array reads mixed with divergent power-law neighbour gathers.
 * gatherFraction near zero gives the "regular" graph kernels (cc, kcore).
 */
class GraphWorkload : public SyntheticWorkload
{
  public:
    struct Params
    {
        double gatherFraction = 0.5;  ///< per-lane probability of a gather
        std::uint64_t windowPages = 24;  ///< frontier working set (L1 scale)
        double pagesPerInstr = 0.5;   ///< window slide rate (sets MPKI)
        double coldFraction = 0.0;    ///< gathers that escape the window
        /**
         * Distinct gather targets per warp instruction: CSR adjacency
         * lists are contiguous runs, so lanes cluster onto a few bases
         * rather than 32 independent cachelines.
         */
        std::uint32_t gatherBases = 8;
        std::uint32_t elemBytes = 8;
    };

    GraphWorkload(std::string name, std::uint64_t footprint_bytes,
                  bool irregular, std::uint32_t compute_gap, Params params);

    WarpInstr next(SmId sm, WarpId warp, Rng &rng) override;

  private:
    Params params_;
};

/**
 * Sparse linear algebra (spmv, gesummv, syr2k): dense row streaming plus
 * column-index gathers.  setStridePages > 0 clusters the gathers on a few
 * L2 TLB sets (reproducing spmv's per-set In-TLB MSHR saturation, §6.3).
 */
class SparseWorkload : public SyntheticWorkload
{
  public:
    struct Params
    {
        double gatherFraction = 0.75;
        std::uint64_t windowPages = 32;  ///< row-block working set
        double pagesPerInstr = 1.0;      ///< slide rate (sets MPKI)
        double coldFraction = 0.0;       ///< column gathers past the window
        std::uint32_t gatherBases = 8;   ///< distinct gather runs per instr
        /** 0: windowed gathers; N: gather pages strided N pages apart
         *  (clustering them on a few L2 TLB sets — the spmv anomaly). */
        std::uint64_t setStridePages = 0;
        std::uint64_t pageBytesHint = 64 * 1024;
        std::uint32_t elemBytes = 8;
    };

    SparseWorkload(std::string name, std::uint64_t footprint_bytes,
                   std::uint32_t compute_gap, Params params);

    WarpInstr next(SmId sm, WarpId warp, Rng &rng) override;

  private:
    Params params_;
};

/**
 * XSBench-style energy-grid probes: divergent lookups within a sliding
 * band of the unionised grid.
 */
class HashProbeWorkload : public SyntheticWorkload
{
  public:
    HashProbeWorkload(std::string name, std::uint64_t footprint_bytes,
                      std::uint32_t compute_gap,
                      double sequential_fraction = 0.1,
                      std::uint64_t window_pages = 64,
                      double pages_per_instr = 1.85);

    WarpInstr next(SmId sm, WarpId warp, Rng &rng) override;

  private:
    double seqFraction;
};

/**
 * Needleman-Wunsch anti-diagonal wavefront: lanes walk one matrix
 * anti-diagonal, so consecutive lanes sit a full row pitch apart and land
 * on distinct pages.
 */
class WavefrontWorkload : public SyntheticWorkload
{
  public:
    struct Params
    {
        std::uint64_t windowPages = 32;  ///< anti-diagonal band
        double pagesPerInstr = 1.42;     ///< band advance rate (sets MPKI)
        std::uint32_t elemBytes = 4;
    };

    WavefrontWorkload(std::string name, std::uint64_t footprint_bytes,
                      std::uint32_t compute_gap, Params params);

    WarpInstr next(SmId sm, WarpId warp, Rng &rng) override;

  private:
    Params params_;
};

/**
 * Histogram: streaming input reads alternating with scattered updates to a
 * small bin table that stays TLB-resident — high locality despite the
 * random writes.
 */
class HistogramWorkload : public SyntheticWorkload
{
  public:
    HistogramWorkload(std::string name, std::uint64_t footprint_bytes,
                      std::uint32_t compute_gap,
                      std::uint64_t table_bytes = 1ull << 20);

    WarpInstr next(SmId sm, WarpId warp, Rng &rng) override;

  private:
    std::uint64_t tableBytes;
};

/**
 * Fig 4 microbenchmark: every warp has one active thread chasing distinct
 * pages and cache lines, generating one concurrent page walk per warp.
 */
class PointerChaseWorkload : public SyntheticWorkload
{
  public:
    PointerChaseWorkload(std::uint64_t footprint_bytes,
                         std::uint32_t compute_gap = 4);

    WarpInstr next(SmId sm, WarpId warp, Rng &rng) override;
};

} // namespace sw

#endif // SW_WORKLOAD_GENERATORS_HH
