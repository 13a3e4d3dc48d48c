/**
 * @file
 * The Table 4 benchmark suite: twenty workloads with the paper's published
 * footprints, L2 TLB MPKI, and required-PTW classification, each mapped to
 * a synthetic generator (see generators.hh and DESIGN.md substitutions).
 */

#ifndef SW_WORKLOAD_BENCHMARKS_HH
#define SW_WORKLOAD_BENCHMARKS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace sw {

/** Registry entry for one Table 4 benchmark. */
struct BenchmarkInfo
{
    std::string abbr;           ///< Table 4 abbreviation (e.g. "bfs")
    std::string fullName;       ///< e.g. "breadth-first search [GraphBIG]"
    std::uint64_t footprintMb;  ///< Table 4 footprint
    double paperMpki;           ///< Table 4 L2 TLB MPKI (published)
    std::uint32_t paperRequiredPtws; ///< Table 4 "Required # PTWs"
    bool irregular;             ///< required PTWs > 32
    bool footprintScalable;     ///< in the Fig 6 / Fig 25 ten-app subset
    /** Build the generator at @p footprint_bytes. */
    std::function<std::unique_ptr<Workload>(std::uint64_t)> factory;
};

/** All twenty Table 4 benchmarks, paper order (irregular first). */
const std::vector<BenchmarkInfo> &benchmarkSuite();

/** Find by abbreviation; fatal() (listing all valid names) if unknown. */
const BenchmarkInfo &findBenchmark(const std::string &abbr);

/** Find by abbreviation; nullptr if unknown. */
const BenchmarkInfo *findBenchmarkOrNull(const std::string &abbr);

/** The twelve irregular entries. */
std::vector<const BenchmarkInfo *> irregularSuite();

/** The eight regular entries. */
std::vector<const BenchmarkInfo *> regularSuite();

/** The ten footprint-scalable entries (Fig 6 / Fig 25). */
std::vector<const BenchmarkInfo *> scalableSuite();

/**
 * Instantiate a benchmark's workload.
 * @param footprint_scale multiplies the published footprint (Fig 6 grows
 *        footprints beyond large-page L2 TLB coverage this way).
 */
std::unique_ptr<Workload> makeWorkload(const BenchmarkInfo &info,
                                       double footprint_scale = 1.0);

} // namespace sw

#endif // SW_WORKLOAD_BENCHMARKS_HH
