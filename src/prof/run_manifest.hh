/**
 * @file
 * RunManifest: provenance block embedded in every metrics / bench /
 * profile JSON artifact so numbers stay interpretable across hosts and
 * commits.  BENCH_*.json without a manifest is a number with no units:
 * the regression gate (tools/swbench) refuses to guess whether a 2x
 * delta is a code change or a laptop-vs-CI-runner change, so every
 * artifact carries the build and host it came from.
 *
 * Build facts (git describe, compiler, flags, build type, feature
 * toggles) are baked in at configure time via SW_BUILD_* definitions on
 * the sw_prof target; host facts (hostname, hardware_concurrency,
 * SW_JOBS) are read at collect() time; per-run facts (config digest,
 * benchmark, limits) are filled in by the caller when known.
 *
 * Schema ("softwalker.manifest/1") is documented in docs/PROFILING.md.
 */

#ifndef SW_PROF_RUN_MANIFEST_HH
#define SW_PROF_RUN_MANIFEST_HH

#include <cstdint>
#include <iosfwd>
#include <string>

namespace sw {

struct RunManifest
{
    // ---- Build (configure-time constants) ----------------------------
    std::string gitDescribe;    ///< `git describe --always --dirty`
    std::string compiler;       ///< id + version
    std::string flags;          ///< CXX flags incl. build-type flags
    std::string buildType;      ///< CMAKE_BUILD_TYPE
    bool hostprofCompiled = false;
    bool auditCompiled = false;

    // ---- Host (collect()-time) ---------------------------------------
    std::string hostname;
    unsigned hardwareConcurrency = 0;
    std::string swJobs;         ///< SW_JOBS env var, empty when unset

    // ---- Run (caller-provided, 0/empty when not applicable) ----------
    std::uint64_t configDigest = 0;  ///< trace_format configDigest(cfg)
    std::string benchmark;
    std::uint64_t warpInstrQuota = 0;
    std::uint64_t warmupInstrs = 0;
    std::uint64_t maxCycles = 0;

    /** Build + host facts; run facts left for the caller. */
    static RunManifest collect();

    /**
     * Write the manifest as one JSON object, indented for embedding:
     * every line after the first is prefixed with @p indent spaces.
     * No trailing newline.
     */
    void writeJson(std::ostream &out, int indent = 0) const;

    /** writeJson into a string (convenience for fprintf-style writers). */
    std::string toJson(int indent = 0) const;
};

} // namespace sw

#endif // SW_PROF_RUN_MANIFEST_HH
