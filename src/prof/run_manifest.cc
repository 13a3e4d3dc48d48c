#include "prof/run_manifest.hh"

#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <thread>

#include "prof/hostprof.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

// Configure-time build facts; see src/prof/CMakeLists.txt.  The fallbacks
// keep the file compiling standalone (e.g. in tooling builds).
#ifndef SW_BUILD_GIT_DESCRIBE
#define SW_BUILD_GIT_DESCRIBE "unknown"
#endif
#ifndef SW_BUILD_COMPILER
#define SW_BUILD_COMPILER "unknown"
#endif
#ifndef SW_BUILD_FLAGS
#define SW_BUILD_FLAGS ""
#endif
#ifndef SW_BUILD_TYPE
#define SW_BUILD_TYPE "unknown"
#endif

#ifndef SOFTWALKER_AUDIT
#define SOFTWALKER_AUDIT 0
#endif

namespace sw {

namespace {

/** Minimal JSON string escape (quotes, backslashes, control chars). */
std::string
escape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 8);
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

RunManifest
RunManifest::collect()
{
    RunManifest manifest;
    manifest.gitDescribe = SW_BUILD_GIT_DESCRIBE;
    manifest.compiler = SW_BUILD_COMPILER;
    manifest.flags = SW_BUILD_FLAGS;
    manifest.buildType = SW_BUILD_TYPE;
    manifest.hostprofCompiled = prof::kHostProfCompiled;
    manifest.auditCompiled = SOFTWALKER_AUDIT != 0;

#if defined(__unix__) || defined(__APPLE__)
    char host[256] = "";
    if (gethostname(host, sizeof(host)) == 0) {
        host[sizeof(host) - 1] = '\0';
        manifest.hostname = host;
    }
#endif
    if (manifest.hostname.empty())
        manifest.hostname = "unknown";

    manifest.hardwareConcurrency = std::thread::hardware_concurrency();
    if (const char *env = std::getenv("SW_JOBS"); env && *env)
        manifest.swJobs = env;
    return manifest;
}

void
RunManifest::writeJson(std::ostream &out, int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    const std::string field = pad + "  ";
    char buf[128];

    out << "{\n";
    out << field << "\"schema\": \"softwalker.manifest/1\",\n";
    out << field << "\"git_describe\": \"" << escape(gitDescribe)
        << "\",\n";
    out << field << "\"compiler\": \"" << escape(compiler) << "\",\n";
    out << field << "\"flags\": \"" << escape(flags) << "\",\n";
    out << field << "\"build_type\": \"" << escape(buildType) << "\",\n";
    out << field << "\"hostprof_compiled\": "
        << (hostprofCompiled ? "true" : "false") << ",\n";
    out << field << "\"audit_compiled\": "
        << (auditCompiled ? "true" : "false") << ",\n";
    out << field << "\"hostname\": \"" << escape(hostname) << "\",\n";
    out << field << "\"hardware_concurrency\": " << hardwareConcurrency
        << ",\n";
    out << field << "\"sw_jobs\": \"" << escape(swJobs) << "\"";
    if (configDigest) {
        std::snprintf(buf, sizeof(buf), "0x%016llx",
                      static_cast<unsigned long long>(configDigest));
        out << ",\n" << field << "\"config_digest\": \"" << buf << "\"";
    }
    if (!benchmark.empty()) {
        out << ",\n" << field << "\"benchmark\": \"" << escape(benchmark)
            << "\"";
    }
    if (warpInstrQuota || warmupInstrs || maxCycles) {
        std::snprintf(
            buf, sizeof(buf),
            "\"limits\": {\"quota\": %llu, \"warmup\": %llu, "
            "\"max_cycles\": %llu}",
            static_cast<unsigned long long>(warpInstrQuota),
            static_cast<unsigned long long>(warmupInstrs),
            static_cast<unsigned long long>(maxCycles));
        out << ",\n" << field << buf;
    }
    out << "\n" << pad << "}";
}

std::string
RunManifest::toJson(int indent) const
{
    std::ostringstream out;
    writeJson(out, indent);
    return out.str();
}

} // namespace sw
