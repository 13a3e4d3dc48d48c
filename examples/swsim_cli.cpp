/**
 * @file
 * swsim — command-line driver for one-off simulations.
 *
 * Runs a single (benchmark, configuration) pair — or replays a recorded
 * `.swtrace` page-access trace — and dumps the full statistics picture.
 * Useful for poking at a config without writing a harness.
 *
 * Options are declared once in a table (name, argument spec, doc string,
 * setter); the parser, the generated `--help` text, and unknown-flag
 * rejection all derive from that single declaration.  Options apply in
 * command-line order, so e.g. `--intlb 64 --mode sw` seeds the SoftWalker
 * config with the earlier In-TLB capacity, exactly as documented.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "harness/corun.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "harness/sampled.hh"
#include "obs/cycle_ledger.hh"
#include "obs/event_log.hh"
#include "obs/export.hh"
#include "obs/sampler.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"
#include "prof/hostprof.hh"
#include "prof/run_manifest.hh"
#include "sim/logging.hh"
#include "trace/trace_convert.hh"
#include "trace/trace_format.hh"
#include "trace/trace_workload.hh"

using namespace sw;

namespace {

/**
 * One command-line option.  `args` is the space-separated metavariable
 * spec shown in --help ("" for a bare flag, "<n>" for one value,
 * "<in> <out>" for two); its word count is the option's arity.
 */
struct CliOption
{
    const char *name;
    const char *args;
    const char *doc;
    std::function<void(const std::vector<std::string> &)> set;

    int
    arity() const
    {
        int words = 0;
        for (const char *c = args; *c; ++c)
            if (*c == '<')
                ++words;
        return words;
    }
};

/** Parse errors: complain on stderr and exit 2 (matching historic usage). */
[[noreturn]] void
cliError(const std::string &message)
{
    std::fprintf(stderr, "swsim_cli: %s (try --help)\n", message.c_str());
    std::exit(2);
}

/** A decimal count: digits only (no sign), within 64 bits. */
std::uint64_t
parseUint(const std::string &value, const char *flag)
{
    // strtoull would skip whitespace and negate a leading '-'.
    if (value.empty() || value[0] < '0' || value[0] > '9')
        cliError(strprintf("%s expects a number, got '%s'", flag,
                           value.c_str()));
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (*end != '\0')
        cliError(strprintf("%s expects a number, got '%s'", flag,
                           value.c_str()));
    if (errno == ERANGE)
        cliError(strprintf("%s value '%s' is out of range", flag,
                           value.c_str()));
    return parsed;
}

/** parseUint() for 32-bit settings. */
std::uint32_t
parseUint32(const std::string &value, const char *flag)
{
    std::uint64_t parsed = parseUint(value, flag);
    if (parsed > UINT32_MAX)
        cliError(strprintf("%s value '%s' is out of range (max %u)", flag,
                           value.c_str(), unsigned(UINT32_MAX)));
    return std::uint32_t(parsed);
}

double
parseFloat(const std::string &value, const char *flag)
{
    char *end = nullptr;
    double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        cliError(strprintf("%s expects a number, got '%s'", flag,
                           value.c_str()));
    return parsed;
}

/** Everything the option setters write into. */
struct Options
{
    std::string bench = "bfs";
    bool benchSet = false;
    GpuConfig cfg = makeDefaultConfig();
    Gpu::RunLimits limits = defaultLimits();
    bool explicitLimits = false;
    double scale = 1.0;
    std::string metricsOut, traceOut, samplesOut, profileOut;
    std::string eventsOut, promOut, ledgerOut;
    Cycle sampleInterval = Observability{}.sampleInterval;
    std::string recordPath, replayPath, fingerprintOut;
    TraceEndPolicy replayEnd = TraceEndPolicy::Drain;
    std::string convertIn, convertOut;
    std::uint64_t ffwdInstrs = 0;
    std::uint64_t checkpointAt = 0;
    std::string checkpointOut, checkpointIn;
    std::string phaseSampleOut;
    SamplingOptions sampling;
    std::vector<std::string> corunBenches;
    bool corunNoSolo = false;
    bool help = false;
};

/** Split "bfs,gemm" into its comma-separated parts. */
std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        parts.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return parts;
}

std::vector<CliOption>
optionTable(Options &opt)
{
    // Setters receive exactly arity() strings.  Mutating shared state in
    // table order is what preserves the order-dependent --mode semantics.
    return {
        {"--help", "", "print this help and exit",
         [&](const std::vector<std::string> &) { opt.help = true; }},
        {"--bench", "<abbr>", "Table 4 benchmark (default bfs)",
         [&](const std::vector<std::string> &a) {
             opt.bench = a[0];
             opt.benchSet = true;
         }},
        {"--mode", "<m>", "hw | sw | hybrid | ideal (default hw)",
         [&](const std::vector<std::string> &a) {
             if (a[0] == "hw") {
                 opt.cfg.mode = TranslationMode::HardwarePtw;
             } else if (a[0] == "sw") {
                 std::uint32_t intlb = opt.cfg.inTlbMshrMax;
                 opt.cfg = makeSoftWalkerConfig();
                 if (intlb)
                     opt.cfg.inTlbMshrMax = intlb;
             } else if (a[0] == "hybrid") {
                 opt.cfg = makeSoftWalkerConfig(TranslationMode::Hybrid);
             } else if (a[0] == "ideal") {
                 opt.cfg.mode = TranslationMode::Ideal;
             } else {
                 cliError("--mode expects hw|sw|hybrid|ideal, got '" +
                          a[0] + "'");
             }
         }},
        {"--ptws", "<n>", "hardware walker count (scales MSHRs/PWB)",
         [&](const std::vector<std::string> &a) {
             std::uint32_t ptws = parseUint32(a[0], "--ptws");
             if (ptws == 0)
                 cliError("--ptws expects at least one walker, got '" +
                          a[0] + "'");
             scalePtwSubsystem(opt.cfg, ptws);
         }},
        {"--intlb", "<n>", "In-TLB MSHR capacity",
         [&](const std::vector<std::string> &a) {
             opt.cfg.inTlbMshrMax = parseUint32(a[0], "--intlb");
         }},
        {"--page", "<64k|2m>", "page size",
         [&](const std::vector<std::string> &a) {
             opt.cfg.pageBytes = (a[0] == "2m") ? 2ull * 1024 * 1024
                                                : 64ull * 1024;
         }},
        {"--pt", "<radix|hashed>", "page-table organisation",
         [&](const std::vector<std::string> &a) {
             opt.cfg.pageTableKind = (a[0] == "hashed")
                 ? PageTableKind::Hashed : PageTableKind::Radix4;
         }},
        {"--nha", "", "enable NHA page-walk coalescing",
         [&](const std::vector<std::string> &) {
             opt.cfg.nhaCoalescing = true;
         }},
        {"--quota", "<n>", "measured warp instructions",
         [&](const std::vector<std::string> &a) {
             opt.limits.warpInstrQuota = parseUint(a[0], "--quota");
             opt.explicitLimits = true;
         }},
        {"--warmup", "<n>", "warmup warp instructions",
         [&](const std::vector<std::string> &a) {
             opt.limits.warmupInstrs = parseUint(a[0], "--warmup");
             opt.explicitLimits = true;
         }},
        {"--scale", "<f>", "footprint scale factor",
         [&](const std::vector<std::string> &a) {
             opt.scale = parseFloat(a[0], "--scale");
             if (!std::isfinite(opt.scale) || opt.scale <= 0.0)
                 cliError("--scale expects a positive number, got '" + a[0] +
                          "'");
         }},
        {"--policy", "<rr|rand|stall>", "distributor policy",
         [&](const std::vector<std::string> &a) {
             opt.cfg.distributorPolicy =
                 a[0] == "rand" ? DistributorPolicy::Random
                 : a[0] == "stall" ? DistributorPolicy::StallAware
                                   : DistributorPolicy::RoundRobin;
         }},
        {"--corun", "<a,b,...>",
         "co-run one benchmark per tenant; prints slowdown/STP/fairness",
         [&](const std::vector<std::string> &a) {
             opt.corunBenches = splitCommas(a[0]);
         }},
        {"--no-solo", "",
         "skip the per-tenant solo baselines of a --corun",
         [&](const std::vector<std::string> &) {
             opt.corunNoSolo = true;
         }},
        {"--mig", "",
         "MIG partitioning: per-tenant SM slices and L2 TLB way slices",
         [&](const std::vector<std::string> &) {
             opt.cfg.migPartitioning = true;
         }},
        {"--pw-arb", "<demand|rr>",
         "PW-Warp dispatch arbitration across tenants (default demand)",
         [&](const std::vector<std::string> &a) {
             if (a[0] == "demand")
                 opt.cfg.pwArbitration = PwArbitration::Demand;
             else if (a[0] == "rr")
                 opt.cfg.pwArbitration = PwArbitration::TenantRoundRobin;
             else
                 cliError("--pw-arb expects demand|rr, got '" + a[0] + "'");
         }},
        {"--subtlb", "<k>",
         "sub-entry L2 TLB: k pages per tag (1 = conventional)",
         [&](const std::vector<std::string> &a) {
             opt.cfg.l2SubEntries = parseUint32(a[0], "--subtlb");
         }},
        {"--subtlb-share", "",
         "let co-resident tenants share sub-entry TLB tags",
         [&](const std::vector<std::string> &) {
             opt.cfg.l2SubEntrySharing = true;
         }},
        {"--record", "<file>",
         "record the page-access stream to a .swtrace file",
         [&](const std::vector<std::string> &a) {
             opt.recordPath = a[0];
         }},
        {"--replay", "<file>",
         "replay a .swtrace instead of running a benchmark",
         [&](const std::vector<std::string> &a) {
             opt.replayPath = a[0];
         }},
        {"--replay-end", "<drain|loop>",
         "what an exhausted trace stream does (default drain)",
         [&](const std::vector<std::string> &a) {
             if (a[0] == "drain")
                 opt.replayEnd = TraceEndPolicy::Drain;
             else if (a[0] == "loop")
                 opt.replayEnd = TraceEndPolicy::Loop;
             else
                 cliError("--replay-end expects drain|loop, got '" + a[0] +
                          "'");
         }},
        {"--ffwd", "<n>",
         "functionally fast-forward n warp instructions before the run",
         [&](const std::vector<std::string> &a) {
             opt.ffwdInstrs = parseUint(a[0], "--ffwd");
         }},
        {"--checkpoint-at", "<n>",
         "save a checkpoint at n fetched instructions, then continue",
         [&](const std::vector<std::string> &a) {
             opt.checkpointAt = parseUint(a[0], "--checkpoint-at");
         }},
        {"--checkpoint-out", "<file>",
         "checkpoint path written by --checkpoint-at",
         [&](const std::vector<std::string> &a) {
             opt.checkpointOut = a[0];
         }},
        {"--checkpoint-in", "<file>",
         "resume from a checkpoint (same config and workload source)",
         [&](const std::vector<std::string> &a) {
             opt.checkpointIn = a[0];
         }},
        {"--phase-sample", "<file>",
         "phase-sample a --replay run; write the sampled JSON here",
         [&](const std::vector<std::string> &a) {
             opt.phaseSampleOut = a[0];
         }},
        {"--phase-window", "<n>",
         "phase-sampling window in warp instructions (default 2000)",
         [&](const std::vector<std::string> &a) {
             opt.sampling.windowInstrs = parseUint(a[0], "--phase-window");
             if (opt.sampling.windowInstrs == 0)
                 cliError("--phase-window expects at least one instruction, "
                          "got '" + a[0] + "'");
         }},
        {"--phase-clusters", "<k>",
         "phase clusters / representative windows (default 4)",
         [&](const std::vector<std::string> &a) {
             opt.sampling.numClusters =
                 parseUint32(a[0], "--phase-clusters");
             if (opt.sampling.numClusters == 0)
                 cliError("--phase-clusters expects at least one cluster, "
                          "got '" + a[0] + "'");
         }},
        {"--phase-warmup", "<n>",
         "timed-but-unmeasured instructions before each window (default 1000)",
         [&](const std::vector<std::string> &a) {
             opt.sampling.windowWarmupInstrs =
                 parseUint(a[0], "--phase-warmup");
         }},
        {"--phase-skip", "<n>",
         "leading instructions excluded from sampling (cold-start region)",
         [&](const std::vector<std::string> &a) {
             opt.sampling.skipInstrs = parseUint(a[0], "--phase-skip");
         }},
        {"--phase-time-weight", "<w>",
         "temporal feature weight; high values stratify in time (default 0.5)",
         [&](const std::vector<std::string> &a) {
             double weight = parseFloat(a[0], "--phase-time-weight");
             if (!std::isfinite(weight) || weight < 0.0)
                 cliError("--phase-time-weight expects a non-negative "
                          "number, got '" + a[0] + "'");
             opt.sampling.timeFeatureWeight = weight;
         }},
        {"--trace-convert", "<in.txt> <out.swtrace>",
         "convert a text trace to binary and exit",
         [&](const std::vector<std::string> &a) {
             opt.convertIn = a[0];
             opt.convertOut = a[1];
         }},
        {"--fingerprint-out", "<file>",
         "write the exact result fingerprint (for replay checks)",
         [&](const std::vector<std::string> &a) {
             opt.fingerprintOut = a[0];
         }},
        {"--metrics-out", "<file>",
         "dump the full stat registry as JSON",
         [&](const std::vector<std::string> &a) {
             opt.metricsOut = a[0];
         }},
        {"--trace-out", "<file>",
         "dump translation lifecycle trace (Chrome JSON)",
         [&](const std::vector<std::string> &a) {
             opt.traceOut = a[0];
         }},
        {"--samples-out", "<file>",
         "dump periodic gauge samples as CSV",
         [&](const std::vector<std::string> &a) {
             opt.samplesOut = a[0];
         }},
        {"--sample-interval", "<n>",
         "sampling interval in cycles (default 10000)",
         [&](const std::vector<std::string> &a) {
             opt.sampleInterval = parseUint(a[0], "--sample-interval");
             if (opt.sampleInterval == 0)
                 cliError("--sample-interval expects at least one cycle, "
                          "got '" + a[0] + "'");
         }},
        {"--ledger-out", "<file>",
         "dump the top-down cycle ledger as JSON (softwalker.ledger/1)",
         [&](const std::vector<std::string> &a) {
             opt.ledgerOut = a[0];
         }},
        {"--events-out", "<file>",
         "dump the structured event log as NDJSON (softwalker.events/1)",
         [&](const std::vector<std::string> &a) {
             opt.eventsOut = a[0];
         }},
        {"--prom-out", "<file>",
         "dump a Prometheus textfile-collector metrics snapshot",
         [&](const std::vector<std::string> &a) {
             opt.promOut = a[0];
         }},
        {"--profile-out", "<file>",
         "enable the host self-profiler, dump its JSON (hostprof builds)",
         [&](const std::vector<std::string> &a) {
             opt.profileOut = a[0];
         }},
    };
}

void
printHelp(const std::vector<CliOption> &table)
{
    std::printf("usage: swsim_cli [options]\n\n"
                "Run one simulation (or replay/convert a trace) and print "
                "the full\nstatistics picture.\n\noptions:\n");
    for (const CliOption &o : table) {
        std::string left = o.name;
        if (*o.args) {
            left += ' ';
            left += o.args;
        }
        std::printf("  %-28s %s\n", left.c_str(), o.doc);
    }
}

/** Apply @p argv through @p table; @return the name of each option given. */
std::set<std::string>
parseArgs(int argc, char **argv, const std::vector<CliOption> &table)
{
    std::set<std::string> given;
    for (int i = 1; i < argc;) {
        const std::string arg = argv[i];
        const CliOption *match = nullptr;
        for (const CliOption &o : table)
            if (arg == o.name)
                match = &o;
        if (!match)
            cliError("unknown option '" + arg + "'");
        int arity = match->arity();
        if (i + arity >= argc)
            cliError(strprintf("%s expects %s", match->name, match->args));
        std::vector<std::string> values(argv + i + 1, argv + i + 1 + arity);
        match->set(values);
        given.insert(match->name);
        i += 1 + arity;
    }
    return given;
}

/**
 * Reject each option that the run path @p given selects would not read:
 * one another option excludes, or one that means nothing without another.
 */
void
checkCombinations(const std::set<std::string> &given)
{
    auto has = [&](const char *flag) { return given.count(flag) > 0; };
    // A phase-sampled run attaches no observers, writes only its sampled
    // JSON and runs the windows its plan picks, not a quota and a warmup;
    // a replay runs the recorded stream, whose footprint no --scale
    // changes; a co-run has no single stream to record, checkpoint or
    // sample, and does not arm the profiler.
    const std::pair<const char *, std::vector<const char *>> excludes[] = {
        {"--phase-sample",
         {"--metrics-out", "--prom-out", "--trace-out", "--samples-out",
          "--ledger-out", "--events-out", "--fingerprint-out",
          "--profile-out", "--replay-end", "--quota", "--warmup"}},
        {"--replay", {"--scale"}},
        {"--corun",
         {"--record", "--ffwd", "--checkpoint-at", "--checkpoint-out",
          "--checkpoint-in", "--phase-sample", "--phase-window",
          "--phase-clusters", "--phase-warmup", "--phase-skip",
          "--phase-time-weight", "--replay-end", "--profile-out"}},
    };
    for (const auto &[path, flags] : excludes) {
        for (const char *flag : flags) {
            if (has(path) && has(flag))
                cliError(strprintf("%s cannot be combined with %s", path,
                                   flag));
        }
    }
    // Options read only beside another; the tenant options need a
    // co-run, since a single run has one tenant.
    const std::pair<const char *, const char *> needs[] = {
        {"--no-solo", "--corun"},
        {"--mig", "--corun"},
        {"--pw-arb", "--corun"},
        {"--checkpoint-out", "--checkpoint-at"},
        {"--sample-interval", "--samples-out"},
        {"--replay-end", "--replay"},
        {"--phase-window", "--phase-sample"},
        {"--phase-clusters", "--phase-sample"},
        {"--phase-warmup", "--phase-sample"},
        {"--phase-skip", "--phase-sample"},
        {"--phase-time-weight", "--phase-sample"},
    };
    for (const auto &[flag, needed] : needs) {
        if (has(flag) && !has(needed))
            cliError(strprintf("%s needs %s", flag, needed));
    }
}

std::ofstream
openOut(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    Options opt;
    std::vector<CliOption> table = optionTable(opt);
    std::set<std::string> given = parseArgs(argc, argv, table);

    if (opt.help) {
        printHelp(table);
        return 0;
    }
    checkCombinations(given);

    if (!opt.convertIn.empty()) {
        if (opt.benchSet || !opt.replayPath.empty())
            cliError("--trace-convert cannot be combined with a run");
        std::size_t converted =
            convertTextTrace(opt.convertIn, opt.convertOut);
        std::fprintf(stderr, "converted %zu instructions: %s -> %s\n",
                     converted, opt.convertIn.c_str(),
                     opt.convertOut.c_str());
        return 0;
    }
    if (opt.benchSet && !opt.replayPath.empty())
        cliError("--bench and --replay are mutually exclusive");

    // Observability bundle: each sink exists only when its output file was
    // requested, so a plain run installs nothing and stays bit-identical.
    // Shared by the single-run and co-run paths (on a co-run it observes
    // the co-run machine; the per-ASID ledger rows are the per-tenant
    // stall breakdown).
    StatRegistry registry;
    TranslationTracer tracer;
    TimeSeriesSampler sampler;
    CycleLedger ledger;
    EventLog events;
    Observability obs;
    if (!opt.metricsOut.empty() || !opt.promOut.empty())
        obs.registry = &registry;
    if (!opt.traceOut.empty())
        obs.tracer = &tracer;
    if (!opt.samplesOut.empty()) {
        obs.sampler = &sampler;
        obs.sampleInterval = opt.sampleInterval;
    }
    if (!opt.ledgerOut.empty())
        obs.ledger = &ledger;
    if (!opt.eventsOut.empty()) {
        // The event log's sample records carry ledger deltas, so the
        // ledger rides along whenever events are requested.
        obs.events = &events;
        obs.ledger = &ledger;
    }

    // Observability artifact writers, shared by both paths; @p manifest
    // supplies the provenance block the JSON artifacts embed.
    auto writeObsArtifacts = [&](const RunManifest &manifest) {
        if (!opt.metricsOut.empty()) {
            std::ofstream out = openOut(opt.metricsOut);
            out << "{\n  \"schema\": \"softwalker.metrics/1\",\n"
                << "  \"manifest\": ";
            manifest.writeJson(out, 2);
            out << ",\n  \"stats\": " << registry.dumpJson() << "\n}\n";
            std::fprintf(stderr, "wrote %zu stats to %s\n",
                         registry.size(), opt.metricsOut.c_str());
        }
        if (!opt.traceOut.empty()) {
            std::ofstream out = openOut(opt.traceOut);
            tracer.writeTraceJson(out);
            std::fprintf(stderr,
                         "wrote %llu stamps / %llu walk spans to %s\n",
                         (unsigned long long)tracer.stampsRecorded(),
                         (unsigned long long)tracer.spansCompleted(),
                         opt.traceOut.c_str());
        }
        if (!opt.samplesOut.empty()) {
            std::ofstream out = openOut(opt.samplesOut);
            sampler.writeCsv(out);
            std::fprintf(stderr, "wrote %zu samples to %s\n",
                         sampler.numRows(), opt.samplesOut.c_str());
        }
        if (!opt.ledgerOut.empty()) {
            std::ofstream out = openOut(opt.ledgerOut);
            out << "{\n  \"schema\": \"softwalker.ledger/1\",\n"
                << "  \"manifest\": ";
            manifest.writeJson(out, 2);
            out << ",\n  \"ledger\": " << ledger.dumpJson() << "\n}\n";
            std::fprintf(stderr, "wrote cycle ledger to %s\n",
                         opt.ledgerOut.c_str());
        }
        if (!opt.eventsOut.empty()) {
            std::ofstream out = openOut(opt.eventsOut);
            events.write(out);
            std::fprintf(stderr, "wrote %zu event records to %s\n",
                         events.size(), opt.eventsOut.c_str());
        }
        if (!opt.promOut.empty()) {
            std::ofstream out = openOut(opt.promOut);
            writePrometheus(out, registry);
            std::fprintf(stderr, "wrote Prometheus snapshot to %s\n",
                         opt.promOut.c_str());
        }
    };

    if (!opt.corunBenches.empty()) {
        if (opt.benchSet || !opt.replayPath.empty())
            cliError("--corun cannot be combined with --bench or --replay");
        if (opt.corunBenches.size() < 2)
            cliError("--corun needs at least two comma-separated tenants");
        CoRunSpec spec;
        spec.cfg = opt.cfg;
        spec.soloBaselines = !opt.corunNoSolo;
        if (obs.any())
            spec.obs = &obs;
        for (const std::string &bench : opt.corunBenches) {
            findBenchmark(bench);   // reject unknown names before running
            spec.tenants.push_back({bench, opt.scale});
        }
        if (opt.explicitLimits)
            spec.limits = opt.limits;
        std::fprintf(stderr, "co-running %zu tenants (mode=%s, mig=%s, "
                     "arb=%s)...\n", spec.tenants.size(),
                     toString(opt.cfg.mode),
                     opt.cfg.migPartitioning ? "on" : "off",
                     opt.cfg.pwArbitration == PwArbitration::TenantRoundRobin
                         ? "rr" : "demand");
        CoRunResult result = runCoRun(spec);
        std::printf("co-run cycles        %llu\n",
                    (unsigned long long)result.cycles);
        for (const TenantOutcome &t : result.tenants) {
            std::printf("tenant %u             %s: %.5f warp-instr/cycle, "
                        "walkQ %.1f cy", t.asid, t.workload.c_str(), t.perf,
                        t.walkQueueDelay);
            if (spec.soloBaselines)
                std::printf(", slowdown %.3fx (solo walkQ %.1f cy)",
                            t.slowdown, t.soloWalkQueueDelay);
            std::printf("\n");
        }
        if (spec.soloBaselines) {
            std::printf("system throughput    %.4f (of %zu)\n",
                        result.systemThroughput, result.tenants.size());
            std::printf("avg slowdown         %.4fx\n", result.avgSlowdown);
            std::printf("fairness             %.4f\n", result.fairness);
        }
        if (!opt.fingerprintOut.empty()) {
            std::ofstream out = openOut(opt.fingerprintOut);
            out << corunFingerprint(result);
            std::fprintf(stderr, "wrote fingerprint to %s\n",
                         opt.fingerprintOut.c_str());
        }
        RunManifest manifest = RunManifest::collect();
        manifest.benchmark = "corun";
        for (std::size_t i = 0; i < opt.corunBenches.size(); ++i)
            manifest.benchmark += (i ? "," : ":") + opt.corunBenches[i];
        manifest.configDigest = configDigest(spec.cfg);
        {
            Gpu::RunLimits effective = spec.limits.value_or(defaultLimits());
            manifest.warpInstrQuota = effective.warpInstrQuota;
            manifest.warmupInstrs = effective.warmupInstrs;
            manifest.maxCycles = effective.maxCycles;
        }
        writeObsArtifacts(manifest);
        return 0;
    }

    RunSpec spec;
    spec.cfg = opt.cfg;
    spec.footprintScale = opt.scale;
    if (obs.any())
        spec.obs = &obs;
    if (opt.explicitLimits)
        spec.limits = opt.limits;
    spec.recordPath = opt.recordPath;
    spec.ffwdInstrs = opt.ffwdInstrs;
    spec.checkpointAtInstrs = opt.checkpointAt;
    spec.checkpointOut = opt.checkpointOut;
    spec.checkpointIn = opt.checkpointIn;

    if (!opt.phaseSampleOut.empty()) {
        if (opt.replayPath.empty())
            cliError("--phase-sample needs a --replay trace to plan over");
        spec.replayPath = opt.replayPath;
        SampledRunResult sampled =
            runSampled(std::move(spec), opt.sampling);
        {
            std::ofstream out = openOut(opt.phaseSampleOut);
            writeSampledJson(out, sampled);
        }
        const MetricEstimate &perf = sampled.metrics.at("perf");
        const MetricEstimate &mpki = sampled.metrics.at("l2_tlb_mpki");
        std::printf("phase-sampled        %s (mode=%s)\n",
                    sampled.combined.benchmark.c_str(),
                    toString(sampled.combined.mode));
        std::printf("windows              %llu of %llu (%u clusters)\n",
                    (unsigned long long)sampled.plan.windows.size(),
                    (unsigned long long)sampled.plan.totalWindows,
                    sampled.plan.clusters);
        std::printf("detailed instrs      %llu of %llu (ratio %.4f)\n",
                    (unsigned long long)sampled.plan.detailedInstrs(),
                    (unsigned long long)sampled.plan.totalInstrs,
                    sampled.detailRatio());
        std::printf("performance          %.5f ± %.5f warp-instr/cycle\n",
                    perf.mean, perf.spread);
        std::printf("L2 TLB MPKI          %.2f ± %.2f\n", mpki.mean,
                    mpki.spread);
        std::fprintf(stderr, "wrote sampled result to %s\n",
                     opt.phaseSampleOut.c_str());
        return 0;
    }

    const BenchmarkInfo *info = nullptr;
    if (!opt.replayPath.empty()) {
        spec.replayPath = opt.replayPath;
        spec.replayEnd = opt.replayEnd;
        std::fprintf(stderr, "replaying %s (mode=%s, end=%s)...\n",
                     opt.replayPath.c_str(), toString(opt.cfg.mode),
                     toString(opt.replayEnd));
    } else {
        info = &findBenchmark(opt.bench);
        spec.benchmark = info;
        // Limits resolution mirrors run(): explicit flags win, otherwise
        // the benchmark's defaults; shown here so the banner matches.
        std::fprintf(stderr, "running %s (%s, mode=%s, quota=%llu)...\n",
                     info->abbr.c_str(), info->fullName.c_str(),
                     toString(opt.cfg.mode),
                     (unsigned long long)(opt.explicitLimits
                         ? opt.limits : limitsFor(*info)).warpInstrQuota);
    }

    // Arm the self-profiler before setup so the Setup zone is captured;
    // in non-hostprof builds the zones are compiled out and this only
    // affects what the profile JSON reports as "enabled".
    if (!opt.profileOut.empty())
        prof::HostProfiler::instance().setEnabled(true);

    RunResult r = run(std::move(spec));

    // Provenance manifest embedded in every JSON artifact below: the
    // effective limits mirror run()'s resolution (explicit flags win,
    // else the benchmark's defaults).
    RunManifest manifest = RunManifest::collect();
    manifest.benchmark = r.benchmark;
    manifest.configDigest = configDigest(opt.cfg);
    {
        Gpu::RunLimits effective =
            opt.explicitLimits ? opt.limits
            : info             ? limitsFor(*info)
                               : defaultLimits();
        manifest.warpInstrQuota = effective.warpInstrQuota;
        manifest.warmupInstrs = effective.warmupInstrs;
        manifest.maxCycles = effective.maxCycles;
    }

    // Profile first: its wall-clock keeps ticking until the snapshot, so
    // writing the other artifacts first would show up as lost coverage.
    if (!opt.profileOut.empty()) {
        prof::HostProfiler &profiler = prof::HostProfiler::instance();
        std::ofstream out = openOut(opt.profileOut);
        profiler.writeJson(out, &manifest);
        prof::ProfileSnapshot snap = profiler.snapshot();
        std::fprintf(stderr,
                     "wrote host profile to %s (coverage %.1f%%, "
                     "%.0f events/s)\n",
                     opt.profileOut.c_str(), 100.0 * snap.coverage(),
                     snap.eventsPerSec);
    }

    if (!opt.fingerprintOut.empty()) {
        std::ofstream out = openOut(opt.fingerprintOut);
        out << fingerprint(r);
        std::fprintf(stderr, "wrote fingerprint to %s\n",
                     opt.fingerprintOut.c_str());
    }
    writeObsArtifacts(manifest);

    // A replayed trace keeps its recorded workload name; if that matches a
    // Table 4 benchmark, the paper comparison still applies.
    if (!info)
        info = findBenchmarkOrNull(r.benchmark);

    if (info) {
        std::printf("benchmark            %s (%s)\n", r.benchmark.c_str(),
                    info->irregular ? "irregular" : "regular");
    } else {
        std::printf("benchmark            %s (trace)\n",
                    r.benchmark.c_str());
    }
    std::printf("mode                 %s\n", toString(r.mode));
    std::printf("measured cycles      %llu\n",
                (unsigned long long)r.cycles);
    std::printf("warp instructions    %llu\n",
                (unsigned long long)r.warpInstrs);
    std::printf("performance          %.5f warp-instr/cycle\n", r.perf);
    std::printf("L1 TLB hit rate      %.2f%%\n",
                100.0 * double(r.l1TlbHits) /
                double(std::max<std::uint64_t>(1, r.l1TlbHits +
                                                  r.l1TlbMisses)));
    std::printf("L2 TLB accesses      %llu (hit rate %.2f%%)\n",
                (unsigned long long)r.l2TlbAccesses,
                100.0 * r.l2TlbHitRate);
    if (info) {
        std::printf("L2 TLB MPKI          %.2f (paper: %.2f)\n",
                    r.l2TlbMpki, info->paperMpki);
    } else {
        std::printf("L2 TLB MPKI          %.2f\n", r.l2TlbMpki);
    }
    std::printf("L2 TLB MSHR failures %llu\n",
                (unsigned long long)r.l2MshrFailures);
    std::printf("In-TLB MSHR allocs   %llu (peak %llu)\n",
                (unsigned long long)r.inTlbMshrAllocs,
                (unsigned long long)r.inTlbMshrPeak);
    std::printf("page walks           %llu\n", (unsigned long long)r.walks);
    std::printf("walk queue delay     %.1f cy\n", r.avgWalkQueueDelay);
    std::printf("walk access latency  %.1f cy\n", r.avgWalkAccessLatency);
    std::printf("translation latency  %.1f cy\n", r.avgTranslationLatency);
    std::printf("L2D miss rate        %.2f%%\n", 100.0 * r.l2dMissRate);
    std::printf("DRAM utilisation     %.2f%%\n",
                100.0 * r.dramUtilisation);
    std::printf("mem-stall fraction   %.2f%%\n",
                100.0 * r.stallFraction(opt.cfg.numSms));
    if (r.swBatches) {
        std::printf("PW warp batches      %llu (avg size %.1f)\n",
                    (unsigned long long)r.swBatches, r.swAvgBatchSize);
        std::printf("PW warp instructions %llu\n",
                    (unsigned long long)r.swInstructions);
        std::printf("to hardware/software %llu / %llu\n",
                    (unsigned long long)r.swToHardware,
                    (unsigned long long)r.swToSoftware);
    }
    std::printf("faults               %llu\n", (unsigned long long)r.faults);
    return 0;
}
