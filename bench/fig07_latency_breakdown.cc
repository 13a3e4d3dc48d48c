/**
 * @file
 * Figure 7 — Breakdown of page-table walk latency (queueing vs access)
 * as the number of PTWs grows.
 *
 * Paper claim (§3.2): with 32 PTWs, queueing delay is ~95% of the total
 * walk latency for irregular applications.
 *
 * The phase attribution comes from the structured event log (src/obs):
 * every completed walk is an NDJSON record carrying its queue_delay
 * (creation -> walker pickup) and access_latency (pickup -> fill), so the
 * breakdown is exact even when walks overlap.  The log's measured-region
 * walk count and means must equal the engine's own counters in the
 * RunResult exactly, or the harness exits non-zero.  The lifecycle tracer
 * supplies the PT-reads-per-walk column.
 */

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "bench_common.hh"
#include "obs/event_log.hh"
#include "obs/trace.hh"

using namespace swbench;

namespace {

/** Extract the integer following `"key":` in a flat NDJSON record. */
std::uint64_t
jsonField(const std::string &line, const char *key)
{
    std::string needle = std::string("\"") + key + "\":";
    std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        fatal("event record lacks '%s': %s", key, line.c_str());
    return std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
}

/** Walk-phase means recovered from the measured region of an event log. */
struct LogPhases
{
    double queue = 0.0;
    double access = 0.0;
    double total = 0.0;
    std::uint64_t walks = 0;
};

LogPhases
phasesFromLog(const EventLog &events)
{
    std::ostringstream buf;
    events.write(buf);
    std::istringstream in(buf.str());

    // Consumers of the measured region skip past the last reset marker
    // (stats are zeroed at warmup end; the log keeps everything).
    std::vector<std::string> lines;
    std::size_t last_reset = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"type\":\"reset\"") != std::string::npos)
            last_reset = lines.size() + 1;
        lines.push_back(line);
    }

    LogPhases ph;
    double sum_queue = 0.0, sum_access = 0.0;
    for (std::size_t i = last_reset; i < lines.size(); ++i) {
        if (lines[i].find("\"type\":\"walk\"") == std::string::npos)
            continue;
        sum_queue += double(jsonField(lines[i], "queue_delay"));
        sum_access += double(jsonField(lines[i], "access_latency"));
        ++ph.walks;
    }
    if (ph.walks) {
        ph.queue = sum_queue / double(ph.walks);
        ph.access = sum_access / double(ph.walks);
        ph.total = ph.queue + ph.access;
    }
    return ph;
}

} // namespace

SW_FIGURE(fig07_latency_breakdown)
{
    banner("Figure 7", "walk-latency breakdown vs number of PTWs");

    const std::vector<std::uint32_t> ptws = {32, 128, 512};
    auto suite = irregularSuite();

    // Each job owns its observers (observability bundles are single-run
    // instruments) and deposits into its own slot, so any number of jobs
    // may run concurrently.
    struct Slot
    {
        LogPhases log;
        RunResult result;
        double ptReads = 0.0;
    };
    std::vector<Slot> slots(suite.size() * ptws.size());

    SweepRunner runner;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const BenchmarkInfo *info = suite[i];
        for (std::size_t p = 0; p < ptws.size(); ++p) {
            std::uint32_t n = ptws[p];
            GpuConfig cfg = baselineCfg();
            scalePtwSubsystem(cfg, n);
            std::size_t slot = i * ptws.size() + p;
            runner.submit(
                strprintf("  [%u ptws] %s...", n, info->abbr.c_str()),
                [cfg, info, slot, &slots]() {
                    TranslationTracer tracer;
                    EventLog events;
                    Observability obs;
                    obs.tracer = &tracer;
                    obs.events = &events;
                    RunSpec spec;
                    spec.cfg = cfg;
                    spec.benchmark = info;
                    spec.limits = limitsFor(*info);
                    spec.obs = &obs;
                    RunResult result = run(std::move(spec));
                    slots[slot] = {phasesFromLog(events), result,
                                   tracer.ptReadsPerWalk().mean()};
                    return result;
                });
        }
    }
    runner.run();

    // The event log must reproduce the engine's walk counters exactly.
    int violations = 0;
    auto check = [&violations](const char *what, const char *bench,
                               std::uint32_t n, double log_value,
                               double engine_value) {
        if (log_value != engine_value) {
            ++violations;
            std::fprintf(stderr,
                         "VALIDATION FAILURE [%s, %u ptws] %s: event log "
                         "%.6f vs engine %.6f\n",
                         bench, n, what, log_value, engine_value);
        }
    };

    TextTable table({"bench", "PTWs", "queue(cy)", "access(cy)",
                     "total(cy)", "queue%", "PT reads/walk"});
    std::vector<double> queue_shares_at_32;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        for (std::size_t p = 0; p < ptws.size(); ++p) {
            const Slot &s = slots[i * ptws.size() + p];
            const char *bench = suite[i]->abbr.c_str();
            check("walks", bench, ptws[p], double(s.log.walks),
                  double(s.result.walks));
            check("queue", bench, ptws[p], s.log.queue,
                  s.result.avgWalkQueueDelay);
            check("access", bench, ptws[p], s.log.access,
                  s.result.avgWalkAccessLatency);
            double share =
                s.log.total > 0 ? s.log.queue / s.log.total : 0.0;
            if (ptws[p] == 32)
                queue_shares_at_32.push_back(share);
            table.addRow({suite[i]->abbr, strprintf("%u", ptws[p]),
                          TextTable::num(s.log.queue, 0),
                          TextTable::num(s.log.access, 0),
                          TextTable::num(s.log.total, 0),
                          TextTable::num(100.0 * share, 1),
                          TextTable::num(s.ptReads, 2)});
        }
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("average queue share at 32 PTWs: %.1f%%\n",
                100.0 * mean(queue_shares_at_32));
    std::printf("event-log-vs-engine validation: %s (%d violations)\n",
                violations == 0 ? "PASS" : "FAIL", violations);
    std::printf("\npaper: queueing delay is ~95%% of walk latency for "
                "irregular apps at 32 PTWs\n");
    return violations == 0 ? 0 : 1;
}
