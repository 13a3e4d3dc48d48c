#include "harness/sampled.hh"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "ckpt/ffwd.hh"
#include "harness/report.hh"
#include "sim/logging.hh"
#include "trace/trace_workload.hh"

namespace sw {

namespace {

/** Collects every numeric visitFields() field into a name → value map. */
class CaptureVisitor : public RunResultFieldVisitor
{
  public:
    explicit CaptureVisitor(std::map<std::string, double> &out) : out_(out)
    {
    }

    void str(const char *, const std::string &) override {}
    void u64(const char *name, std::uint64_t value) override
    {
        out_[name] = double(value);
    }
    void f64(const char *name, double value) override
    {
        out_[name] = value;
    }

  private:
    std::map<std::string, double> &out_;
};

double
weightedMean(const std::vector<RunResult> &windows,
             const SamplingPlan &plan, double RunResult::*field)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < windows.size(); ++i)
        sum += plan.windows[i].weight * windows[i].*field;
    return sum;
}

template <typename T>
std::uint64_t
extrapolated(const std::vector<RunResult> &windows,
             const SamplingPlan &plan, T RunResult::*field)
{
    double per_window = 0.0;
    for (std::size_t i = 0; i < windows.size(); ++i)
        per_window += plan.windows[i].weight * double(windows[i].*field);
    return std::uint64_t(std::llround(per_window *
                                      double(plan.totalWindows)));
}

} // namespace

SampledRunResult
runSampled(RunSpec spec, SamplingOptions opts,
           const SamplingPlan *sharedPlan)
{
    if (spec.replayPath.empty())
        fatal("phase sampling needs a replayPath workload source");
    if (!spec.recordPath.empty() || spec.ffwdInstrs > 0 ||
        spec.checkpointAtInstrs > 0 || !spec.checkpointIn.empty()) {
        fatal("phase sampling drives its own fast-forward; recording and "
              "checkpoint fields must be unset");
    }
    if (spec.obs != nullptr)
        fatal("phase sampling attaches no observers; obs must be unset");

    Gpu::RunLimits limits = spec.limits.value_or(defaultLimits());
    auto replay = std::make_unique<TraceWorkload>(spec.replayPath,
                                                  TraceEndPolicy::Drain);
    replay->checkConfig(spec.cfg);

    opts.pageBytes = spec.cfg.pageBytes;
    SampledRunResult out;
    if (sharedPlan != nullptr) {
        SW_ASSERT(!sharedPlan->windows.empty(),
                  "shared sampling plan has no windows");
        const SampleWindow &last = sharedPlan->windows.back();
        std::uint64_t total = replay->trace().totalInstrs();
        if (last.startInstr + last.instrs > total) {
            fatal("shared sampling plan overruns the trace: window ends at "
                  "%llu of %llu instrs",
                  static_cast<unsigned long long>(last.startInstr +
                                                  last.instrs),
                  static_cast<unsigned long long>(total));
        }
        out.plan = *sharedPlan;
    } else {
        out.plan = buildSamplingPlan(replay->trace(), opts);
    }

    std::string name = replay->name();
    std::vector<std::unique_ptr<Workload>> workloads;
    workloads.push_back(std::move(replay));
    std::unique_ptr<Gpu> gpu =
        buildMachine(spec.cfg, std::move(workloads), nullptr);

    // Alternate functional fast-forward (stream gaps) and detailed
    // segments (representative windows).  Fast-forward carries no timing
    // state, so each window is preceded by a timed-but-unmeasured warmup
    // carved out of its gap: the machine re-fills MSHRs, queues, and
    // outstanding walks before measurement starts (runSegment's built-in
    // warmup handles the stat reset).  maxCycles acts as a fresh cap per
    // detailed segment.
    std::uint64_t pos = 0;
    for (const SampleWindow &window : out.plan.windows) {
        SW_ASSERT(window.startInstr >= pos,
                  "sampling plan windows overlap");
        std::uint64_t gap = window.startInstr - pos;
        std::uint64_t warmup = std::min(opts.windowWarmupInstrs, gap);
        if (gap > warmup)
            fastForward(*gpu, gap - warmup, limits);
        Gpu::RunLimits segment = limits;
        segment.maxCycles = gpu->cycles() + limits.maxCycles;
        if (warmup == 0)
            gpu->resetAllStats();   // runSegment only resets after a warmup
        gpu->runSegment(warmup + window.instrs, warmup, segment);
        out.windows.push_back(collectResult(*gpu, name));
        out.detailedInstrsRun += warmup + window.instrs;
        pos = window.startInstr + window.instrs;
    }

    // Reconstruct: weighted estimate of every numeric field.
    std::vector<std::map<std::string, double>> captured(out.windows.size());
    std::vector<double> weights;
    for (std::size_t i = 0; i < out.windows.size(); ++i) {
        CaptureVisitor visitor(captured[i]);
        visitFields(out.windows[i], visitor);
        weights.push_back(out.plan.windows[i].weight);
    }
    for (const auto &entry : captured.front()) {
        std::vector<double> values;
        for (const auto &window : captured)
            values.push_back(window.at(entry.first));
        out.metrics[entry.first] = weightedEstimate(values, weights);
    }

    const std::vector<RunResult> &w = out.windows;
    const SamplingPlan &plan = out.plan;
    RunResult &c = out.combined;
    c.benchmark = name;
    c.mode = spec.cfg.mode;
    c.cycles = extrapolated(w, plan, &RunResult::cycles);
    c.warpInstrs = extrapolated(w, plan, &RunResult::warpInstrs);
    c.l1TlbHits = extrapolated(w, plan, &RunResult::l1TlbHits);
    c.l1TlbMisses = extrapolated(w, plan, &RunResult::l1TlbMisses);
    c.l2TlbAccesses = extrapolated(w, plan, &RunResult::l2TlbAccesses);
    c.l2TlbHits = extrapolated(w, plan, &RunResult::l2TlbHits);
    c.l2TlbMisses = extrapolated(w, plan, &RunResult::l2TlbMisses);
    c.l2MshrFailures = extrapolated(w, plan, &RunResult::l2MshrFailures);
    c.inTlbMshrAllocs = extrapolated(w, plan, &RunResult::inTlbMshrAllocs);
    c.inTlbMshrPeak = extrapolated(w, plan, &RunResult::inTlbMshrPeak);
    c.walks = extrapolated(w, plan, &RunResult::walks);
    c.avgWalkQueueDelay = weightedMean(w, plan,
                                       &RunResult::avgWalkQueueDelay);
    c.avgWalkAccessLatency =
        weightedMean(w, plan, &RunResult::avgWalkAccessLatency);
    c.avgWalkTotalLatency =
        weightedMean(w, plan, &RunResult::avgWalkTotalLatency);
    c.avgTranslationLatency =
        weightedMean(w, plan, &RunResult::avgTranslationLatency);
    // Ratio metrics whose numerator and denominator are both extrapolated
    // counters reconstruct as the ratio of the totals, not the weighted
    // mean of per-window ratios.  The distinction matters: perf is
    // instrs/cycles and the windows hold (nearly) equal instruction
    // counts, so the whole-run value is the *harmonic* mean of the
    // per-window rates — on a trace whose perf drifts monotonically
    // (TLB warm-up), the arithmetic mean overestimates by the full
    // spread of the drift.
    c.perf = c.cycles ? double(c.warpInstrs) / double(c.cycles) : 0.0;
    c.l2TlbMpki = c.warpInstrs
        ? 1000.0 * double(c.l2TlbMisses) /
              double(c.warpInstrs * spec.cfg.warpSize)
        : 0.0;
    c.l2TlbHitRate = c.l2TlbAccesses
        ? double(c.l2TlbHits) / double(c.l2TlbAccesses)
        : 0.0;
    c.faults = extrapolated(w, plan, &RunResult::faults);
    c.l2dMissRate = weightedMean(w, plan, &RunResult::l2dMissRate);
    c.l2dAccesses = extrapolated(w, plan, &RunResult::l2dAccesses);
    c.l2dMshrFailures = extrapolated(w, plan, &RunResult::l2dMshrFailures);
    c.dramUtilisation = weightedMean(w, plan, &RunResult::dramUtilisation);
    c.memStallCycles = extrapolated(w, plan, &RunResult::memStallCycles);
    c.issueSlotCycles = extrapolated(w, plan, &RunResult::issueSlotCycles);
    c.computeCycles = extrapolated(w, plan, &RunResult::computeCycles);
    c.pwIssueCycles = extrapolated(w, plan, &RunResult::pwIssueCycles);
    c.avgAccessLatency = weightedMean(w, plan,
                                      &RunResult::avgAccessLatency);
    c.swToHardware = extrapolated(w, plan, &RunResult::swToHardware);
    c.swToSoftware = extrapolated(w, plan, &RunResult::swToSoftware);
    c.swBatches = extrapolated(w, plan, &RunResult::swBatches);
    c.swAvgBatchSize = weightedMean(w, plan, &RunResult::swAvgBatchSize);
    c.swInstructions = extrapolated(w, plan, &RunResult::swInstructions);
    return out;
}

void
writeSampledJson(std::ostream &out, const SampledRunResult &result)
{
    char buf[256];
    out << "{\n  \"schema\": \"softwalker.sampled/1\",\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"window_instrs\": %llu,\n  \"skip_instrs\": %llu,\n"
                  "  \"total_instrs\": %llu,\n"
                  "  \"total_windows\": %llu,\n  \"clusters\": %u,\n"
                  "  \"detailed_instrs\": %llu,\n"
                  "  \"detail_ratio\": %.6f,\n",
                  static_cast<unsigned long long>(result.plan.windowInstrs),
                  static_cast<unsigned long long>(result.plan.skipInstrs),
                  static_cast<unsigned long long>(result.plan.totalInstrs),
                  static_cast<unsigned long long>(result.plan.totalWindows),
                  result.plan.clusters,
                  static_cast<unsigned long long>(
                      result.detailedInstrsRun ? result.detailedInstrsRun
                                               : result.plan.detailedInstrs()),
                  result.detailRatio());
    out << buf;
    out << "  \"windows\": [";
    for (std::size_t i = 0; i < result.plan.windows.size(); ++i) {
        const SampleWindow &window = result.plan.windows[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n    {\"index\": %llu, \"start\": %llu, "
                      "\"instrs\": %llu, \"cluster\": %u, "
                      "\"weight\": %.6f}",
                      i ? "," : "",
                      static_cast<unsigned long long>(window.index),
                      static_cast<unsigned long long>(window.startInstr),
                      static_cast<unsigned long long>(window.instrs),
                      window.cluster, window.weight);
        out << buf;
    }
    out << (result.plan.windows.empty() ? "],\n" : "\n  ],\n");
    out << "  \"estimates\": {";
    bool first = true;
    for (const auto &entry : result.metrics) {
        std::snprintf(buf, sizeof(buf),
                      "%s\n    \"%s\": {\"mean\": %.9g, \"spread\": %.9g}",
                      first ? "" : ",", entry.first.c_str(),
                      entry.second.mean, entry.second.spread);
        out << buf;
        first = false;
    }
    out << (result.metrics.empty() ? "}\n" : "\n  }\n");
    out << "}\n";
}

} // namespace sw
