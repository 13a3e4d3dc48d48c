#include "harness/report.hh"

#include <ostream>
#include <sstream>

#include "obs/stat_registry.hh"
#include "sim/logging.hh"

namespace sw {

void
visitFields(const RunResult &r, RunResultFieldVisitor &v)
{
    // Identity + progress
    v.str("benchmark", r.benchmark);
    v.str("mode", toString(r.mode));
    v.u64("cycles", r.cycles);
    v.u64("warp_instrs", r.warpInstrs);
    v.f64("perf", r.perf);

    // Translation path
    v.u64("l1_tlb_hits", r.l1TlbHits);
    v.u64("l1_tlb_misses", r.l1TlbMisses);
    v.u64("l2_tlb_accesses", r.l2TlbAccesses);
    v.u64("l2_tlb_hits", r.l2TlbHits);
    v.u64("l2_tlb_misses", r.l2TlbMisses);
    v.f64("l2_tlb_mpki", r.l2TlbMpki);
    v.f64("l2_tlb_hit_rate", r.l2TlbHitRate);
    v.u64("l2_mshr_failures", r.l2MshrFailures);
    v.u64("in_tlb_mshr_allocs", r.inTlbMshrAllocs);
    v.u64("in_tlb_mshr_peak", r.inTlbMshrPeak);
    v.u64("walks", r.walks);
    v.f64("walk_queue_delay", r.avgWalkQueueDelay);
    v.f64("walk_access_latency", r.avgWalkAccessLatency);
    v.f64("walk_total_latency", r.avgWalkTotalLatency);
    v.f64("translation_latency", r.avgTranslationLatency);
    v.u64("faults", r.faults);

    // Data memory
    v.f64("l2d_miss_rate", r.l2dMissRate);
    v.u64("l2d_accesses", r.l2dAccesses);
    v.u64("l2d_mshr_failures", r.l2dMshrFailures);
    v.f64("dram_utilisation", r.dramUtilisation);

    // SM scheduler accounting
    v.u64("mem_stall_cycles", r.memStallCycles);
    v.u64("issue_slot_cycles", r.issueSlotCycles);
    v.u64("compute_cycles", r.computeCycles);
    v.u64("pw_issue_cycles", r.pwIssueCycles);
    v.f64("access_latency", r.avgAccessLatency);

    // SoftWalker internals
    v.u64("sw_to_hardware", r.swToHardware);
    v.u64("sw_to_software", r.swToSoftware);
    v.u64("sw_batches", r.swBatches);
    v.f64("sw_avg_batch_size", r.swAvgBatchSize);
    v.u64("sw_instructions", r.swInstructions);
}

namespace {

/** Emits `"name":value` pairs into one JSON object. */
class JsonFieldWriter : public RunResultFieldVisitor
{
  public:
    JsonFieldWriter() { out << '{'; }

    void
    str(const char *name, const std::string &value) override
    {
        sep();
        out << '"' << name << "\":\"" << jsonEscape(value) << '"';
    }

    void
    u64(const char *name, std::uint64_t value) override
    {
        sep();
        out << '"' << name << "\":"
            << strprintf("%llu", (unsigned long long)value);
    }

    void
    f64(const char *name, double value) override
    {
        sep();
        out << '"' << name << "\":" << strprintf("%.6g", value);
    }

    std::string
    take()
    {
        out << '}';
        return std::move(out).str();
    }

  private:
    void
    sep()
    {
        if (!first)
            out << ',';
        first = false;
    }

    std::ostringstream out;
    bool first = true;
};

/** Collects the field names: the CSV header row. */
class CsvHeaderWriter : public RunResultFieldVisitor
{
  public:
    void str(const char *name, const std::string &) override { add(name); }
    void u64(const char *name, std::uint64_t) override { add(name); }
    void f64(const char *name, double) override { add(name); }

    std::string take() { return out.str(); }

  private:
    void
    add(const char *name)
    {
        if (!first)
            out << ',';
        first = false;
        out << name;
    }

    std::ostringstream out;
    bool first = true;
};

/** Collects the field values: one CSV data row. */
class CsvRowWriter : public RunResultFieldVisitor
{
  public:
    void
    str(const char *, const std::string &value) override
    {
        add(value);
    }

    void
    u64(const char *, std::uint64_t value) override
    {
        add(strprintf("%llu", (unsigned long long)value));
    }

    void
    f64(const char *, double value) override
    {
        add(strprintf("%.6g", value));
    }

    std::string take() { return out.str(); }

  private:
    void
    add(const std::string &value)
    {
        if (!first)
            out << ',';
        first = false;
        out << value;
    }

    std::ostringstream out;
    bool first = true;
};

/** Flattens every field into one exact string (%a for doubles). */
class FingerprintWriter : public RunResultFieldVisitor
{
  public:
    std::string text;

    void
    str(const char *name, const std::string &value) override
    {
        text += name;
        text += '=';
        text += value;
        text += '\n';
    }

    void
    u64(const char *name, std::uint64_t value) override
    {
        text += strprintf("%s=%llu\n", name, (unsigned long long)value);
    }

    void
    f64(const char *name, double value) override
    {
        // %a is exact: any bit difference in a double shows up.
        text += strprintf("%s=%a\n", name, value);
    }
};

} // namespace

std::string
fingerprint(const RunResult &r)
{
    FingerprintWriter writer;
    visitFields(r, writer);
    return writer.text;
}

std::string
toJson(const RunResult &r)
{
    JsonFieldWriter writer;
    visitFields(r, writer);
    return writer.take();
}

std::string
toJson(const std::vector<RunResult> &results)
{
    std::ostringstream out;
    out << "[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i)
            out << ",";
        out << toJson(results[i]);
    }
    out << "]";
    return out.str();
}

std::string
csvHeader()
{
    CsvHeaderWriter writer;
    visitFields(RunResult{}, writer);
    return writer.take();
}

std::string
toCsvRow(const RunResult &r)
{
    CsvRowWriter writer;
    visitFields(r, writer);
    return writer.take();
}

void
writeCsv(std::ostream &out, const std::vector<RunResult> &results)
{
    out << csvHeader() << '\n';
    for (const RunResult &result : results)
        out << toCsvRow(result) << '\n';
}

} // namespace sw
