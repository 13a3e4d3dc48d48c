/**
 * @file
 * Figure 3 — Page-granularity access patterns of two irregular apps
 * (nw, bfs) and one regular app (2dc).
 *
 * The paper scatter-plots (cycle, page index) samples from real-GPU
 * profiles; this harness dumps the same series from the simulator to
 * fig03_<bench>.csv, one sample per lane stamped with the cycle its warp
 * fetched the instruction, and prints summary dispersion statistics:
 * irregular apps touch a wide page range within short windows, the
 * regular app streams contiguously.
 */

#include <algorithm>
#include <fstream>
#include <set>

#include "bench_common.hh"
#include "core/softwalker.hh"

using namespace swbench;

namespace {

struct Sample
{
    Cycle cycle;
    std::uint64_t page;
};

/**
 * Forwards a workload's stream to the SMs and samples each fetched
 * instruction's lanes as (fetch cycle, 64 KB page index).
 */
class PageSampler : public Workload
{
  public:
    PageSampler(std::unique_ptr<Workload> inner, std::vector<Sample> &out)
        : inner_(std::move(inner)), samples(out)
    {
    }

    /** Read fetch cycles from @p eq, the machine's event queue. */
    void setClock(const EventQueue &eq) { clock = &eq; }

    WarpInstr
    next(SmId sm, WarpId warp, Rng &rng) override
    {
        WarpInstr instr = inner_->next(sm, warp, rng);
        for (std::uint32_t lane = 0; lane < instr.activeLanes; ++lane)
            samples.push_back({clock->now(), instr.addrs[lane] / kPage});
        return instr;
    }

    std::uint64_t footprintBytes() const override
    {
        return inner_->footprintBytes();
    }
    std::string name() const override { return inner_->name(); }
    bool irregular() const override { return inner_->irregular(); }

  private:
    static constexpr std::uint64_t kPage = 64 * 1024;

    std::unique_ptr<Workload> inner_;
    std::vector<Sample> &samples;
    const EventQueue *clock = nullptr;
};

void
trace(const char *abbr)
{
    const BenchmarkInfo &info = findBenchmark(abbr);
    std::vector<Sample> samples;
    auto sampler = std::make_unique<PageSampler>(makeWorkload(info), samples);
    PageSampler &tap = *sampler;
    Gpu gpu(baselineCfg(), std::move(sampler));
    tap.setClock(gpu.eventQueue());

    Gpu::RunLimits limits;
    limits.warpInstrQuota = 3000;
    limits.maxCycles = 2000000;
    gpu.run(limits);

    std::string path = strprintf("fig03_%s.csv", abbr);
    std::ofstream out(path);
    out << "cycle,page_index\n";
    for (const Sample &sample : samples)
        out << sample.cycle << ',' << sample.page << '\n';

    // Dispersion: distinct pages per 1000-cycle window.
    std::uint64_t min_page = ~0ull, max_page = 0;
    std::set<std::uint64_t> pages;
    std::vector<double> window_spread;
    Cycle window_start = 0;
    std::set<std::uint64_t> window_pages;
    for (const Sample &sample : samples) {
        pages.insert(sample.page);
        min_page = std::min(min_page, sample.page);
        max_page = std::max(max_page, sample.page);
        if (sample.cycle - window_start > 1000) {
            window_spread.push_back(double(window_pages.size()));
            window_pages.clear();
            window_start = sample.cycle;
        }
        window_pages.insert(sample.page);
    }

    std::printf("%-5s %-4s samples=%-8zu distinct pages=%-6zu page span="
                "%-8llu avg pages / 1k-cycle window=%.1f  -> %s\n",
                abbr, info.irregular ? "irr" : "reg", samples.size(),
                pages.size(),
                (unsigned long long)(max_page - min_page),
                mean(window_spread), path.c_str());
}

} // namespace

SW_FIGURE(fig03_access_patterns)
{
    banner("Figure 3", "page-granularity access-pattern traces");
    trace("nw");
    trace("bfs");
    trace("2dc");
    std::printf("\npaper: nw/bfs scatter across a wide page range in short "
                "windows; 2dc streams contiguously\n");
    return 0;
}
