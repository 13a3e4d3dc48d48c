#include "harness/sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "sim/logging.hh"

namespace sw {

namespace {

using SteadyClock = std::chrono::steady_clock;

double
millisSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double, std::milli>(SteadyClock::now() -
                                                     start)
        .count();
}

/**
 * Remaining-work estimate from overall throughput: jobs completed per
 * wall-clock second so far, applied to the jobs left.  Counting from the
 * sweep start (rather than averaging per-job times) makes the estimate
 * worker-aware for free.
 */
std::string
etaSuffix(double elapsed_ms, std::size_t done, std::size_t total)
{
    if (done == 0 || done >= total || elapsed_ms <= 0.0)
        return "";
    double eta_s =
        elapsed_ms / 1e3 / double(done) * double(total - done);
    return strprintf(", ETA %.1f s", eta_s);
}

} // namespace

unsigned
SweepRunner::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return static_cast<unsigned>(
        envCount("SW_JOBS", hw ? hw : 1, 1,
                 std::numeric_limits<unsigned>::max()));
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs ? jobs : defaultJobs())
{
}

std::size_t
SweepRunner::submit(SweepJob job)
{
    SW_ASSERT(job.info != nullptr, "sweep job without a benchmark");
    std::string progress;
    if (!job.label.empty()) {
        progress = strprintf("  [%s] %s...", job.label.c_str(),
                             job.info->abbr.c_str());
    }
    return submit(std::move(progress), [job = std::move(job)]() {
        // Specs are built per execution: RunSpec is move-only (it can
        // carry a workload instance) while queued JobFns must stay
        // copyable, and the copyable SweepJob holds everything needed.
        RunSpec spec;
        spec.cfg = job.cfg;
        spec.benchmark = job.info;
        spec.footprintScale = job.footprintScale;
        spec.limits = job.limits;
        spec.obs = job.obs;
        return sw::run(std::move(spec));
    });
}

std::size_t
SweepRunner::submit(std::string progress, JobFn fn)
{
    SW_ASSERT(fn != nullptr, "sweep job without a function");
    tasks.push_back(Task{std::move(progress), std::move(fn)});
    return tasks.size() - 1;
}

unsigned
SweepRunner::effectiveWorkers(std::size_t pending) const
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    unsigned workers = std::min(jobs_, hw);
    if (pending < workers)
        workers = static_cast<unsigned>(pending);
    return workers;
}

std::vector<RunResult>
SweepRunner::run()
{
    unsigned workers = effectiveWorkers(tasks.size());
    bool verbose = false;
    for (const Task &task : tasks)
        verbose = verbose || !task.progress.empty();
    std::size_t count = tasks.size();
    jobMillis.assign(count, 0.0);

    SteadyClock::time_point begin = SteadyClock::now();
    std::vector<RunResult> results =
        workers <= 1 ? runSerial() : runParallel(workers);
    double total_ms = millisSince(begin);

    if (verbose && count > 0) {
        double min_ms = jobMillis[0], max_ms = jobMillis[0], sum_ms = 0.0;
        for (double ms : jobMillis) {
            min_ms = std::min(min_ms, ms);
            max_ms = std::max(max_ms, ms);
            sum_ms += ms;
        }
        std::fprintf(stderr,
                     "  sweep: %zu jobs in %.1f s (workers=%u, per-job "
                     "min/mean/max %.0f/%.0f/%.0f ms)\n",
                     count, total_ms / 1e3, workers, min_ms,
                     sum_ms / double(count), max_ms);
    }
    tasks.clear();
    return results;
}

std::vector<RunResult>
SweepRunner::runSerial()
{
    // The SW_JOBS=1 contract: the historical serial loop — same order,
    // same pre-run progress lines, exceptions surfacing straight from the
    // failing job — plus a per-job completion line with the wall clock
    // and the sweep's ETA.
    SteadyClock::time_point begin = SteadyClock::now();
    std::vector<RunResult> results;
    results.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        Task &task = tasks[i];
        if (!task.progress.empty())
            std::fprintf(stderr, "%s\n", task.progress.c_str());
        SteadyClock::time_point job_begin = SteadyClock::now();
        results.push_back(task.fn());
        jobMillis[i] = millisSince(job_begin);
        if (!task.progress.empty()) {
            double elapsed = millisSince(begin);
            std::fprintf(stderr, "%s done (%zu/%zu, %.1f ms%s)\n",
                         task.progress.c_str(), i + 1, tasks.size(),
                         jobMillis[i],
                         etaSuffix(elapsed, i + 1, tasks.size()).c_str());
        }
    }
    return results;
}

std::vector<RunResult>
SweepRunner::runParallel(unsigned workers)
{
    std::vector<RunResult> results(tasks.size());
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::atomic<bool> failed{false};
    std::exception_ptr firstError;
    std::mutex errorMutex;
    std::mutex progressMutex;
    SteadyClock::time_point begin = SteadyClock::now();

    auto worker = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= tasks.size() || failed.load(std::memory_order_relaxed))
                return;
            SteadyClock::time_point job_begin = SteadyClock::now();
            try {
                results[i] = tasks[i].fn();
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError)
                    firstError = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
            // Each slot is written by exactly one worker; the joins in
            // run() publish the values to the caller.
            jobMillis[i] = millisSince(job_begin);
            std::size_t done =
                completed.fetch_add(1, std::memory_order_relaxed) + 1;
            if (!tasks[i].progress.empty()) {
                // One fprintf per line keeps concurrent workers from
                // tearing each other's output mid-line.
                double elapsed = millisSince(begin);
                std::lock_guard<std::mutex> lock(progressMutex);
                std::fprintf(
                    stderr, "%s done (%zu/%zu, %.1f ms%s)\n",
                    tasks[i].progress.c_str(), done, tasks.size(),
                    jobMillis[i],
                    etaSuffix(elapsed, done, tasks.size()).c_str());
            }
        }
    };

    std::size_t spawn = workers;
    std::vector<std::thread> pool;
    pool.reserve(spawn);
    for (std::size_t i = 0; i < spawn; ++i)
        pool.emplace_back(worker);
    for (std::thread &thread : pool)
        thread.join();

    if (firstError)
        std::rethrow_exception(firstError);
    return results;
}

} // namespace sw
