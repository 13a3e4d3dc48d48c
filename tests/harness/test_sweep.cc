/**
 * @file
 * SweepRunner tests: submission-order results under out-of-order
 * completion, exception propagation, SW_JOBS parsing, and the determinism
 * contract — the same (config, benchmark) job yields a field-identical
 * RunResult whether it runs serially, concurrently, or twice in the same
 * process.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/report.hh"
#include "harness/sweep.hh"
#include "sim/logging.hh"
#include "workload/benchmarks.hh"

using namespace sw;

namespace {

// Field-identity comparisons use the library's %a fingerprint helper
// (harness/report.hh), shared with the trace round-trip suite and the CI
// record/replay gate.

/** A tiny real simulation job: cheapest benchmark, tight limits. */
SweepJob
tinyJob(TranslationMode mode)
{
    SweepJob job;
    job.cfg = mode == TranslationMode::SoftWalker ? makeSoftWalkerConfig()
                                                  : makeDefaultConfig();
    job.info = &findBenchmark("gups");
    job.limits = limitsFor(*job.info);
    job.limits.warpInstrQuota = 300;
    job.limits.warmupInstrs = 50;
    return job;
}

RunResult
makeResult(const std::string &tag)
{
    RunResult result;
    result.benchmark = tag;
    return result;
}

} // namespace

TEST(SweepRunner, ResultsComeBackInSubmissionOrder)
{
    SweepRunner runner(4);
    // Reverse the completion order: earlier submissions sleep longer.
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(runner.submit("", [i]() {
            std::this_thread::sleep_for(
                std::chrono::milliseconds((8 - i) * 3));
            return makeResult(strprintf("job%d", i));
        }), std::size_t(i));
    }
    std::vector<RunResult> results = runner.run();
    ASSERT_EQ(results.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(results[std::size_t(i)].benchmark,
                  strprintf("job%d", i));
}

TEST(SweepRunner, SerialRunnerExecutesInline)
{
    SweepRunner runner(1);
    EXPECT_EQ(runner.jobs(), 1u);
    std::thread::id main_thread = std::this_thread::get_id();
    std::vector<std::thread::id> seen;
    for (int i = 0; i < 3; ++i) {
        runner.submit("", [&seen]() {
            seen.push_back(std::this_thread::get_id());
            return makeResult("serial");
        });
    }
    runner.run();
    ASSERT_EQ(seen.size(), 3u);
    for (std::thread::id id : seen)
        EXPECT_EQ(id, main_thread) << "SW_JOBS=1 must not spawn threads";
}

TEST(SweepRunner, ParallelWorkersActuallyOverlap)
{
    SweepRunner runner(2);
    if (runner.effectiveWorkers(4) < 2)
        GTEST_SKIP() << "single-core host: the pool clamps to one worker";
    std::atomic<int> inside{0};
    std::atomic<int> peak{0};
    for (int i = 0; i < 4; ++i) {
        runner.submit("", [&]() {
            int now = ++inside;
            int expected = peak.load();
            while (now > expected &&
                   !peak.compare_exchange_weak(expected, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            --inside;
            return makeResult("overlap");
        });
    }
    runner.run();
    EXPECT_GE(peak.load(), 2) << "two workers never ran concurrently";
}

TEST(SweepRunner, ExceptionPropagatesAndStopsTheSweep)
{
    for (unsigned jobs : {1u, 4u}) {
        SweepRunner runner(jobs);
        runner.submit("", []() { return makeResult("ok"); });
        runner.submit("", []() -> RunResult {
            throw std::runtime_error("boom");
        });
        for (int i = 0; i < 16; ++i)
            runner.submit("", []() { return makeResult("later"); });
        EXPECT_THROW(runner.run(), std::runtime_error)
            << "jobs=" << jobs;
    }
}

TEST(SweepRunner, DefaultJobsHonoursEnvironment)
{
    ::setenv("SW_JOBS", "3", 1);
    EXPECT_EQ(SweepRunner::defaultJobs(), 3u);
    EXPECT_EQ(SweepRunner().jobs(), 3u);

    ::unsetenv("SW_JOBS");
    unsigned fallback = std::thread::hardware_concurrency();
    EXPECT_EQ(SweepRunner::defaultJobs(), fallback ? fallback : 1u);
}

TEST(SweepRunnerDeath, RejectsMalformedSwJobs)
{
    ::setenv("SW_JOBS", "0", 1);
    EXPECT_DEATH(SweepRunner::defaultJobs(), "SW_JOBS");
    ::setenv("SW_JOBS", "lots", 1);
    EXPECT_DEATH(SweepRunner::defaultJobs(), "SW_JOBS");
    ::setenv("SW_JOBS", "-1", 1);   // strtoul used to wrap this
    EXPECT_DEATH(SweepRunner::defaultJobs(), "SW_JOBS");
    ::setenv("SW_JOBS", "4294967297", 1);
    EXPECT_DEATH(SweepRunner::defaultJobs(), "SW_JOBS");
    ::unsetenv("SW_JOBS");
}

/**
 * The determinism contract, hardware-PTW mode: the same job resubmitted in
 * the same process, and the same job run under 1 vs 8 workers, must agree
 * on every RunResult field bit-for-bit.
 */
TEST(SweepRunner, RepeatedRunsAreFieldIdenticalHardwarePtw)
{
    SweepRunner runner(1);
    runner.submit(tinyJob(TranslationMode::HardwarePtw));
    runner.submit(tinyJob(TranslationMode::HardwarePtw));
    std::vector<RunResult> twice = runner.run();
    ASSERT_EQ(twice.size(), 2u);
    EXPECT_EQ(fingerprint(twice[0]), fingerprint(twice[1]))
        << "same job, same process, different result";
}

TEST(SweepRunner, SerialAndParallelResultsAreFieldIdentical)
{
    const int copies = 4;

    SweepRunner serial(1);
    for (int i = 0; i < copies; ++i)
        serial.submit(tinyJob(TranslationMode::HardwarePtw));
    std::vector<RunResult> ser = serial.run();

    SweepRunner parallel(8);
    for (int i = 0; i < copies; ++i)
        parallel.submit(tinyJob(TranslationMode::HardwarePtw));
    std::vector<RunResult> par = parallel.run();

    ASSERT_EQ(ser.size(), par.size());
    for (std::size_t i = 0; i < ser.size(); ++i)
        EXPECT_EQ(fingerprint(ser[i]), fingerprint(par[i]))
            << "job " << i << " diverged between jobs=1 and jobs=8";
}

TEST(SweepRunner, SerialAndParallelResultsAreFieldIdenticalSoftWalker)
{
    SweepRunner serial(1);
    serial.submit(tinyJob(TranslationMode::SoftWalker));
    std::vector<RunResult> ser = serial.run();

    SweepRunner parallel(8);
    parallel.submit(tinyJob(TranslationMode::SoftWalker));
    // Concurrency pressure from unrelated jobs must not perturb it.
    for (int i = 0; i < 3; ++i)
        parallel.submit(tinyJob(TranslationMode::HardwarePtw));
    std::vector<RunResult> par = parallel.run();

    EXPECT_EQ(fingerprint(ser[0]), fingerprint(par[0]))
        << "SoftWalker run diverged under concurrency";
}

TEST(SweepRunner, RunClearsTheQueue)
{
    SweepRunner runner(1);
    runner.submit("", []() { return makeResult("once"); });
    EXPECT_EQ(runner.submitted(), 1u);
    EXPECT_EQ(runner.run().size(), 1u);
    EXPECT_EQ(runner.submitted(), 0u);
    EXPECT_TRUE(runner.run().empty());
}
