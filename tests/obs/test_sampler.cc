/** @file Tests for the time-series gauge sampler (src/obs). */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/sampler.hh"
#include "sim/event_queue.hh"

using namespace sw;

namespace {

TEST(Sampler, SampleNowSnapshotsGauges)
{
    TimeSeriesSampler sampler;
    double occupancy = 3.0;
    sampler.gauge("occupancy", [&]() { return occupancy; });
    sampler.gauge("constant", []() { return 1.0; });

    sampler.sampleNow(100);
    occupancy = 7.0;
    sampler.sampleNow(200);

    ASSERT_EQ(sampler.numRows(), 2u);
    EXPECT_EQ(sampler.rows()[0].cycle, 100u);
    EXPECT_DOUBLE_EQ(sampler.rows()[0].values[0], 3.0);
    EXPECT_DOUBLE_EQ(sampler.rows()[1].values[0], 7.0);
    EXPECT_DOUBLE_EQ(sampler.rows()[1].values[1], 1.0);
}

TEST(Sampler, CsvHeaderListsCycleThenGauges)
{
    TimeSeriesSampler sampler;
    sampler.gauge("a", []() { return 0.0; });
    sampler.gauge("b", []() { return 0.0; });
    EXPECT_EQ(sampler.csvHeader(), "cycle,a,b");
}

TEST(Sampler, WriteCsvEmitsHeaderAndRows)
{
    TimeSeriesSampler sampler;
    sampler.gauge("x", []() { return 2.5; });
    sampler.sampleNow(10);
    sampler.sampleNow(20);

    std::ostringstream out;
    sampler.writeCsv(out);
    std::string text = out.str();
    EXPECT_EQ(text.rfind("cycle,x\n", 0), 0u);
    EXPECT_NE(text.find("10,2.5"), std::string::npos);
    EXPECT_NE(text.find("20,2.5"), std::string::npos);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Sampler, InstalledSamplerRidesSweepHook)
{
    EventQueue eq;
    TimeSeriesSampler sampler;
    int fired = 0;
    sampler.gauge("fired", [&]() { return double(fired); });
    sampler.install(eq, 100);

    // A chain of events 50 cycles apart: sweeps happen when >= 100 cycles
    // elapsed since the last one.
    std::function<void()> chain = [&]() {
        ++fired;
        if (eq.now() < 500)
            eq.scheduleIn(50, [&chain]() { chain(); });
    };
    eq.scheduleIn(50, [&chain]() { chain(); });
    eq.run();

    EXPECT_GE(sampler.numRows(), 4u);
    // Sampling never perturbs the run: events all executed, clock drained.
    EXPECT_EQ(eq.now(), 500u);
    // Rows carry monotonically increasing cycles.
    for (std::size_t i = 1; i < sampler.numRows(); ++i)
        EXPECT_GT(sampler.rows()[i].cycle, sampler.rows()[i - 1].cycle);
}

TEST(Sampler, InstallDoesNotChangeEventCountOrTimeline)
{
    auto run_chain = [](TimeSeriesSampler *sampler) {
        EventQueue eq;
        if (sampler)
            sampler->install(eq, 100);
        std::function<void()> chain = [&]() {
            if (eq.now() < 1000)
                eq.scheduleIn(30, [&chain]() { chain(); });
        };
        eq.scheduleIn(30, [&chain]() { chain(); });
        eq.run();
        auto result = std::make_pair(eq.now(), eq.eventsExecuted());
        if (sampler)
            sampler->uninstall();
        return result;
    };

    TimeSeriesSampler sampler;
    sampler.gauge("g", []() { return 1.0; });
    auto plain = run_chain(nullptr);
    auto sampled = run_chain(&sampler);
    EXPECT_EQ(plain, sampled);
    EXPECT_GT(sampler.numRows(), 0u);
}

TEST(Sampler, FinalizeAppendsEndOfRunRow)
{
    // The harness finalizes every sampler at teardown so the last
    // partial interval is represented; without it the series silently
    // truncates at the final periodic sweep.
    TimeSeriesSampler sampler;
    sampler.gauge("g", []() { return 1.0; });
    sampler.sampleNow(100);
    sampler.finalize(250);
    ASSERT_EQ(sampler.numRows(), 2u);
    EXPECT_EQ(sampler.rows()[1].cycle, 250u);
    // Already sampled at this cycle: no duplicate row.
    sampler.finalize(250);
    EXPECT_EQ(sampler.numRows(), 2u);
}

TEST(Sampler, FinalizeWithNoPriorRowsStillSamples)
{
    // A run shorter than one sample interval must still produce a row.
    TimeSeriesSampler sampler;
    sampler.gauge("g", []() { return 4.0; });
    sampler.finalize(42);
    ASSERT_EQ(sampler.numRows(), 1u);
    EXPECT_EQ(sampler.rows()[0].cycle, 42u);
}

TEST(Sampler, OnSampleHookFiresBeforeGaugeReads)
{
    // The Gpu's hook syncs the cycle ledger inside onSample so the CSV
    // row and the NDJSON sample deltas read the same closed accounts.
    TimeSeriesSampler sampler;
    double value = 0.0;
    sampler.gauge("g", [&]() { return value; });
    sampler.onSample([&](Cycle now) { value = double(now); });
    sampler.sampleNow(70);
    ASSERT_EQ(sampler.numRows(), 1u);
    EXPECT_DOUBLE_EQ(sampler.rows()[0].values[0], 70.0);
}

TEST(Sampler, UninstallStopsSampling)
{
    EventQueue eq;
    TimeSeriesSampler sampler;
    sampler.gauge("g", []() { return 0.0; });
    sampler.install(eq, 10);

    std::function<void()> chain = [&]() {
        if (eq.now() < 100)
            eq.scheduleIn(10, [&chain]() { chain(); });
    };
    eq.scheduleIn(10, [&chain]() { chain(); });
    eq.run();
    std::size_t rows_before = sampler.numRows();
    EXPECT_GT(rows_before, 0u);

    sampler.uninstall();
    eq.scheduleIn(10, [&chain]() { chain(); });
    eq.run();
    EXPECT_EQ(sampler.numRows(), rows_before);
    // Idempotent.
    sampler.uninstall();
}

TEST(SamplerDeath, GaugeAfterInstallPanics)
{
    EventQueue eq;
    TimeSeriesSampler sampler;
    sampler.gauge("early", []() { return 0.0; });
    sampler.install(eq, 10);
    EXPECT_DEATH(sampler.gauge("late", []() { return 0.0; }), "install");
    sampler.uninstall();
}

} // namespace
