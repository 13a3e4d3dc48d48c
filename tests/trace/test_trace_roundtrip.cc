/**
 * @file
 * The determinism contract, end to end: recording a run and replaying the
 * trace under the recording configuration reproduces the RunResult
 * field-identically (every field, doubles compared bit-for-bit via the %a
 * fingerprint).  Also covers the replay end policies, the recorded-limits
 * fallback, and the text converter.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "sim/rng.hh"
#include "trace/trace_convert.hh"
#include "trace/trace_format.hh"
#include "trace/trace_recorder.hh"
#include "trace/trace_workload.hh"
#include "workload/benchmarks.hh"

#include "../test_util.hh"

using namespace sw;

namespace {

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

Gpu::RunLimits
tinyLimits()
{
    Gpu::RunLimits limits = defaultLimits();
    limits.warpInstrQuota = 300;
    limits.warmupInstrs = 50;
    return limits;
}

/** Record a benchmark run, then replay the trace; both fingerprints. */
void
expectRoundTripIdentical(const GpuConfig &cfg, const char *bench,
                         const char *path_name)
{
    std::string path = tempPath(path_name);

    RunSpec record;
    record.cfg = cfg;
    record.benchmark = &findBenchmark(bench);
    record.limits = tinyLimits();
    record.recordPath = path;
    RunResult recorded = run(std::move(record));

    RunSpec replay;
    replay.cfg = cfg;
    replay.replayPath = path;   // limits come from the trace header
    RunResult replayed = run(std::move(replay));

    EXPECT_EQ(fingerprint(recorded), fingerprint(replayed))
        << bench << " replay diverged from the recorded run";
}

TEST(TraceRoundTrip, ReplayIsFieldIdenticalHardwarePtw)
{
    expectRoundTripIdentical(test::smallConfig(), "gups",
                             "roundtrip_hw.swtrace");
}

TEST(TraceRoundTrip, ReplayIsFieldIdenticalSoftWalker)
{
    expectRoundTripIdentical(test::smallSoftWalkerConfig(), "bfs",
                             "roundtrip_sw.swtrace");
}

TEST(TraceRoundTrip, ReplayUsesRecordedLimitsByDefault)
{
    GpuConfig cfg = test::smallConfig();
    std::string path = tempPath("recorded_limits.swtrace");

    RunSpec record;
    record.cfg = cfg;
    record.benchmark = &findBenchmark("gups");
    record.limits = tinyLimits();
    record.recordPath = path;
    RunResult recorded = run(std::move(record));

    TraceWorkload trace(path);
    EXPECT_EQ(trace.recordedLimits().warpInstrQuota, 300u);
    EXPECT_EQ(trace.recordedLimits().warmupInstrs, 50u);

    // A bare replay reruns exactly the captured region: same instruction
    // count, not the (much larger) harness default quota.
    RunSpec replay;
    replay.cfg = cfg;
    replay.replayPath = path;
    RunResult replayed = run(std::move(replay));
    EXPECT_EQ(replayed.warpInstrs, recorded.warpInstrs);
}

TEST(TraceRoundTrip, RecorderCapturesMetadataAndStreams)
{
    GpuConfig cfg = test::smallConfig();
    const BenchmarkInfo &info = findBenchmark("gups");
    TraceRecorder recorder(makeWorkload(info));
    EXPECT_EQ(recorder.name(), info.abbr);
    EXPECT_EQ(recorder.irregular(), info.irregular);
    EXPECT_EQ(recorder.footprintBytes(),
              info.footprintMb * 1024 * 1024);

    Rng rng(7);
    for (int i = 0; i < 10; ++i)
        recorder.next(SmId(i % 2), WarpId(i % 4), rng);
    EXPECT_EQ(recorder.recordedInstrs(), 10u);
    EXPECT_EQ(recorder.numStreams(), 4u);   // (0,0) (0,2) (1,1) (1,3)

    TraceLimits limits;
    limits.warpInstrQuota = 10;
    TraceFile snap = recorder.snapshot(cfg, limits);
    EXPECT_EQ(snap.header.name, info.abbr);
    EXPECT_EQ(snap.header.configDigest, configDigest(cfg));
    EXPECT_EQ(snap.totalInstrs(), 10u);
    // Streams are sorted by (sm, warp): the determinism the file order
    // inherits from the recorder's map.
    ASSERT_EQ(snap.streams.size(), 4u);
    EXPECT_LT(snap.streams[0].warp, snap.streams[1].warp);
    EXPECT_LT(snap.streams[0].sm, snap.streams[2].sm);

    // The capture loop above fetched (0,0) (1,1) (0,2) (1,3) cyclically;
    // with sorted stream indexes (0,0)=0 (0,2)=1 (1,1)=2 (1,3)=3 the
    // recorded global fetch order is:
    const std::vector<std::uint32_t> expected =
        {0, 2, 1, 3, 0, 2, 1, 3, 0, 2};
    EXPECT_EQ(snap.fetchOrder, expected);

    // And it survives a disk round trip.
    std::string path = tempPath("recorder_order.swtrace");
    writeTraceFile(path, snap);
    EXPECT_EQ(readTraceFile(path).fetchOrder, expected);
}

TEST(TraceRoundTrip, DrainedStreamEmitsIdleInstructions)
{
    TraceFile trace;
    trace.header.name = "drain";
    TraceStream stream;
    stream.sm = 0;
    stream.warp = 0;
    WarpInstr instr;
    instr.activeLanes = 1;
    instr.addrs[0] = 0x1000;
    stream.instrs.push_back(instr);
    trace.streams.push_back(stream);

    TraceWorkload workload(trace, "drain-test", TraceEndPolicy::Drain);
    Rng rng(1);
    EXPECT_EQ(workload.next(0, 0, rng).activeLanes, 1u);
    EXPECT_EQ(workload.exhaustedStreams(), 0u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(workload.next(0, 0, rng).activeLanes, 0u)
            << "drained stream must go idle";
    EXPECT_EQ(workload.exhaustedStreams(), 1u);
    // A stream the recording never saw drains immediately too.
    EXPECT_EQ(workload.next(3, 7, rng).activeLanes, 0u);
    EXPECT_EQ(workload.replayedInstrs(), 5u);
}

TEST(TraceRoundTrip, LoopRewindsTheStream)
{
    TraceFile trace;
    trace.header.name = "loop";
    TraceStream stream;
    stream.sm = 0;
    stream.warp = 0;
    for (VirtAddr addr : {0x1000ull, 0x2000ull}) {
        WarpInstr instr;
        instr.activeLanes = 1;
        instr.addrs[0] = addr;
        stream.instrs.push_back(instr);
    }
    trace.streams.push_back(stream);

    TraceWorkload workload(trace, "loop-test", TraceEndPolicy::Loop);
    Rng rng(1);
    EXPECT_EQ(workload.next(0, 0, rng).addrs[0], 0x1000u);
    EXPECT_EQ(workload.next(0, 0, rng).addrs[0], 0x2000u);
    EXPECT_EQ(workload.next(0, 0, rng).addrs[0], 0x1000u)
        << "loop policy must rewind to the first record";
    EXPECT_EQ(workload.exhaustedStreams(), 1u);
    EXPECT_EQ(workload.next(0, 0, rng).addrs[0], 0x2000u);
}

TEST(TraceRoundTrip, ConverterProducesAReplayableTrace)
{
    std::istringstream text(
        "swtrace-text 1\n"
        "# a hand-written trace\n"
        "name toy\n"
        "footprint 1048576\n"
        "irregular 1\n"
        "limits 100 10 50000 0\n"
        "stream 0 0\n"
        "instr 3 r 0x1000 0x2000 0x3000\n"
        "instr 1 w 4096\n"
        "instr 0 r\n"                      // explicit idle record
        "stream 1 2\n"
        "instr 2 r 65536\n");
    TraceFile trace = parseTextTrace(text, "inline");
    EXPECT_EQ(trace.header.name, "toy");
    EXPECT_EQ(trace.header.configDigest, kUnknownConfigDigest);
    EXPECT_EQ(trace.header.limits.warpInstrQuota, 100u);
    EXPECT_EQ(trace.totalInstrs(), 4u);

    // Binary round trip preserves the parse.
    std::vector<std::uint8_t> bytes = encodeTrace(trace);
    TraceFile back = decodeTrace(bytes.data(), bytes.size(), "inline");
    ASSERT_EQ(back.streams.size(), 2u);
    EXPECT_EQ(back.streams[0].instrs[0].addrs[2], 0x3000u);
    EXPECT_TRUE(back.streams[0].instrs[1].write);
    EXPECT_EQ(back.streams[0].instrs[2].activeLanes, 0u);
    EXPECT_EQ(back.streams[1].instrs[0].addrs[0], 65536u);

    TraceWorkload workload(back, "inline");
    Rng rng(1);
    EXPECT_EQ(workload.next(0, 0, rng).addrs[0], 0x1000u);
    EXPECT_EQ(workload.footprintBytes(), 1048576u);
    EXPECT_TRUE(workload.irregular());
}

TEST(TraceRoundTrip, ReRecordingAReplayIsLossless)
{
    // Record a replay of a recorded trace: the second trace must carry the
    // same streams (drain-idle records excluded by using the same limits).
    GpuConfig cfg = test::smallConfig();
    std::string first = tempPath("rerecord_first.swtrace");
    std::string second = tempPath("rerecord_second.swtrace");

    RunSpec record;
    record.cfg = cfg;
    record.benchmark = &findBenchmark("gups");
    record.limits = tinyLimits();
    record.recordPath = first;
    RunResult one = run(std::move(record));

    RunSpec rerecord;
    rerecord.cfg = cfg;
    rerecord.replayPath = first;
    rerecord.recordPath = second;
    RunResult two = run(std::move(rerecord));
    EXPECT_EQ(fingerprint(one), fingerprint(two));

    RunSpec replay;
    replay.cfg = cfg;
    replay.replayPath = second;
    RunResult three = run(std::move(replay));
    EXPECT_EQ(fingerprint(one), fingerprint(three))
        << "second-generation replay diverged";
}

} // namespace
