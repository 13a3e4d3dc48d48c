/**
 * @file
 * The checkpoint determinism contract: splitting a run at a barrier,
 * saving, and restoring into a fresh machine yields a final result
 * fingerprint identical to the save-and-continue run — for every
 * backend, for barriers inside and past warmup, for both page-table
 * organisations, and for trace-replay workload sources.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "core/softwalker.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "workload/benchmarks.hh"

#include "../test_util.hh"

using namespace sw;

namespace {

Gpu::RunLimits
smallLimits()
{
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 1500;
    limits.warmupInstrs = 500;
    limits.maxCycles = 4000000;
    return limits;
}

RunSpec
baseSpec(const GpuConfig &cfg)
{
    RunSpec spec;
    spec.cfg = cfg;
    spec.benchmark = &findBenchmark("bfs");
    spec.limits = smallLimits();
    return spec;
}

/** Save-and-continue run: checkpoint at @p barrier, full-run result. */
std::string
saveContinueFingerprint(const GpuConfig &cfg, std::uint64_t barrier,
                        const std::string &path)
{
    RunSpec spec = baseSpec(cfg);
    spec.checkpointAtInstrs = barrier;
    spec.checkpointOut = path;
    return fingerprint(run(std::move(spec)));
}

/** Restore-and-finish run from the file @p path. */
std::string
restoredFingerprint(const GpuConfig &cfg, const std::string &path)
{
    RunSpec spec = baseSpec(cfg);
    spec.checkpointIn = path;
    return fingerprint(run(std::move(spec)));
}

void
expectRoundtrip(const GpuConfig &cfg, std::uint64_t barrier,
                const char *tag)
{
    std::string path = ::testing::TempDir() + "roundtrip-" + tag + ".swckpt";
    std::string saved = saveContinueFingerprint(cfg, barrier, path);
    std::string restored = restoredFingerprint(cfg, path);
    EXPECT_EQ(saved, restored);
}

TEST(CheckpointRoundtrip, HardwareBackend)
{
    expectRoundtrip(test::smallConfig(), 1000, "hw");
}

TEST(CheckpointRoundtrip, SoftWalkerBackend)
{
    expectRoundtrip(test::smallSoftWalkerConfig(), 1000, "sw");
}

TEST(CheckpointRoundtrip, HybridBackend)
{
    GpuConfig cfg = test::smallSoftWalkerConfig();
    cfg.mode = TranslationMode::Hybrid;
    expectRoundtrip(cfg, 1000, "hybrid");
}

TEST(CheckpointRoundtrip, BarrierInsideWarmup)
{
    // Barrier at 300 < warmup 500: the restored segment must finish the
    // warmup (stat reset included) exactly as the continued one does.
    expectRoundtrip(test::smallConfig(), 300, "early");
}

TEST(CheckpointRoundtrip, HashedPageTable)
{
    GpuConfig cfg = test::smallSoftWalkerConfig();
    cfg.pageTableKind = PageTableKind::Hashed;
    expectRoundtrip(cfg, 1000, "hashed");
}

TEST(CheckpointRoundtrip, RestoreIsDeterministic)
{
    GpuConfig cfg = test::smallConfig();
    std::string path = ::testing::TempDir() + "roundtrip-redo.swckpt";
    saveContinueFingerprint(cfg, 800, path);
    EXPECT_EQ(restoredFingerprint(cfg, path),
              restoredFingerprint(cfg, path));
}

TEST(CheckpointRoundtrip, TraceReplaySource)
{
    GpuConfig cfg = test::smallConfig();
    std::string trace_path = ::testing::TempDir() + "roundtrip.swtrace";
    {
        RunSpec record = baseSpec(cfg);
        record.recordPath = trace_path;
        run(std::move(record));
    }

    std::string ckpt_path = ::testing::TempDir() + "roundtrip-trace.swckpt";
    RunSpec save;
    save.cfg = cfg;
    save.replayPath = trace_path;
    save.limits = smallLimits();
    save.checkpointAtInstrs = 1000;
    save.checkpointOut = ckpt_path;
    std::string saved = fingerprint(run(std::move(save)));

    RunSpec restore;
    restore.cfg = cfg;
    restore.replayPath = trace_path;
    restore.limits = smallLimits();
    restore.checkpointIn = ckpt_path;
    EXPECT_EQ(saved, fingerprint(run(std::move(restore))));
}

TEST(CheckpointRoundtrip, InMemoryEncodeDecode)
{
    // Gpu-level variant with no file I/O: encode at the barrier, restore
    // the image into a second machine, and both remainders must agree.
    GpuConfig cfg = test::smallSoftWalkerConfig();
    Gpu::RunLimits limits = smallLimits();
    std::uint64_t total = limits.warpInstrQuota + limits.warmupInstrs;
    std::uint64_t barrier = 900;
    const BenchmarkInfo &info = findBenchmark("bfs");

    Gpu first(cfg, makeWorkload(info));
    installWalkBackend(first);
    first.runSegment(barrier, std::min(limits.warmupInstrs, barrier),
                     limits);
    std::vector<std::uint8_t> image = encodeCheckpoint(first, barrier);
    EXPECT_GT(image.size(), 64u);
    first.runSegment(total - barrier,
                     limits.warmupInstrs > barrier
                         ? limits.warmupInstrs - barrier : 0,
                     limits);

    Gpu second(cfg, makeWorkload(info));
    installWalkBackend(second);
    CheckpointMeta meta =
        decodeCheckpoint(second, image.data(), image.size(), "in-memory");
    EXPECT_EQ(meta.instrsFetched, barrier);
    EXPECT_EQ(meta.workloadName, first.workload().name());
    second.runSegment(total - barrier,
                      limits.warmupInstrs > barrier
                          ? limits.warmupInstrs - barrier : 0,
                      limits);

    EXPECT_EQ(fingerprint(collectResult(first, "bfs")),
              fingerprint(collectResult(second, "bfs")));
}

TEST(CheckpointRoundtrip, CheckpointBytesGaugeAdvances)
{
    GpuConfig cfg = test::smallConfig();
    std::uint64_t before = checkpointBytesWritten();
    std::string path = ::testing::TempDir() + "roundtrip-gauge.swckpt";
    saveContinueFingerprint(cfg, 700, path);
    EXPECT_GT(checkpointBytesWritten(), before);
}

/** FNV-1a 64 of a checkpoint image. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes) {
        hash ^= b;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** The image encodeCheckpoint() writes at a bfs run's 1000-instr barrier. */
std::vector<std::uint8_t>
bfsBarrierImage(const GpuConfig &cfg)
{
    Gpu::RunLimits limits = smallLimits();
    std::uint64_t barrier = 1000;
    Gpu gpu(cfg, makeWorkload(findBenchmark("bfs")));
    installWalkBackend(gpu);
    gpu.runSegment(barrier, limits.warmupInstrs, limits);
    return encodeCheckpoint(gpu, barrier);
}

// Golden images: the softwalker.ckpt/2 bytes of both machines are pinned,
// so a change to how any component lays out its state (the cache tag
// store included) cannot alter the format unnoticed.  Regenerate only with
// a format version bump or a change that moves simulated results.
TEST(CheckpointGolden, BfsHardwareImage)
{
    std::vector<std::uint8_t> image = bfsBarrierImage(test::smallConfig());
    EXPECT_EQ(image.size(), 367780u);
    EXPECT_EQ(fnv1a(image), 0xd5efa1a2f1c24f9cull);
}

TEST(CheckpointGolden, BfsSoftWalkerImage)
{
    std::vector<std::uint8_t> image =
        bfsBarrierImage(test::smallSoftWalkerConfig());
    EXPECT_EQ(image.size(), 368418u);
    EXPECT_EQ(fnv1a(image), 0xa2d1af454faf65d3ull);
}

} // namespace
