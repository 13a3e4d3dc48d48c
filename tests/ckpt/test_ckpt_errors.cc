/**
 * @file
 * Malformed-checkpoint error paths.  The contract mirrors the trace
 * decoder's: every broken input — bad magic, wrong version, truncation,
 * trailing bytes, missing file — dies through fatal() with a located
 * diagnostic.  Two checks are *stricter* than trace replay: a config
 * digest mismatch is a hard fatal with no unknown-origin escape hatch,
 * and the workload name must match exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "core/softwalker.hh"
#include "gpu/gpu.hh"
#include "workload/benchmarks.hh"

#include "../test_util.hh"

using namespace sw;

namespace {

Gpu::RunLimits
smallLimits()
{
    Gpu::RunLimits limits;
    limits.warpInstrQuota = 400;
    limits.warmupInstrs = 0;
    limits.maxCycles = 4000000;
    return limits;
}

std::unique_ptr<Gpu>
freshGpu(const GpuConfig &cfg, const char *bench = "bfs")
{
    auto gpu = std::make_unique<Gpu>(cfg, makeWorkload(findBenchmark(bench)));
    installWalkBackend(*gpu);
    return gpu;
}

/** A valid checkpoint image of a small quiesced run to corrupt. */
std::vector<std::uint8_t>
validImage(const GpuConfig &cfg)
{
    std::unique_ptr<Gpu> gpu = freshGpu(cfg);
    gpu->runSegment(smallLimits().warpInstrQuota, 0, smallLimits());
    return encodeCheckpoint(*gpu, smallLimits().warpInstrQuota);
}

std::string
writeBytes(const char *name, const std::vector<std::uint8_t> &bytes)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
    return path;
}

TEST(CkptErrors, RequestRecordInFlightPanicsOnSave)
{
    GpuConfig cfg = test::smallConfig();
    std::unique_ptr<Gpu> gpu = freshGpu(cfg);
    gpu->runSegment(smallLimits().warpInstrQuota, 0, smallLimits());
    gpu->memory().requests().alloc({.addr = 0x80});
    EXPECT_DEATH(encodeCheckpoint(*gpu, smallLimits().warpInstrQuota),
                 "request records in flight");
}

TEST(CkptErrors, BadMagicIsFatal)
{
    GpuConfig cfg = test::smallConfig();
    std::vector<std::uint8_t> bytes = validImage(cfg);
    bytes[0] ^= 0xff;
    std::string path = writeBytes("bad-magic.swckpt", bytes);
    std::unique_ptr<Gpu> gpu = freshGpu(cfg);
    EXPECT_DEATH(restoreCheckpoint(*gpu, path),
                 "not a SoftWalker checkpoint");
}

TEST(CkptErrors, WrongVersionIsFatal)
{
    GpuConfig cfg = test::smallConfig();
    std::vector<std::uint8_t> bytes = validImage(cfg);
    bytes[8] = 0x7f;   // version word follows the 8-byte magic
    std::string path = writeBytes("bad-version.swckpt", bytes);
    std::unique_ptr<Gpu> gpu = freshGpu(cfg);
    EXPECT_DEATH(restoreCheckpoint(*gpu, path),
                 "checkpoint format version");
}

TEST(CkptErrors, ConfigDigestMismatchIsHardFatal)
{
    // The satellite contract: unlike trace replay (which downgrades an
    // unknown digest to a warning), restore NEVER proceeds on a digest
    // mismatch — the machine shapes differ and state would be corrupted.
    GpuConfig cfg = test::smallConfig();
    std::vector<std::uint8_t> bytes = validImage(cfg);
    std::string path = writeBytes("digest-mismatch.swckpt", bytes);
    GpuConfig other = cfg;
    other.numPtws = cfg.numPtws * 2;
    std::unique_ptr<Gpu> gpu = freshGpu(other);
    EXPECT_DEATH(restoreCheckpoint(*gpu, path), "config digest");
}

TEST(CkptErrors, WorkloadNameMismatchIsFatal)
{
    GpuConfig cfg = test::smallConfig();
    std::vector<std::uint8_t> bytes = validImage(cfg);
    std::string path = writeBytes("workload-mismatch.swckpt", bytes);
    std::unique_ptr<Gpu> gpu = freshGpu(cfg, "sssp");
    EXPECT_DEATH(restoreCheckpoint(*gpu, path), "restored against");
}

TEST(CkptErrors, TruncationIsFatal)
{
    GpuConfig cfg = test::smallConfig();
    std::vector<std::uint8_t> bytes = validImage(cfg);
    bytes.resize(bytes.size() / 2);
    std::string path = writeBytes("truncated.swckpt", bytes);
    std::unique_ptr<Gpu> gpu = freshGpu(cfg);
    EXPECT_DEATH(restoreCheckpoint(*gpu, path), "checkpoint");
}

TEST(CkptErrors, TrailingBytesAreFatal)
{
    GpuConfig cfg = test::smallConfig();
    std::vector<std::uint8_t> bytes = validImage(cfg);
    bytes.push_back(0);
    std::string path = writeBytes("trailing.swckpt", bytes);
    std::unique_ptr<Gpu> gpu = freshGpu(cfg);
    EXPECT_DEATH(restoreCheckpoint(*gpu, path), "trailing byte");
}

TEST(CkptErrors, MissingFileIsFatal)
{
    GpuConfig cfg = test::smallConfig();
    std::unique_ptr<Gpu> gpu = freshGpu(cfg);
    EXPECT_DEATH(restoreCheckpoint(*gpu, "/nonexistent/x.swckpt"),
                 "cannot open checkpoint file");
}

TEST(CkptErrors, TenantCountMismatchIsFatal)
{
    // A multi-tenant checkpoint carries one page table per address space;
    // restoring it on a single-tenant machine must die on the config
    // digest (numTenants is digested) — never truncate address spaces.
    GpuConfig cfg = test::smallConfig();
    cfg.numTenants = 2;
    std::vector<std::unique_ptr<Workload>> pair;
    pair.push_back(makeWorkload(findBenchmark("bfs")));
    pair.push_back(makeWorkload(findBenchmark("gemm")));
    auto multi = std::make_unique<Gpu>(cfg, std::move(pair));
    installWalkBackend(*multi);
    multi->runSegment(smallLimits().warpInstrQuota, 0, smallLimits());
    std::vector<std::uint8_t> bytes =
        encodeCheckpoint(*multi, smallLimits().warpInstrQuota);

    std::string path = writeBytes("tenant-mismatch.swckpt", bytes);
    std::unique_ptr<Gpu> gpu = freshGpu(test::smallConfig());
    EXPECT_DEATH(restoreCheckpoint(*gpu, path),
                 "config digest|address spaces");
}

TEST(CkptErrors, SectionSkewIsFatal)
{
    // Writer/reader ordering drift must die with a located diagnostic,
    // not silently mis-assign state: decode a stream whose first
    // component section name was altered.
    GpuConfig cfg = test::smallConfig();
    std::vector<std::uint8_t> bytes = validImage(cfg);
    // Find the first "gpu" section marker (u32 len 3 + "gpu") after the
    // header and corrupt its name.
    const std::uint8_t pattern[] = {3, 0, 0, 0, 'g', 'p', 'u'};
    auto it = std::search(bytes.begin(), bytes.end(), std::begin(pattern),
                          std::end(pattern));
    ASSERT_NE(it, bytes.end());
    *(it + 4) = 'x';
    std::string path = writeBytes("skew.swckpt", bytes);
    std::unique_ptr<Gpu> gpu = freshGpu(cfg);
    EXPECT_DEATH(restoreCheckpoint(*gpu, path), "section skew");
}

TEST(CkptErrors, CacheTagPastTheLineAddressSpaceIsFatal)
{
    // The cache keeps each line's full address, rebuilt on restore as
    // tag * sets + set.  A saved tag no physical address produces must
    // die, never wrap around into a resident line or the empty-way
    // sentinel.
    GpuConfig cfg = test::smallConfig();
    std::vector<std::uint8_t> bytes = validImage(cfg);
    // The L2D section: "cache", its name, then u32 lines, u32 valid, and
    // per valid line u32 index, u64 tag, u32 sector mask, u64 LRU tick.
    const std::uint8_t pattern[] = {5,   0,   0,   0,   'c', 'a', 'c', 'h',
                                    'e', 3,   0,   0,   0,   'l', '2', 'd'};
    auto it = std::search(bytes.begin(), bytes.end(), std::begin(pattern),
                          std::end(pattern));
    ASSERT_NE(it, bytes.end());
    std::size_t at = std::size_t(it - bytes.begin()) + sizeof(pattern);
    ASSERT_NE(bytes[at + 4] | bytes[at + 5] | bytes[at + 6] | bytes[at + 7],
              0) << "the L2D holds no valid line to corrupt";
    std::size_t tag_at = at + 8 + 4;
    for (std::size_t i = 0; i < 8; ++i)
        bytes[tag_at + i] = 0xff;
    std::string path = writeBytes("cache-tag.swckpt", bytes);
    std::unique_ptr<Gpu> gpu = freshGpu(cfg);
    EXPECT_DEATH(restoreCheckpoint(*gpu, path),
                 "'l2d' line [0-9]+: tag 0xffffffffffffffff overflows");
}

} // namespace
