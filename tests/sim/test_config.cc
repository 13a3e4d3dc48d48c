/** @file Unit tests for GpuConfig (Table 3 defaults and validation). */

#include <gtest/gtest.h>

#include "sim/config.hh"

using namespace sw;

TEST(Config, Table3Defaults)
{
    GpuConfig cfg = makeDefaultConfig();
    EXPECT_EQ(cfg.numSms, 46u);
    EXPECT_EQ(cfg.maxWarpsPerSm, 48u);
    EXPECT_EQ(cfg.warpSize, 32u);
    EXPECT_EQ(cfg.l1TlbEntries, 32u);
    EXPECT_EQ(cfg.l1TlbLatency, 10u);
    EXPECT_EQ(cfg.l1TlbMshrs, 32u);
    EXPECT_EQ(cfg.l1TlbMergesPerMshr, 192u);
    EXPECT_EQ(cfg.l2TlbEntries, 1024u);
    EXPECT_EQ(cfg.l2TlbWays, 16u);
    EXPECT_EQ(cfg.l2TlbLatency, 80u);
    EXPECT_EQ(cfg.l2TlbMshrs, 128u);
    EXPECT_EQ(cfg.l2TlbMergesPerMshr, 46u);
    EXPECT_EQ(cfg.pageBytes, 64u * 1024u);
    EXPECT_EQ(cfg.numPtws, 32u);
    EXPECT_EQ(cfg.pwcEntries, 32u);
    EXPECT_EQ(cfg.dramChannels, 16u);
    EXPECT_EQ(cfg.mode, TranslationMode::HardwarePtw);
    EXPECT_EQ(cfg.inTlbMshrMax, 0u) << "In-TLB MSHR is off in the baseline";
}

TEST(Config, SoftWalkerConfigEnablesInTlbMshr)
{
    GpuConfig cfg = makeSoftWalkerConfig();
    EXPECT_EQ(cfg.mode, TranslationMode::SoftWalker);
    EXPECT_EQ(cfg.inTlbMshrMax, 1024u);
    EXPECT_EQ(cfg.pwWarpThreads, 32u);
    EXPECT_EQ(cfg.softPwbEntries, 32u);
    cfg.validate();
}

TEST(Config, HybridConfig)
{
    GpuConfig cfg = makeSoftWalkerConfig(TranslationMode::Hybrid);
    EXPECT_EQ(cfg.mode, TranslationMode::Hybrid);
    cfg.validate();
}

TEST(Config, PageTableLevels)
{
    GpuConfig cfg = makeDefaultConfig();
    EXPECT_EQ(cfg.pageTableLevels(), 4u);
    cfg.pageBytes = 2ull * 1024 * 1024;
    EXPECT_EQ(cfg.pageTableLevels(), 3u);
}

TEST(Config, ScalePtwSubsystem)
{
    GpuConfig cfg = makeDefaultConfig();
    scalePtwSubsystem(cfg, 128);
    EXPECT_EQ(cfg.numPtws, 128u);
    EXPECT_EQ(cfg.pwbEntries, 256u);
    EXPECT_EQ(cfg.l2TlbMshrs, 512u);
}

TEST(Config, ScalePtwOnly)
{
    GpuConfig cfg = makeDefaultConfig();
    scalePtwSubsystem(cfg, 256, /*scale_mshrs=*/false, /*scale_pwb=*/true);
    EXPECT_EQ(cfg.numPtws, 256u);
    EXPECT_EQ(cfg.l2TlbMshrs, 128u);
    EXPECT_EQ(cfg.pwbEntries, 512u);
}

TEST(Config, ValidateAcceptsDefaults)
{
    makeDefaultConfig().validate();
}

TEST(ConfigDeath, RejectsBadPageSize)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.pageBytes = 4096;
    EXPECT_DEATH(cfg.validate(), "page size");
}

TEST(ConfigDeath, RejectsIndivisibleL2Tlb)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.l2TlbEntries = 1000;
    EXPECT_DEATH(cfg.validate(), "divisible");
}

TEST(ConfigDeath, RejectsZeroSms)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.numSms = 0;
    EXPECT_DEATH(cfg.validate(), "non-zero");
}

TEST(ConfigDeath, RejectsMoreWarpsThanATranslationRecordNames)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.maxWarpsPerSm = (1u << 22) + 1;
    EXPECT_DEATH(cfg.validate(), "maxWarpsPerSm \\(4194305\\) exceeds");
    cfg.maxWarpsPerSm = 1u << 22;
    cfg.validate();
}

TEST(ConfigDeath, RejectsOversizedInTlbMshr)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.inTlbMshrMax = cfg.l2TlbEntries + 1;
    EXPECT_DEATH(cfg.validate(), "In-TLB");
}

// Cache and TLB geometries that would otherwise crash a constructor or the
// first lookup (a division by zero, or a zero-set cache) die in validate()
// with a message naming the field.

TEST(ConfigDeath, RejectsZeroL1TlbEntries)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.l1TlbEntries = 0;
    EXPECT_DEATH(cfg.validate(), "l1TlbEntries");
}

TEST(ConfigDeath, RejectsZeroL2TlbWays)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.l2TlbWays = 0;
    EXPECT_DEATH(cfg.validate(), "l2TlbWays");
    cfg = makeDefaultConfig();
    cfg.l2TlbEntries = 0;
    EXPECT_DEATH(cfg.validate(), "l2TlbEntries");
}

TEST(ConfigDeath, RejectsNonPowerOfTwoLine)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.lineBytes = 96;
    EXPECT_DEATH(cfg.validate(), "lineBytes \\(96\\) must be a power of two");
    cfg.lineBytes = 1;
    cfg.sectorBytes = 1;
    EXPECT_DEATH(cfg.validate(), "lineBytes \\(1\\)");
}

TEST(ConfigDeath, RejectsNonPowerOfTwoSector)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.sectorBytes = 0;
    EXPECT_DEATH(cfg.validate(), "sectorBytes \\(0\\) must be a power of two");
    cfg.sectorBytes = 24;
    EXPECT_DEATH(cfg.validate(), "sectorBytes \\(24\\)");
}

TEST(ConfigDeath, RejectsSectorLargerThanLine)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.sectorBytes = 2 * cfg.lineBytes;
    EXPECT_DEATH(cfg.validate(), "multiple of sector size");
}

TEST(ConfigDeath, RejectsMoreThan32SectorsPerLine)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.lineBytes = 2048;
    cfg.sectorBytes = 32;
    EXPECT_DEATH(cfg.validate(), "64 sectors per line");
}

TEST(ConfigDeath, RejectsZeroCacheWays)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.l1dWays = 0;
    EXPECT_DEATH(cfg.validate(), "l1dWays must be non-zero");
    cfg = makeDefaultConfig();
    cfg.l2dWays = 0;
    EXPECT_DEATH(cfg.validate(), "l2dWays must be non-zero");
}

TEST(ConfigDeath, RejectsCacheOfPartialSets)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.l1dBytes += cfg.lineBytes;   // one line past a whole set
    EXPECT_DEATH(cfg.validate(), "l1dBytes \\(131200\\) is not a whole number");
    cfg = makeDefaultConfig();
    cfg.l2dBytes = cfg.lineBytes * cfg.l2dWays / 2;   // no set at all
    EXPECT_DEATH(cfg.validate(), "l2dBytes \\(1024\\) is not a whole number");
    cfg.l2dBytes = 0;
    EXPECT_DEATH(cfg.validate(), "l2dBytes \\(0\\)");
}

// Walker, PWC, DRAM and MSHR settings that would otherwise panic in a
// constructor or deadlock until the end-of-run audit die in validate(),
// naming the field.  Their accepted neighbours run in
// RunSpec.NeighboursOfRejectedConfigsRun.

TEST(ConfigDeath, RejectsHybridWithoutWalkers)
{
    GpuConfig cfg = makeSoftWalkerConfig(TranslationMode::Hybrid);
    cfg.numPtws = 0;
    EXPECT_DEATH(cfg.validate(), "hybrid mode needs numPtws > 0");
}

TEST(ConfigDeath, RejectsZeroPwbPorts)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.pwbPorts = 0;
    EXPECT_DEATH(cfg.validate(), "hw-ptw mode needs pwbPorts > 0");
    cfg = makeSoftWalkerConfig(TranslationMode::Hybrid);
    cfg.pwbPorts = 0;
    EXPECT_DEATH(cfg.validate(), "hybrid mode needs pwbPorts > 0");
}

TEST(ConfigDeath, RejectsPwWarpLanesOutOfRange)
{
    for (TranslationMode mode :
         {TranslationMode::SoftWalker, TranslationMode::Hybrid}) {
        GpuConfig cfg = makeSoftWalkerConfig(mode);
        cfg.pwWarpThreads = 0;
        EXPECT_DEATH(cfg.validate(), "pwWarpThreads \\(0\\) must be 1..32");
        cfg.pwWarpThreads = 64;
        EXPECT_DEATH(cfg.validate(), "pwWarpThreads \\(64\\)");
    }
}

TEST(ConfigDeath, RejectsZeroDramChannels)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.dramChannels = 0;
    EXPECT_DEATH(cfg.validate(), "dramChannels must be non-zero");
}

TEST(ConfigDeath, RejectsZeroPwcEntries)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.pwcEntries = 0;
    EXPECT_DEATH(cfg.validate(), "pwcEntries must be non-zero");
}

TEST(ConfigDeath, RejectsZeroL1TlbMshrs)
{
    for (TranslationMode mode :
         {TranslationMode::HardwarePtw, TranslationMode::SoftWalker,
          TranslationMode::Hybrid}) {
        GpuConfig cfg = mode == TranslationMode::HardwarePtw
                            ? makeDefaultConfig()
                            : makeSoftWalkerConfig(mode);
        cfg.l1TlbMshrs = 0;
        EXPECT_DEATH(cfg.validate(), "l1TlbMshrs must be non-zero");
    }
}

TEST(ConfigDeath, RejectsZeroL2TlbMshrsWithoutInTlbMshr)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.l2TlbMshrs = 0;
    EXPECT_DEATH(cfg.validate(), "l2TlbMshrs must be non-zero without");
    cfg = makeSoftWalkerConfig(TranslationMode::SoftWalker, 0);
    cfg.l2TlbMshrs = 0;
    EXPECT_DEATH(cfg.validate(), "l2TlbMshrs must be non-zero without");
}

TEST(ConfigDeath, RejectsZeroDataCacheMshrs)
{
    GpuConfig cfg = makeDefaultConfig();
    cfg.l1dMshrs = 0;
    EXPECT_DEATH(cfg.validate(), "l1dMshrs must be non-zero");
    cfg = makeDefaultConfig();
    cfg.l2dMshrs = 0;
    EXPECT_DEATH(cfg.validate(), "l2dMshrs must be non-zero");
}

TEST(ConfigDeath, SoftWalkerConfigRejectsHardwareMode)
{
    EXPECT_DEATH(makeSoftWalkerConfig(TranslationMode::HardwarePtw),
                 "SoftWalker or Hybrid");
}

TEST(Config, ModeNames)
{
    EXPECT_STREQ(toString(TranslationMode::HardwarePtw), "hw-ptw");
    EXPECT_STREQ(toString(TranslationMode::SoftWalker), "softwalker");
    EXPECT_STREQ(toString(TranslationMode::Hybrid), "hybrid");
    EXPECT_STREQ(toString(TranslationMode::Ideal), "ideal");
    EXPECT_STREQ(toString(PageTableKind::Radix4), "radix4");
    EXPECT_STREQ(toString(PageTableKind::Hashed), "hashed");
    EXPECT_STREQ(toString(DistributorPolicy::RoundRobin), "round-robin");
    EXPECT_STREQ(toString(DistributorPolicy::Random), "random");
    EXPECT_STREQ(toString(DistributorPolicy::StallAware), "stall-aware");
}
