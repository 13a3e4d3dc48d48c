#include "sim/config.hh"

#include <bit>

#include "sim/logging.hh"

namespace sw {

const char *
toString(TranslationMode mode)
{
    switch (mode) {
      case TranslationMode::HardwarePtw: return "hw-ptw";
      case TranslationMode::SoftWalker:  return "softwalker";
      case TranslationMode::Hybrid:      return "hybrid";
      case TranslationMode::Ideal:       return "ideal";
    }
    return "?";
}

const char *
toString(PageTableKind kind)
{
    switch (kind) {
      case PageTableKind::Radix4: return "radix4";
      case PageTableKind::Hashed: return "hashed";
    }
    return "?";
}

const char *
toString(DistributorPolicy policy)
{
    switch (policy) {
      case DistributorPolicy::RoundRobin: return "round-robin";
      case DistributorPolicy::Random:     return "random";
      case DistributorPolicy::StallAware: return "stall-aware";
    }
    return "?";
}

const char *
toString(PwArbitration arbitration)
{
    switch (arbitration) {
      case PwArbitration::Demand:           return "demand";
      case PwArbitration::TenantRoundRobin: return "tenant-rr";
    }
    return "?";
}

std::uint32_t
GpuConfig::pageTableLevels() const
{
    // 49-bit virtual addresses (GP100 MMU format). 64 KB pages leave a
    // 33-bit VPN covered by four radix levels; 2 MB pages leave a 28-bit
    // VPN covered by three.
    return pageBytes >= 2ull * 1024 * 1024 ? 3 : 4;
}

void
GpuConfig::validate() const
{
    if (numSms == 0 || maxWarpsPerSm == 0 || warpSize == 0)
        fatal("GpuConfig: core organisation must be non-zero");
    if (warpSize > 32)
        fatal("GpuConfig: warpSize > 32 unsupported");
    // A translation record names its warp in 22 bits (Sm::runSlot).
    if (maxWarpsPerSm > (1u << 22))
        fatal("GpuConfig: maxWarpsPerSm (%u) exceeds 4194304",
              maxWarpsPerSm);
    if (l1TlbEntries == 0)
        fatal("GpuConfig: l1TlbEntries must be non-zero");
    if (l2TlbEntries == 0 || l2TlbWays == 0)
        fatal("GpuConfig: l2TlbEntries and l2TlbWays must be non-zero");
    if (l2TlbEntries % l2TlbWays != 0)
        fatal("GpuConfig: L2 TLB entries (%u) not divisible by ways (%u)",
              l2TlbEntries, l2TlbWays);
    if (pageBytes != 64ull * 1024 && pageBytes != 2ull * 1024 * 1024)
        fatal("GpuConfig: page size must be 64KB or 2MB");
    // The caches split addresses with shifts and masks.
    if (!std::has_single_bit(lineBytes) || lineBytes < 2)
        fatal("GpuConfig: lineBytes (%u) must be a power of two >= 2",
              lineBytes);
    if (!std::has_single_bit(sectorBytes))
        fatal("GpuConfig: sectorBytes (%u) must be a power of two",
              sectorBytes);
    if (lineBytes % sectorBytes != 0)
        fatal("GpuConfig: line size not a multiple of sector size");
    if (lineBytes / sectorBytes > 32) {
        fatal("GpuConfig: %u sectors per line (lineBytes / sectorBytes) "
              "exceed the 32-bit sector mask", lineBytes / sectorBytes);
    }
    auto check_cache = [this](const char *name, std::uint64_t bytes,
                              std::uint32_t ways, std::uint32_t mshrs) {
        if (ways == 0)
            fatal("GpuConfig: %sWays must be non-zero", name);
        if (mshrs == 0)
            fatal("GpuConfig: %sMshrs must be non-zero", name);
        std::uint64_t set_bytes = std::uint64_t(lineBytes) * ways;
        if (bytes == 0 || bytes % set_bytes != 0) {
            fatal("GpuConfig: %sBytes (%llu) is not a whole number of "
                  "%u-way sets of %u-byte lines", name,
                  static_cast<unsigned long long>(bytes), ways, lineBytes);
        }
    };
    check_cache("l1d", l1dBytes, l1dWays, l1dMshrs);
    check_cache("l2d", l2dBytes, l2dWays, l2dMshrs);
    if (dramChannels == 0)
        fatal("GpuConfig: dramChannels must be non-zero");
    if (pwcEntries == 0)
        fatal("GpuConfig: pwcEntries must be non-zero");
    // Ideal mode never runs out of TLB MSHRs.
    if (mode != TranslationMode::Ideal) {
        if (l1TlbMshrs == 0)
            fatal("GpuConfig: l1TlbMshrs must be non-zero");
        if (l2TlbMshrs == 0 && inTlbMshrMax == 0) {
            fatal("GpuConfig: l2TlbMshrs must be non-zero without the "
                  "In-TLB MSHR (inTlbMshrMax = 0)");
        }
    }
    bool pw_warps = mode == TranslationMode::SoftWalker ||
                    mode == TranslationMode::Hybrid;
    bool hw_walkers = mode == TranslationMode::HardwarePtw ||
                      mode == TranslationMode::Hybrid;
    if (pw_warps && softPwbEntries == 0)
        fatal("GpuConfig: SoftWalker mode requires SoftPWB entries");
    if (pw_warps && (pwWarpThreads == 0 || pwWarpThreads > 32)) {
        fatal("GpuConfig: pwWarpThreads (%u) must be 1..32, the lanes of "
              "one warp", pwWarpThreads);
    }
    if (hw_walkers && numPtws == 0)
        fatal("GpuConfig: %s mode needs numPtws > 0", toString(mode));
    if (hw_walkers && pwbPorts == 0)
        fatal("GpuConfig: %s mode needs pwbPorts > 0", toString(mode));
    if (inTlbMshrMax > l2TlbEntries)
        fatal("GpuConfig: In-TLB MSHR capacity (%u) exceeds L2 TLB size (%u)",
              inTlbMshrMax, l2TlbEntries);
    if (numTenants == 0)
        fatal("GpuConfig: at least one tenant required");
    if (numTenants > numSms)
        fatal("GpuConfig: %u tenants cannot slice %u SMs", numTenants,
              numSms);
    if (numTenants > 0x10000)
        fatal("GpuConfig: at most 65536 tenants (16-bit ASIDs)");
    if (migPartitioning && numTenants > l2TlbWays) {
        fatal("GpuConfig: MIG partitioning needs a way per tenant "
              "(%u tenants, %u ways)", numTenants, l2TlbWays);
    }
    if (l2SubEntries == 0 || (l2SubEntries & (l2SubEntries - 1)) != 0)
        fatal("GpuConfig: l2SubEntries must be a power of two");
    if (l2SubEntries > 1) {
        if (inTlbMshrMax > 0) {
            fatal("GpuConfig: the sub-entry L2 TLB and the In-TLB MSHR "
                  "are mutually exclusive");
        }
        if (l2TlbEntries % (l2SubEntries * l2TlbWays) != 0) {
            fatal("GpuConfig: L2 TLB entries (%u) not divisible by "
                  "l2SubEntries*ways (%u*%u)", l2TlbEntries, l2SubEntries,
                  l2TlbWays);
        }
    }
    if (l2SubEntrySharing && l2SubEntries <= 1)
        fatal("GpuConfig: sub-entry sharing requires l2SubEntries > 1");
}

GpuConfig
makeDefaultConfig()
{
    return GpuConfig{};
}

GpuConfig
makeSoftWalkerConfig(TranslationMode mode, std::uint32_t in_tlb_mshrs)
{
    if (mode != TranslationMode::SoftWalker &&
        mode != TranslationMode::Hybrid) {
        fatal("makeSoftWalkerConfig: mode must be SoftWalker or Hybrid");
    }
    GpuConfig cfg;
    cfg.mode = mode;
    cfg.inTlbMshrMax = in_tlb_mshrs;
    return cfg;
}

Asid
tenantOfSm(const GpuConfig &cfg, SmId sm)
{
    SW_ASSERT(sm < cfg.numSms, "SM id out of range");
    if (cfg.numTenants <= 1)
        return 0;
    // Inverse of tenantSmRange's floor slicing: the last tenant whose
    // slice starts at or before sm.
    std::uint64_t t = (std::uint64_t(sm) * cfg.numTenants) / cfg.numSms;
    while (t + 1 < cfg.numTenants &&
           (std::uint64_t(t + 1) * cfg.numSms) / cfg.numTenants <= sm)
        ++t;
    while (t > 0 && (std::uint64_t(t) * cfg.numSms) / cfg.numTenants > sm)
        --t;
    return static_cast<Asid>(t);
}

std::pair<SmId, std::uint32_t>
tenantSmRange(const GpuConfig &cfg, Asid asid)
{
    SW_ASSERT(asid < cfg.numTenants, "tenant id out of range");
    std::uint32_t t = cfg.numTenants;
    SmId begin = SmId((std::uint64_t(asid) * cfg.numSms) / t);
    SmId end = SmId((std::uint64_t(asid + 1) * cfg.numSms) / t);
    return {begin, end - begin};
}

std::pair<std::uint32_t, std::uint32_t>
tenantWayRange(const GpuConfig &cfg, Asid asid)
{
    SW_ASSERT(asid < cfg.numTenants, "tenant id out of range");
    if (!cfg.migPartitioning || cfg.numTenants <= 1)
        return {0, cfg.l2TlbWays};
    std::uint32_t t = cfg.numTenants;
    std::uint32_t begin =
        std::uint32_t((std::uint64_t(asid) * cfg.l2TlbWays) / t);
    std::uint32_t end =
        std::uint32_t((std::uint64_t(asid + 1) * cfg.l2TlbWays) / t);
    return {begin, end - begin};
}

void
scalePtwSubsystem(GpuConfig &cfg, std::uint32_t num_ptws,
                  bool scale_mshrs, bool scale_pwb)
{
    SW_ASSERT(num_ptws > 0, "cannot scale to zero PTWs");
    double factor = double(num_ptws) / 32.0;
    cfg.numPtws = num_ptws;
    if (scale_pwb) {
        cfg.pwbEntries =
            static_cast<std::uint32_t>(std::max(1.0, 64.0 * factor));
    }
    if (scale_mshrs) {
        cfg.l2TlbMshrs =
            static_cast<std::uint32_t>(std::max(1.0, 128.0 * factor));
    }
}

} // namespace sw
