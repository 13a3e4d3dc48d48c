/**
 * @file
 * Simulated GPU configuration.
 *
 * Defaults reproduce Table 3 of the paper (an RTX 3070-like GPU: 46 SMs,
 * 1500 MHz, two-level TLBs, 32 hardware page-table walkers, GDDR6).
 * Every experiment harness starts from makeDefaultConfig() and overrides the
 * knobs its sweep varies.
 */

#ifndef SW_SIM_CONFIG_HH
#define SW_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <utility>

#include "check/audit.hh"
#include "sim/types.hh"

namespace sw {

/** Which engine resolves L2 TLB misses. */
enum class TranslationMode
{
    HardwarePtw,   ///< Baseline: fixed pool of hardware walkers.
    SoftWalker,    ///< All walks handled by PW Warps on the SMs.
    Hybrid,        ///< HW walkers first; overflow goes to PW Warps (§5.4).
    Ideal,         ///< Unbounded walkers and MSHRs (upper bound).
};

/** Page-table organisation. */
enum class PageTableKind
{
    Radix4,        ///< Four-level radix table (baseline, §2.1).
    Hashed,        ///< Fixed-size hashed page table (FS-HPT baseline).
};

/** Request Distributor SM-selection policy (§6.3, Fig 26). */
enum class DistributorPolicy
{
    RoundRobin,    ///< Default (paper's choice).
    Random,
    StallAware,    ///< Prefer the SM with the most stalled warps.
};

/**
 * How SoftWalker arbitrates PW-Warp capacity across tenants when software
 * walks queue behind a full distributor.
 */
enum class PwArbitration
{
    Demand,           ///< Single global FIFO (the single-tenant behaviour).
    TenantRoundRobin, ///< Per-tenant queues drained round-robin.
};

const char *toString(TranslationMode mode);
const char *toString(PageTableKind kind);
const char *toString(DistributorPolicy policy);
const char *toString(PwArbitration arbitration);

/** Full simulated-machine configuration (Table 3 defaults). */
struct GpuConfig
{
    // ---- Core organisation ------------------------------------------
    std::uint32_t numSms = 46;
    std::uint32_t maxWarpsPerSm = 48;
    std::uint32_t warpSize = 32;
    double clockGhz = 1.5;

    // ---- L1 TLB (per SM, fully associative) -------------------------
    std::uint32_t l1TlbEntries = 32;
    Cycle l1TlbLatency = 10;
    std::uint32_t l1TlbMshrs = 32;
    std::uint32_t l1TlbMergesPerMshr = 192;

    // ---- L2 TLB (shared, 16-way) ------------------------------------
    std::uint32_t l2TlbEntries = 1024;
    std::uint32_t l2TlbWays = 16;
    Cycle l2TlbLatency = 80;
    std::uint32_t l2TlbMshrs = 128;
    std::uint32_t l2TlbMergesPerMshr = 46;

    // ---- Data caches --------------------------------------------------
    std::uint64_t l1dBytes = 128 * 1024;      ///< per SM
    Cycle l1dLatency = 40;
    std::uint32_t l1dWays = 8;
    std::uint64_t l2dBytes = 4ull * 1024 * 1024;
    Cycle l2dLatency = 180;
    std::uint32_t l2dWays = 16;
    std::uint32_t lineBytes = 128;
    std::uint32_t sectorBytes = 32;
    std::uint32_t l1dMshrs = 256;             ///< per SM
    /** Aggregate across the banked L2 slices (32 slices x 128). */
    std::uint32_t l2dMshrs = 4096;

    // ---- DRAM (GDDR6, 16 channels, 448 GB/s aggregate) ----------------
    std::uint32_t dramChannels = 16;
    Cycle dramLatency = 160;                  ///< access latency per request
    Cycle dramCyclesPerSector = 2;            ///< channel occupancy per 32 B

    // ---- Virtual memory ------------------------------------------------
    std::uint64_t pageBytes = 64 * 1024;      ///< base page (64 KB)
    PageTableKind pageTableKind = PageTableKind::Radix4;
    std::uint32_t pwcEntries = 32;            ///< page walk cache
    Cycle pwcLatency = 4;

    // ---- Hardware page-walk subsystem ----------------------------------
    std::uint32_t numPtws = 32;
    std::uint32_t pwbEntries = 64;            ///< page walk buffer capacity
    std::uint32_t pwbPorts = 1;               ///< enq+deq bandwidth per cycle
    bool nhaCoalescing = false;               ///< NHA baseline (§2.3)

    // ---- SoftWalker ------------------------------------------------------
    TranslationMode mode = TranslationMode::HardwarePtw;
    std::uint32_t pwWarpThreads = 32;         ///< lanes per PW Warp
    std::uint32_t softPwbEntries = 32;        ///< SoftPWB entries per SM
    /**
     * In-TLB MSHR capacity; 0 (the baseline default) disables it.
     * SoftWalker configurations enable up to 1024 entries (Table 3).
     */
    std::uint32_t inTlbMshrMax = 0;
    DistributorPolicy distributorPolicy = DistributorPolicy::RoundRobin;

    // ---- Multi-tenancy ---------------------------------------------------
    /**
     * Number of co-resident address spaces (tenants).  1 (the default)
     * is the single-tenant machine; every multi-tenant structure then
     * degenerates to the pre-ASID behaviour bit-for-bit.  Tenants own
     * contiguous SM slices: tenant t runs on SMs
     * [t*numSms/T, (t+1)*numSms/T).
     */
    std::uint32_t numTenants = 1;
    /**
     * MIG-style static partitioning: in addition to the SM slices, carve
     * the shared L2 TLB into per-tenant way slices (victim selection is
     * confined to a tenant's ways; lookups still scan every way) and pin
     * software page walks to the requesting tenant's own SMs.
     */
    bool migPartitioning = false;
    /**
     * Sub-entries per L2 TLB tag (Li et al.'s MIG TLB, PAPERS.md): one tag
     * covers a naturally aligned group of this many consecutive pages.
     * 1 (default) is the conventional one-translation-per-entry array;
     * values > 1 require the In-TLB MSHR to be disabled (the pending-entry
     * reservation protocol is defined on whole entries).
     */
    std::uint32_t l2SubEntries = 1;
    /**
     * Sub-entry sharing: let sub-slots of one tag entry hold translations
     * from different tenants (tag matches on the page-group base only; each
     * sub-slot carries its own ASID).  Tenants whose VPN ranges alias —
     * common, since each space starts near VA 0 — then share tag capacity
     * instead of duplicating it.  Requires l2SubEntries > 1.
     */
    bool l2SubEntrySharing = false;
    /** PW-Warp arbitration across tenants when software walks queue. */
    PwArbitration pwArbitration = PwArbitration::Demand;

    // ---- Sensitivity-study overrides ------------------------------------
    /**
     * When non-zero, replaces the dynamically measured per-level page-table
     * access latency with a fixed value (Fig 23 sweep).
     */
    Cycle fixedPtAccessLatency = 0;

    // ---- Run control ------------------------------------------------------
    std::uint64_t rngSeed = 1;

    /**
     * Cycle interval between conservation-audit sweeps (src/check); 0
     * disables periodic sweeps (the end-of-sim check always runs).  Audit
     * builds (-DSOFTWALKER_AUDIT=ON) default to sweeping; regular builds
     * keep the sweeps off the clock.
     */
    Cycle auditIntervalCycles = kAuditEnabled ? 10000 : 0;

    /** Number of page-table radix levels for the configured page size. */
    std::uint32_t pageTableLevels() const;

    /** Abort with fatal() if the configuration is inconsistent. */
    void validate() const;
};

// ---- Tenant topology helpers (shared by GPU, backends, harness) ----------

/** Tenant owning SM @p sm (contiguous slices; asid 0 when single-tenant). */
Asid tenantOfSm(const GpuConfig &cfg, SmId sm);

/** [first SM, SM count) of tenant @p asid's slice. */
std::pair<SmId, std::uint32_t> tenantSmRange(const GpuConfig &cfg,
                                             Asid asid);

/**
 * [first way, way count) of tenant @p asid's L2 TLB slice under MIG
 * partitioning; the full way range when partitioning is off.
 */
std::pair<std::uint32_t, std::uint32_t>
tenantWayRange(const GpuConfig &cfg, Asid asid);

/** Table 3 baseline configuration. */
GpuConfig makeDefaultConfig();

/**
 * Table 3 SoftWalker configuration: software (or hybrid) walks with
 * 32 PW-Warp threads/SM, a 32-entry SoftPWB, and 1024 In-TLB MSHRs.
 */
GpuConfig makeSoftWalkerConfig(
    TranslationMode mode = TranslationMode::SoftWalker,
    std::uint32_t in_tlb_mshrs = 1024);

/**
 * Convenience: scale the hardware walk subsystem together, as the paper does
 * in Figs 5/7/12 ("we also enlarge the L2 TLB MSHR and PWB entries
 * proportionally").
 */
void scalePtwSubsystem(GpuConfig &cfg, std::uint32_t num_ptws,
                       bool scale_mshrs = true, bool scale_pwb = true);

} // namespace sw

#endif // SW_SIM_CONFIG_HH
