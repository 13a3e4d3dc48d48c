/**
 * @file
 * Virtual/physical address helpers.
 *
 * The simulated machine uses 49-bit virtual and 47-bit physical addresses
 * (GP100 MMU format, as the paper assumes in §4.4).
 */

#ifndef SW_VM_ADDRESS_HH
#define SW_VM_ADDRESS_HH

#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace sw {

inline constexpr unsigned kVirtAddrBits = 49;
inline constexpr unsigned kPhysAddrBits = 47;

/**
 * The unit of translation: a virtual page number qualified by the address
 * space it belongs to.  Every translation-path API (TLB lookup/fill, In-TLB
 * MSHR reservation, PWC, walk requests, fault records) is keyed by a
 * TranslationKey so entries from different tenants can coexist in shared
 * structures without aliasing.  ASID 0 is the single-tenant address space;
 * a key's ordering and hash for asid 0 keep the same relative order the
 * bare-Vpn code paths had, which the determinism suites rely on.
 */
struct TranslationKey
{
    Asid asid = 0;
    Vpn vpn = 0;

    /** Ordered (asid, vpn) — usable with sortedKeys() and std::map. */
    friend auto operator<=>(const TranslationKey &,
                            const TranslationKey &) = default;
};

/** The empty-slot key of FlatMaps keyed by translation (no such ASID). */
inline constexpr TranslationKey kNoTranslationKey{~Asid(0), ~Vpn(0)};

} // namespace sw

template <>
struct std::hash<sw::TranslationKey>
{
    std::size_t
    operator()(const sw::TranslationKey &key) const noexcept
    {
        // ASID folded into the high VA bits: for asid 0 the hash equals
        // std::hash<Vpn>, preserving the container iteration behaviour of
        // the pre-multi-tenant code (defence in depth on top of
        // sortedKeys(); single-tenant fingerprints must not move).
        return std::hash<sw::Vpn>()(
            key.vpn ^ (static_cast<std::uint64_t>(key.asid) << 49));
    }
};

namespace sw {

/** Page-size plumbing: offset bits, VPN extraction, recomposition. */
class PageGeometry
{
  public:
    explicit PageGeometry(std::uint64_t page_bytes)
        : bytes(page_bytes),
          offsetBits(static_cast<unsigned>(std::countr_zero(page_bytes)))
    {
        SW_ASSERT(std::has_single_bit(page_bytes),
                  "page size must be a power of two");
    }

    std::uint64_t pageBytes() const { return bytes; }
    unsigned pageOffsetBits() const { return offsetBits; }

    Vpn vpnOf(VirtAddr va) const { return va >> offsetBits; }
    std::uint64_t offsetOf(VirtAddr va) const { return va & (bytes - 1); }

    VirtAddr
    composeVa(Vpn vpn, std::uint64_t offset) const
    {
        return (vpn << offsetBits) | (offset & (bytes - 1));
    }

    PhysAddr
    composePa(Pfn pfn, std::uint64_t offset) const
    {
        return (pfn << offsetBits) | (offset & (bytes - 1));
    }

    /** Number of VPN bits for this page size in the 49-bit VA space. */
    unsigned vpnBits() const { return kVirtAddrBits - offsetBits; }

  private:
    std::uint64_t bytes;
    unsigned offsetBits;
};

} // namespace sw

#endif // SW_VM_ADDRESS_HH
