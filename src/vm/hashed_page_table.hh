/**
 * @file
 * Fixed-size hashed page table (the FS-HPT baseline, Jang et al. PACT'24).
 *
 * Replaces the radix hierarchy with a single open-addressed hash table in
 * simulated physical memory: a walk is one PTE read on a direct hit, plus
 * one extra read per linear probe on collision.  FS-HPT reduces memory
 * accesses per walk but does not raise walker throughput — which is exactly
 * the contrast the paper draws (Table 1, Fig 16).
 */

#ifndef SW_VM_HASHED_PAGE_TABLE_HH
#define SW_VM_HASHED_PAGE_TABLE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "vm/page_table.hh"

namespace sw {

/** Open-addressing (linear probing) hashed page table. */
class HashedPageTable : public PageTableBase
{
  public:
    /**
     * @param geom page geometry
     * @param alloc frame allocator
     * @param slots hash-table capacity (power of two); the paper sizes it
     *        so GPU workloads see a low collision rate.
     */
    HashedPageTable(const PageGeometry &geom, FrameAllocator &alloc,
                    std::uint64_t slots = 1ull << 20);

    Pfn ensureMapped(Vpn vpn) override;
    bool isMapped(Vpn vpn) const override;
    Pfn translate(Vpn vpn) const override;

    WalkCursor startWalk() const override;
    WalkCursor resumeWalk(int level, PhysAddr base) const override;
    PhysAddr pteAddr(const WalkCursor &cur, Vpn vpn) const override;
    void advance(WalkCursor &cur, Vpn vpn) const override;
    int topLevel() const override { return 1; }
    bool usesPwc() const override { return false; }
    std::uint64_t pwcPrefix(int, Vpn) const override { return 0; }
    int walkReads(Vpn vpn) const override;

    double loadFactor() const;

    void saveState(CkptWriter &w) const override;
    void restoreState(CkptReader &r) override;

  private:
    /** Slot in the simulated hash table (16 B each: tag + PTE). */
    struct Slot
    {
        bool used = false;
        Vpn vpn = 0;
        Pfn pfn = 0;
    };

    static constexpr std::uint64_t kSlotBytes = 16;

    std::uint64_t hashVpn(Vpn vpn) const;
    std::uint64_t probeOf(const WalkCursor &cur) const;

    PageGeometry geometry;
    FrameAllocator &allocator;
    std::uint64_t numSlots;
    PhysAddr tableBase;
    std::vector<Slot> slots;
    std::uint64_t usedSlots = 0;
    std::uint64_t collisionCount = 0;
};

} // namespace sw

#endif // SW_VM_HASHED_PAGE_TABLE_HH
