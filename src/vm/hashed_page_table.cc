#include "vm/hashed_page_table.hh"

#include <bit>

#include "ckpt/ckpt_io.hh"
#include "sim/logging.hh"

namespace sw {

HashedPageTable::HashedPageTable(const PageGeometry &geom,
                                 FrameAllocator &alloc, std::uint64_t nslots)
    : geometry(geom), allocator(alloc), numSlots(nslots)
{
    SW_ASSERT(std::has_single_bit(numSlots),
              "hash table slots must be a power of two");
    tableBase = allocator.allocTable(numSlots * kSlotBytes);
    slots.resize(numSlots);
}

std::uint64_t
HashedPageTable::hashVpn(Vpn vpn) const
{
    // Fibonacci hashing: cheap and well distributed for sequential VPNs.
    return (vpn * 0x9e3779b97f4a7c15ULL) >> (64 - std::countr_zero(numSlots));
}

Pfn
HashedPageTable::ensureMapped(Vpn vpn)
{
    std::uint64_t idx = hashVpn(vpn);
    for (std::uint64_t probe = 0; probe < numSlots; ++probe) {
        Slot &slot = slots[(idx + probe) & (numSlots - 1)];
        if (slot.used && slot.vpn == vpn)
            return slot.pfn;
        if (!slot.used) {
            slot.used = true;
            slot.vpn = vpn;
            slot.pfn = allocator.allocDataFrame();
            ++usedSlots;
            if (probe > 0)
                ++collisionCount;
            return slot.pfn;
        }
    }
    fatal("hashed page table full (%llu slots)",
          static_cast<unsigned long long>(numSlots));
}

bool
HashedPageTable::isMapped(Vpn vpn) const
{
    std::uint64_t idx = hashVpn(vpn);
    for (std::uint64_t probe = 0; probe < numSlots; ++probe) {
        const Slot &slot = slots[(idx + probe) & (numSlots - 1)];
        if (!slot.used)
            return false;
        if (slot.vpn == vpn)
            return true;
    }
    return false;
}

Pfn
HashedPageTable::translate(Vpn vpn) const
{
    std::uint64_t idx = hashVpn(vpn);
    for (std::uint64_t probe = 0; probe < numSlots; ++probe) {
        const Slot &slot = slots[(idx + probe) & (numSlots - 1)];
        SW_ASSERT(slot.used, "translate() on unmapped VPN");
        if (slot.vpn == vpn)
            return slot.pfn;
    }
    panic("translate() fell off the hash table");
}

WalkCursor
HashedPageTable::startWalk() const
{
    WalkCursor cur;
    cur.level = 1;
    cur.tableBase = 0;   // probe counter lives in tableBase
    return cur;
}

WalkCursor
HashedPageTable::resumeWalk(int, PhysAddr) const
{
    return startWalk();
}

std::uint64_t
HashedPageTable::probeOf(const WalkCursor &cur) const
{
    return cur.tableBase;   // linear-probe distance so far
}

PhysAddr
HashedPageTable::pteAddr(const WalkCursor &cur, Vpn vpn) const
{
    SW_ASSERT(!cur.done, "pteAddr on a finished walk");
    std::uint64_t idx = (hashVpn(vpn) + probeOf(cur)) & (numSlots - 1);
    return tableBase + idx * kSlotBytes;
}

void
HashedPageTable::advance(WalkCursor &cur, Vpn vpn) const
{
    SW_ASSERT(!cur.done, "advance on a finished walk");
    std::uint64_t idx = (hashVpn(vpn) + probeOf(cur)) & (numSlots - 1);
    const Slot &slot = slots[idx];
    if (!slot.used) {
        cur.done = true;
        cur.fault = true;
        return;
    }
    if (slot.vpn == vpn) {
        cur.done = true;
        cur.pfn = slot.pfn;
        return;
    }
    // Collision: continue the probe chain with another memory read.
    ++cur.tableBase;
    if (cur.tableBase >= numSlots) {
        cur.done = true;
        cur.fault = true;
    }
}

int
HashedPageTable::walkReads(Vpn vpn) const
{
    std::uint64_t idx = hashVpn(vpn);
    for (std::uint64_t probe = 0; probe < numSlots; ++probe) {
        const Slot &slot = slots[(idx + probe) & (numSlots - 1)];
        if (!slot.used || slot.vpn == vpn)
            return int(probe) + 1;
    }
    return int(numSlots);
}

double
HashedPageTable::loadFactor() const
{
    return double(usedSlots) / double(numSlots);
}

void
HashedPageTable::saveState(CkptWriter &w) const
{
    w.section("hashed_pt");
    w.u64(numSlots);
    w.u64(tableBase);
    w.u64(usedSlots);
    w.u64(collisionCount);
    w.u64(usedSlots);   // element count of the sparse slot list below
    for (std::uint64_t i = 0; i < numSlots; ++i) {
        const Slot &slot = slots[i];
        if (!slot.used)
            continue;
        w.u64(i);
        w.u64(slot.vpn);
        w.u64(slot.pfn);
    }
}

void
HashedPageTable::restoreState(CkptReader &r)
{
    r.expectSection("hashed_pt");
    std::uint64_t n = r.u64();
    if (n != numSlots) {
        fatal("checkpoint hashed page table has %llu slots, this config "
              "has %llu", static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(numSlots));
    }
    tableBase = r.u64();
    usedSlots = r.u64();
    collisionCount = r.u64();
    std::uint64_t used = r.count(24, "hashed page-table slots");
    if (used != usedSlots)
        fatal("checkpoint hashed page table slot list disagrees with its "
              "used counter");
    for (auto &slot : slots)
        slot = Slot{};
    for (std::uint64_t i = 0; i < used; ++i) {
        std::uint64_t idx = r.u64();
        if (idx >= numSlots)
            fatal("checkpoint hashed page-table slot index out of range");
        Slot &slot = slots[idx];
        if (slot.used)
            fatal("checkpoint hashed page-table slot duplicated");
        slot.used = true;
        slot.vpn = r.u64();
        slot.pfn = r.u64();
    }
}

} // namespace sw
