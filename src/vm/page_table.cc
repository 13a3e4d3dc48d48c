#include "vm/page_table.hh"

#include "ckpt/ckpt_io.hh"
#include "sim/logging.hh"
#include "sim/ordered.hh"

namespace sw {

// Physical layout of simulated memory: data pages grow from 4 GB up,
// page-table storage from 1 GB up.  Keeping the regions disjoint makes
// address-based assertions cheap.
namespace {
constexpr PhysAddr kTableRegionBase = 1ull << 30;
constexpr PhysAddr kDataRegionBase = 4ull << 30;
} // namespace

FrameAllocator::FrameAllocator(std::uint64_t page_bytes)
    : pageBytes(page_bytes),
      dataCursor(kDataRegionBase),
      tableCursor(kTableRegionBase)
{
}

Pfn
FrameAllocator::allocDataFrame()
{
    PhysAddr base = dataCursor;
    dataCursor += pageBytes;
    ++dataFrames;
    SW_ASSERT(dataCursor < (1ull << kPhysAddrBits),
              "simulated physical memory exhausted");
    return base / pageBytes;
}

PhysAddr
FrameAllocator::allocTable(std::uint64_t bytes)
{
    // Keep table nodes 256 B aligned so PTE sectors never straddle nodes.
    std::uint64_t aligned = (bytes + 255) & ~std::uint64_t(255);
    PhysAddr base = tableCursor;
    tableCursor += aligned;
    tableBytes += aligned;
    SW_ASSERT(tableCursor < kDataRegionBase,
              "page-table region exhausted");
    return base;
}

RadixPageTable::RadixPageTable(const PageGeometry &geom,
                               FrameAllocator &alloc)
    : geometry(geom), allocator(alloc)
{
    // Split the VPN bits across levels, giving the leaf level the remainder.
    // 64 KB pages: 33 VPN bits -> {9, 8, 8, 8} (top..leaf).
    // 2 MB pages:  28 VPN bits -> {10, 9, 9} (top..leaf).
    unsigned vpn_bits = geometry.vpnBits();
    unsigned levels = vpn_bits > 30 ? 4 : 3;
    levelBits.assign(levels + 1, 0);
    unsigned remaining = vpn_bits;
    for (unsigned lvl = levels; lvl >= 1; --lvl) {
        unsigned share = (remaining + lvl - 1) / lvl;
        levelBits[lvl] = share;
        remaining -= share;
    }
    SW_ASSERT(remaining == 0, "level split failed");
    root = allocNode(int(levels));
}

unsigned
RadixPageTable::bitsBelow(int level) const
{
    unsigned bits = 0;
    for (int l = 1; l < level; ++l)
        bits += levelBits[std::size_t(l)];
    return bits;
}

std::uint64_t
RadixPageTable::levelIndex(int level, Vpn vpn) const
{
    unsigned shift = bitsBelow(level);
    std::uint64_t mask = (1ull << levelBits[std::size_t(level)]) - 1;
    return (vpn >> shift) & mask;
}

std::uint64_t
RadixPageTable::pwcPrefix(int level, Vpn vpn) const
{
    // The base of the level-L table is determined by the VPN bits consumed
    // by all levels above L.
    unsigned shift = bitsBelow(level) + levelBits[std::size_t(level)];
    return vpn >> shift;
}

PhysAddr
RadixPageTable::allocNode(int level)
{
    std::uint64_t entries = 1ull << levelBits[std::size_t(level)];
    PhysAddr base = allocator.allocTable(entries * kPteBytes);
    auto node = std::make_unique<Node>();
    node->base = base;
    node->entries.resize(entries);
    nodes.emplace(base, std::move(node));
    return base;
}

RadixPageTable::Node &
RadixPageTable::nodeAt(PhysAddr base)
{
    auto it = nodes.find(base);
    SW_ASSERT(it != nodes.end(), "dangling page-table node base %llx",
              static_cast<unsigned long long>(base));
    return *it->second;
}

const RadixPageTable::Node *
RadixPageTable::findNode(PhysAddr base) const
{
    auto it = nodes.find(base);
    return it == nodes.end() ? nullptr : it->second.get();
}

Pfn
RadixPageTable::ensureMapped(Vpn vpn)
{
    PhysAddr base = root;
    for (int level = topLevel(); level >= 1; --level) {
        Node &node = nodeAt(base);
        Entry &entry = node.entries[levelIndex(level, vpn)];
        if (level == 1) {
            if (!entry.valid) {
                entry.valid = true;
                entry.leaf = true;
                entry.next = allocator.allocDataFrame();
            }
            return entry.next;
        }
        if (!entry.valid) {
            entry.valid = true;
            entry.leaf = false;
            entry.next = allocNode(level - 1);
        }
        base = entry.next;
    }
    panic("unreachable: radix walk fell through");
}

bool
RadixPageTable::isMapped(Vpn vpn) const
{
    const Node *node = findNode(root);
    for (int level = topLevel(); level >= 1; --level) {
        if (!node)
            return false;
        const Entry &entry = node->entries[levelIndex(level, vpn)];
        if (!entry.valid)
            return false;
        if (level == 1)
            return true;
        node = findNode(entry.next);
    }
    return false;
}

Pfn
RadixPageTable::translate(Vpn vpn) const
{
    const Node *node = findNode(root);
    for (int level = topLevel(); level >= 1; --level) {
        SW_ASSERT(node != nullptr, "translate() on unmapped VPN");
        const Entry &entry = node->entries[levelIndex(level, vpn)];
        SW_ASSERT(entry.valid, "translate() on unmapped VPN %llx",
                  static_cast<unsigned long long>(vpn));
        if (level == 1)
            return entry.next;
        node = findNode(entry.next);
    }
    panic("unreachable: radix translate fell through");
}

WalkCursor
RadixPageTable::startWalk() const
{
    WalkCursor cur;
    cur.level = topLevel();
    cur.tableBase = root;
    return cur;
}

WalkCursor
RadixPageTable::resumeWalk(int level, PhysAddr base) const
{
    SW_ASSERT(level >= 1 && level <= topLevel(),
              "resumeWalk at invalid level %d", level);
    WalkCursor cur;
    cur.level = level;
    cur.tableBase = base;
    return cur;
}

PhysAddr
RadixPageTable::pteAddr(const WalkCursor &cur, Vpn vpn) const
{
    SW_ASSERT(!cur.done, "pteAddr on a finished walk");
    return cur.tableBase + levelIndex(cur.level, vpn) * kPteBytes;
}

void
RadixPageTable::advance(WalkCursor &cur, Vpn vpn) const
{
    SW_ASSERT(!cur.done, "advance on a finished walk");
    const Node *node = findNode(cur.tableBase);
    if (!node) {
        cur.done = true;
        cur.fault = true;
        return;
    }
    const Entry &entry = node->entries[levelIndex(cur.level, vpn)];
    if (!entry.valid) {
        cur.done = true;
        cur.fault = true;
        return;
    }
    if (cur.level == 1) {
        SW_ASSERT(entry.leaf, "leaf level holds a non-leaf entry");
        cur.done = true;
        cur.pfn = entry.next;
        return;
    }
    cur.tableBase = entry.next;
    --cur.level;
}

void
FrameAllocator::saveState(CkptWriter &w) const
{
    w.section("frame_allocator");
    w.u64(pageBytes);
    w.u64(dataFrames);
    w.u64(dataCursor);
    w.u64(tableCursor);
    w.u64(tableBytes);
}

void
FrameAllocator::restoreState(CkptReader &r)
{
    r.expectSection("frame_allocator");
    std::uint64_t page_bytes = r.u64();
    if (page_bytes != pageBytes) {
        fatal("checkpoint frame allocator page size %llu != configured %llu",
              static_cast<unsigned long long>(page_bytes),
              static_cast<unsigned long long>(pageBytes));
    }
    dataFrames = r.u64();
    dataCursor = r.u64();
    tableCursor = r.u64();
    tableBytes = r.u64();
}

void
RadixPageTable::saveState(CkptWriter &w) const
{
    w.section("radix_pt");
    w.u64(root);
    w.u64(nodes.size());
    // Nodes sit in an unordered map; serialise in sorted-base order so the
    // byte stream is deterministic (fingerprint/round-trip contracts).
    for (PhysAddr base : sortedKeys(nodes)) {
        const Node &node = *nodes.at(base);
        w.u64(node.base);
        w.u32(std::uint32_t(node.entries.size()));
        std::uint32_t valid = 0;
        for (const Entry &entry : node.entries)
            valid += entry.valid ? 1 : 0;
        w.u32(valid);
        for (std::uint32_t i = 0; i < node.entries.size(); ++i) {
            const Entry &entry = node.entries[i];
            if (!entry.valid)
                continue;
            w.u32(i);
            w.u8(entry.leaf ? 1 : 0);
            w.u64(entry.next);
        }
    }
}

void
RadixPageTable::restoreState(CkptReader &r)
{
    r.expectSection("radix_pt");
    root = r.u64();
    std::uint64_t num_nodes = r.count(16, "page-table nodes");
    nodes.clear();
    for (std::uint64_t n = 0; n < num_nodes; ++n) {
        auto node = std::make_unique<Node>();
        node->base = r.u64();
        std::uint32_t entries = r.u32();
        // Node sizes are bounded by the largest level's radix.
        std::uint32_t max_entries = 0;
        for (unsigned bits : levelBits)
            max_entries = std::max(max_entries, std::uint32_t(1u << bits));
        if (entries == 0 || entries > max_entries) {
            fatal("checkpoint page-table node with %u entries (max %u)",
                  entries, max_entries);
        }
        node->entries.resize(entries);
        std::uint32_t valid = r.u32();
        if (valid > entries)
            fatal("checkpoint page-table node has %u valid of %u entries",
                  valid, entries);
        for (std::uint32_t i = 0; i < valid; ++i) {
            std::uint32_t idx = r.u32();
            if (idx >= entries)
                fatal("checkpoint page-table entry index %u out of range",
                      idx);
            Entry &entry = node->entries[idx];
            entry.valid = true;
            entry.leaf = r.u8() != 0;
            entry.next = r.u64();
        }
        PhysAddr base = node->base;
        if (!nodes.emplace(base, std::move(node)).second)
            fatal("checkpoint page-table node base %llx duplicated",
                  static_cast<unsigned long long>(base));
    }
    if (nodes.find(root) == nodes.end())
        fatal("checkpoint page-table root node missing");
}

} // namespace sw
