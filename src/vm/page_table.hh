/**
 * @file
 * Simulated page tables: the walker protocol shared by the radix and hashed
 * organisations, plus the four-level radix implementation and the physical
 * frame allocator behind both.
 *
 * Tables are materialised at concrete simulated physical addresses so that
 * walkers (hardware PTWs and PW Warps alike) generate real memory traffic
 * through the L2 cache and DRAM — the paper measures page-table access
 * latency dynamically through the memory model, and so do we.
 */

#ifndef SW_VM_PAGE_TABLE_HH
#define SW_VM_PAGE_TABLE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"
#include "vm/address.hh"

namespace sw {

class CkptWriter;
class CkptReader;

/** Size of one page-table entry in simulated memory. */
inline constexpr std::uint64_t kPteBytes = 8;

/**
 * Bump allocator for simulated physical memory.
 *
 * Hands out data frames and page-table node storage from disjoint regions;
 * no freeing (kernels in this simulator run to completion).
 */
class FrameAllocator
{
  public:
    explicit FrameAllocator(std::uint64_t page_bytes);

    /** Allocate one data page; returns its PFN. */
    Pfn allocDataFrame();

    /** Allocate @p bytes of page-table storage; returns its base address. */
    PhysAddr allocTable(std::uint64_t bytes);

    std::uint64_t dataFramesAllocated() const { return dataFrames; }

    /** Serialise the allocation cursors into a checkpoint. */
    void saveState(CkptWriter &w) const;

    /** Restore state saved by saveState(); page size must match. */
    void restoreState(CkptReader &r);

  private:
    std::uint64_t pageBytes;
    std::uint64_t dataFrames = 0;
    PhysAddr dataCursor;
    PhysAddr tableCursor;
    std::uint64_t tableBytes = 0;
};

/**
 * Walker-visible cursor over an in-progress page walk.
 *
 * A walk is a sequence of (read PTE at pteAddr, advance) steps; the page
 * table implementation interprets the cursor, and the walker passes the
 * VPN its walk resolves to both.  level counts down to 1 (the leaf);
 * done/fault/pfn are the terminal outputs.
 */
struct WalkCursor
{
    PhysAddr tableBase = 0; ///< base address of the current-level table
    Pfn pfn = 0;
    int level = 0;          ///< level whose entry is read next (top..1)
    bool done = false;
    bool fault = false;
};

/** Common interface for the radix and hashed page tables. */
class PageTableBase
{
  public:
    virtual ~PageTableBase() = default;

    // ---- OS side -------------------------------------------------------
    /** Map @p vpn (idempotent), allocating frames/tables on demand. */
    virtual Pfn ensureMapped(Vpn vpn) = 0;

    /** True if a translation exists. */
    virtual bool isMapped(Vpn vpn) const = 0;

    /** Functional translation (tests / reference model). */
    virtual Pfn translate(Vpn vpn) const = 0;

    // ---- Walker protocol -------------------------------------------------
    /** Begin a walk from the root. */
    virtual WalkCursor startWalk() const = 0;

    /** Resume from a page-walk-cache hit at @p level with @p base. */
    virtual WalkCursor resumeWalk(int level, PhysAddr base) const = 0;

    /** Physical address of the PTE @p cur reads next for @p vpn. */
    virtual PhysAddr pteAddr(const WalkCursor &cur, Vpn vpn) const = 0;

    /**
     * Consume the PTE read for @p vpn: descend a level or terminate the
     * cursor.
     */
    virtual void advance(WalkCursor &cur, Vpn vpn) const = 0;

    /** Topmost level number (== number of levels). */
    virtual int topLevel() const = 0;

    /** Whether walks through this table can use the page walk cache. */
    virtual bool usesPwc() const { return topLevel() > 1; }

    /**
     * Key prefix identifying the level-@p level table that @p vpn walks
     * through (used as the PWC tag).  Only meaningful when usesPwc().
     */
    virtual std::uint64_t pwcPrefix(int level, Vpn vpn) const = 0;

    /** Total simulated memory reads a full (uncached) walk performs. */
    virtual int walkReads(Vpn vpn) const = 0;

    // ---- Checkpointing ---------------------------------------------------
    /** Serialise all mappings into a checkpoint. */
    virtual void saveState(CkptWriter &w) const = 0;

    /** Restore mappings saved by saveState(); geometry must match. */
    virtual void restoreState(CkptReader &r) = 0;
};

/**
 * Multi-level radix page table (four levels for 64 KB pages, three for
 * 2 MB pages — §2.1, Table 3).
 */
class RadixPageTable : public PageTableBase
{
  public:
    /**
     * @param geom page geometry (determines VPN width and level split)
     * @param alloc frame allocator owning simulated physical memory
     */
    RadixPageTable(const PageGeometry &geom, FrameAllocator &alloc);

    Pfn ensureMapped(Vpn vpn) override;
    bool isMapped(Vpn vpn) const override;
    Pfn translate(Vpn vpn) const override;

    WalkCursor startWalk() const override;
    WalkCursor resumeWalk(int level, PhysAddr base) const override;
    PhysAddr pteAddr(const WalkCursor &cur, Vpn vpn) const override;
    void advance(WalkCursor &cur, Vpn vpn) const override;
    int topLevel() const override { return int(levelBits.size()) - 1; }
    std::uint64_t pwcPrefix(int level, Vpn vpn) const override;
    int walkReads(Vpn) const override { return topLevel(); }

    /** Radix index of @p vpn at @p level. */
    std::uint64_t levelIndex(int level, Vpn vpn) const;

    /** VPN bits consumed by levels strictly below @p level. */
    unsigned bitsBelow(int level) const;

    void saveState(CkptWriter &w) const override;
    void restoreState(CkptReader &r) override;

  private:
    struct Entry
    {
        bool valid = false;
        bool leaf = false;
        std::uint64_t next = 0;   ///< next table base, or PFN when leaf
    };

    struct Node
    {
        PhysAddr base = 0;
        std::vector<Entry> entries;
    };

    Node &nodeAt(PhysAddr base);
    const Node *findNode(PhysAddr base) const;
    PhysAddr allocNode(int level);

    PageGeometry geometry;
    FrameAllocator &allocator;
    std::vector<unsigned> levelBits;  ///< index 0 unused; [1..top]
    PhysAddr root;
    std::unordered_map<PhysAddr, std::unique_ptr<Node>> nodes;
};

} // namespace sw

#endif // SW_VM_PAGE_TABLE_HH
