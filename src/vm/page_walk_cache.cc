#include "vm/page_walk_cache.hh"

#include "ckpt/ckpt_io.hh"
#include "obs/stat_registry.hh"
#include "sim/logging.hh"
#include "vm/page_table.hh"

namespace sw {

PageWalkCache::PageWalkCache(std::uint32_t num_entries)
{
    SW_ASSERT(num_entries > 0, "PWC needs at least one entry");
    entries.resize(num_entries);
}

bool
advanceWalk(const PageTableBase &pt, PageWalkCache &pwc,
            TranslationKey key, WalkCursor &cur)
{
    int level_read = cur.level;
    pt.advance(cur, key.vpn);
    if (cur.done || level_read <= 1)
        return false;
    pwc.fill(pt, cur.level, key, cur.tableBase);
    return true;
}

bool
PageWalkCache::lookup(const PageTableBase &pt, TranslationKey key,
                      int &level, PhysAddr &base)
{
    ++stats_.lookups;
    if (!pt.usesPwc())
        return false;

    // Search for the deepest (lowest-numbered) cached level.
    Entry *best = nullptr;
    for (int lvl = 1; lvl < pt.topLevel(); ++lvl) {
        std::uint64_t prefix = pt.pwcPrefix(lvl, key.vpn);
        for (auto &entry : entries) {
            if (entry.valid && entry.asid == key.asid &&
                entry.level == lvl && entry.prefix == prefix) {
                best = &entry;
                break;
            }
        }
        if (best)
            break;
    }
    if (!best)
        return false;

    ++stats_.hits;
    best->lruTick = ++lruCounter;
    level = best->level;
    base = best->base;
    return true;
}

void
PageWalkCache::fill(const PageTableBase &pt, int level, TranslationKey key,
                    PhysAddr base)
{
    if (!pt.usesPwc() || level >= pt.topLevel() || level < 1)
        return;
    ++stats_.fills;
    std::uint64_t prefix = pt.pwcPrefix(level, key.vpn);

    Entry *victim = nullptr;
    for (auto &entry : entries) {
        if (entry.valid && entry.asid == key.asid &&
            entry.level == level && entry.prefix == prefix) {
            entry.base = base;
            entry.lruTick = ++lruCounter;
            return;
        }
        if (!entry.valid) {
            if (!victim || victim->valid)
                victim = &entry;
        } else if (!victim ||
                   (victim->valid && entry.lruTick < victim->lruTick)) {
            victim = &entry;
        }
    }
    SW_ASSERT(victim != nullptr, "PWC victim selection failed");
    victim->valid = true;
    victim->asid = key.asid;
    victim->level = level;
    victim->prefix = prefix;
    victim->base = base;
    victim->lruTick = ++lruCounter;
}

void
PageWalkCache::flushAsid(Asid asid)
{
    for (auto &entry : entries) {
        if (entry.valid && entry.asid == asid)
            entry.valid = false;
    }
}

void
PageWalkCache::flush()
{
    for (auto &entry : entries)
        entry.valid = false;
}

void
PageWalkCache::registerStats(StatGroup group)
{
    group.counter("lookups", &stats_.lookups);
    group.counter("hits", &stats_.hits);
    group.counter("fills", &stats_.fills);
    group.gauge("hit_rate", [this]() { return stats_.hitRate(); });
}

void
PageWalkCache::saveState(CkptWriter &w) const
{
    w.section("pwc");
    w.u32(std::uint32_t(entries.size()));
    for (const Entry &entry : entries) {
        w.u8(entry.valid ? 1 : 0);
        w.u32(entry.asid);
        w.u32(std::uint32_t(entry.level));
        w.u64(entry.prefix);
        w.u64(entry.base);
        w.u64(entry.lruTick);
    }
    w.u64(lruCounter);
    w.u64(stats_.lookups);
    w.u64(stats_.hits);
    w.u64(stats_.fills);
}

void
PageWalkCache::restoreState(CkptReader &r)
{
    r.expectSection("pwc");
    std::uint32_t n = r.u32();
    if (n != entries.size()) {
        fatal("checkpoint PWC has %u entries, this config has %zu",
              n, entries.size());
    }
    for (Entry &entry : entries) {
        entry.valid = r.u8() != 0;
        entry.asid = r.u32();
        entry.level = int(r.u32());
        entry.prefix = r.u64();
        entry.base = r.u64();
        entry.lruTick = r.u64();
    }
    lruCounter = r.u64();
    stats_.lookups = r.u64();
    stats_.hits = r.u64();
    stats_.fills = r.u64();
}

} // namespace sw
