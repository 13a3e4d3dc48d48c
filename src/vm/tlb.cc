#include "vm/tlb.hh"

#include <algorithm>

#include "check/audit.hh"
#include "ckpt/ckpt_io.hh"
#include "obs/stat_registry.hh"
#include "sim/logging.hh"

namespace sw {

TlbArray::TlbArray(std::string name, std::uint32_t num_entries,
                   std::uint32_t num_ways)
    : name_(std::move(name)), ways(num_ways)
{
    SW_ASSERT(num_entries > 0 && num_ways > 0,
              "TLB must have entries and ways");
    SW_ASSERT(num_entries % num_ways == 0,
              "TLB entries (%u) not divisible by ways (%u)",
              num_entries, num_ways);
    sets = num_entries / num_ways;
    setIndex = Modulus(sets);
    tagStore.assign(3 * std::size_t(num_entries), 0);
    std::span<std::uint64_t> store(tagStore);
    tags = store.first(num_entries);
    pfns = store.subspan(num_entries, num_entries);
    lruTicks = store.last(num_entries);
}

void
TlbArray::setWayPartition(
    std::vector<std::pair<std::uint32_t, std::uint32_t>> slices)
{
    for (const auto &[first, count] : slices) {
        SW_ASSERT(count > 0 && first + count <= ways,
                  "%s: way slice [%u, +%u) outside %u ways",
                  name_.c_str(), first, count, ways);
    }
    waySlices = std::move(slices);
}

std::pair<std::uint32_t, std::uint32_t>
TlbArray::victimWays(Asid asid) const
{
    if (asid < waySlices.size())
        return waySlices[asid];
    return {0, ways};
}

std::uint64_t
TlbArray::packed(EntryState state, TranslationKey key) const
{
    SW_ASSERT(fits(key.asid, key.vpn),
              "%s: key {asid %u, vpn %llu} does not fit a tag word",
              name_.c_str(), key.asid,
              static_cast<unsigned long long>(key.vpn));
    return tagOf(state, key);
}

std::uint32_t
TlbArray::findWay(std::size_t base, std::uint64_t tag) const
{
    const std::uint64_t *set = &tags[base];
    std::uint32_t w = 0;
    while (w < ways && set[w] != tag)
        ++w;
    return w;
}

std::uint32_t
TlbArray::victimWay(std::size_t base, Asid asid) const
{
    auto [way0, waycount] = victimWays(asid);
    const std::uint64_t *set = &tags[base];
    const std::uint64_t *ticks = &lruTicks[base];
    std::uint32_t victim = ways;
    for (std::uint32_t w = way0; w < way0 + waycount; ++w) {
        EntryState state = stateOf(set[w]);
        if (state == EntryState::Invalid)
            return w;
        if (state == EntryState::Valid &&
            (victim == ways || ticks[w] < ticks[victim]))
            victim = w;
    }
    return victim;
}

bool
TlbArray::lookup(TranslationKey key, Pfn &pfn)
{
    ++stats_.lookups;
    std::size_t base = setBase(key.vpn);
    std::uint32_t w = findWay(base, packed(EntryState::Valid, key));
    if (w == ways)
        return false;
    ++stats_.hits;
    lruTicks[base + w] = ++lruCounter;
    pfn = pfns[base + w];
    return true;
}

bool
TlbArray::probe(TranslationKey key) const
{
    return findWay(setBase(key.vpn), packed(EntryState::Valid, key)) < ways;
}

bool
TlbArray::fill(TranslationKey key, Pfn pfn)
{
    ++stats_.fills;
    std::size_t base = setBase(key.vpn);
    std::uint64_t tag = packed(EntryState::Valid, key);

    // Refresh an existing valid entry in place.
    std::uint32_t w = findWay(base, tag);
    if (w == ways) {
        w = victimWay(base, key.asid);
        if (w == ways) {
            ++stats_.fillsSkipped;
            return false;
        }
        SW_AUDIT(stateOf(tags[base + w]) != EntryState::Pending,
                 "fill displaced an In-TLB MSHR slot in %s", name_.c_str());
        if (stateOf(tags[base + w]) == EntryState::Valid)
            ++stats_.evictions;
        tags[base + w] = tag;
    }
    pfns[base + w] = pfn;
    lruTicks[base + w] = ++lruCounter;
    return true;
}

bool
TlbArray::allocPending(TranslationKey key)
{
    std::size_t base = setBase(key.vpn);
    std::uint64_t tag = packed(EntryState::Pending, key);

    // Same-tag pending reservation: merge onto the existing slot (§4.5
    // "we allow the In-TLB MSHR to reserve the same tag in a set index").
    if (findWay(base, tag) < ways)
        return true;

    std::uint32_t w = victimWay(base, key.asid);
    if (w == ways) {
        ++stats_.pendingAllocFailures;
        return false;
    }
    if (stateOf(tags[base + w]) == EntryState::Valid)
        ++stats_.pendingEvictedValid;
    tags[base + w] = tag;
    pfns[base + w] = 0;
    lruTicks[base + w] = ++lruCounter;
    ++numPending;
    ++stats_.pendingAllocs;
    return true;
}

std::uint32_t
TlbArray::countPendingScan() const
{
    return std::uint32_t(std::ranges::count_if(tags, [](std::uint64_t tag) {
        return stateOf(tag) == EntryState::Pending;
    }));
}

bool
TlbArray::hasPending(TranslationKey key) const
{
    return findWay(setBase(key.vpn), packed(EntryState::Pending, key)) <
           ways;
}

void
TlbArray::clearPending(TranslationKey key)
{
    std::size_t base = setBase(key.vpn);
    std::uint64_t tag = packed(EntryState::Pending, key);
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (tags[base + w] == tag) {
            tags[base + w] = tag & kKeyMask;   // invalid, key kept
            SW_ASSERT(numPending > 0, "pending underflow");
            --numPending;
        }
    }
    SW_AUDIT(numPending == countPendingScan(),
             "%s: pending counter %u diverged from array scan %u",
             name_.c_str(), numPending, countPendingScan());
}

void
TlbArray::invalidate(TranslationKey key)
{
    std::size_t base = setBase(key.vpn);
    std::uint32_t w = findWay(base, packed(EntryState::Valid, key));
    if (w < ways)
        tags[base + w] &= kKeyMask;
}

void
TlbArray::flushAsid(Asid asid)
{
    // Valid ways of @p asid: the state and ASID fields above the VPN.
    std::uint64_t want = packed(EntryState::Valid, {asid, 0}) >> kVpnBits;
    for (std::uint64_t &tag : tags) {
        if (tag >> kVpnBits == want)
            tag &= kKeyMask;
    }
}

void
TlbArray::flush()
{
    std::ranges::fill(tagStore, 0);
    numPending = 0;
}

void
TlbArray::registerStats(StatGroup group)
{
    group.counter("lookups", &stats_.lookups);
    group.counter("hits", &stats_.hits);
    group.counter("fills", &stats_.fills);
    group.counter("evictions", &stats_.evictions);
    group.counter("fills_skipped", &stats_.fillsSkipped);
    group.counter("pending_allocs", &stats_.pendingAllocs);
    group.counter("pending_alloc_fail", &stats_.pendingAllocFailures);
    group.counter("pending_evicted_valid", &stats_.pendingEvictedValid);
    group.gauge("misses",
                [this]() { return double(stats_.lookups - stats_.hits); });
    group.gauge("hit_rate", [this]() { return stats_.hitRate(); });
    group.gauge("pending", [this]() { return double(numPending); });
}

void
TlbArray::saveState(CkptWriter &w) const
{
    w.section("tlb");
    w.str(name_);
    w.u32(std::uint32_t(tags.size()));
    for (std::size_t i = 0; i < tags.size(); ++i) {
        TranslationKey key = keyOf(tags[i]);
        w.u8(std::uint8_t(stateOf(tags[i])));
        w.u32(key.asid);
        w.u64(key.vpn);
        w.u64(pfns[i]);
        w.u64(lruTicks[i]);
    }
    w.u64(lruCounter);
    w.u32(numPending);
    w.u64(stats_.lookups);
    w.u64(stats_.hits);
    w.u64(stats_.fills);
    w.u64(stats_.evictions);
    w.u64(stats_.fillsSkipped);
    w.u64(stats_.pendingAllocs);
    w.u64(stats_.pendingAllocFailures);
    w.u64(stats_.pendingEvictedValid);
}

void
TlbArray::restoreState(CkptReader &r)
{
    r.expectSection("tlb");
    std::string saved_name = r.str();
    if (saved_name != name_) {
        fatal("checkpoint TLB \"%s\" restored into \"%s\"",
              saved_name.c_str(), name_.c_str());
    }
    std::uint32_t n = r.u32();
    if (n != tags.size()) {
        fatal("checkpoint TLB \"%s\" has %u entries, this config has %zu",
              name_.c_str(), n, tags.size());
    }
    for (std::size_t i = 0; i < tags.size(); ++i) {
        std::uint8_t state = r.u8();
        if (state > std::uint8_t(EntryState::Pending))
            fatal("checkpoint TLB entry state %u out of range", state);
        Asid asid = r.u32();
        Vpn vpn = r.u64();
        if (!fits(asid, vpn)) {
            fatal("checkpoint TLB \"%s\" entry %zu has ASID %u and VPN "
                  "%llu; a TLB tag holds %u-bit ASIDs and %u-bit VPNs",
                  name_.c_str(), i, asid,
                  static_cast<unsigned long long>(vpn), kAsidBits,
                  kVpnBits);
        }
        tags[i] = tagOf(EntryState(state), {asid, vpn});
        pfns[i] = r.u64();
        lruTicks[i] = r.u64();
    }
    lruCounter = r.u64();
    numPending = r.u32();
    stats_.lookups = r.u64();
    stats_.hits = r.u64();
    stats_.fills = r.u64();
    stats_.evictions = r.u64();
    stats_.fillsSkipped = r.u64();
    stats_.pendingAllocs = r.u64();
    stats_.pendingAllocFailures = r.u64();
    stats_.pendingEvictedValid = r.u64();
    if (numPending != countPendingScan())
        fatal("checkpoint TLB \"%s\" pending counter disagrees with the "
              "restored array", name_.c_str());
}

} // namespace sw
