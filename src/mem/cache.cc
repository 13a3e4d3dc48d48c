#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "check/audit.hh"
#include "ckpt/ckpt_io.hh"
#include "obs/stat_registry.hh"
#include "prof/hostprof.hh"
#include "sim/logging.hh"

namespace sw {

Cache::Cache(EventQueue &eq, Params params, RequestPool &requests,
             Below &next_level)
    : eventq(eq), params_(std::move(params)), pool(requests),
      below(next_level)
{
    SW_ASSERT(std::has_single_bit(params_.lineBytes) &&
                  std::has_single_bit(params_.sectorBytes),
              "line and sector sizes must be powers of two");
    // A 2-byte line leaves the top bit of every line address clear, so
    // no line address equals kEmpty.
    SW_ASSERT(params_.lineBytes >= 2, "line size must be at least 2 bytes");
    SW_ASSERT(params_.sectorBytes <= params_.lineBytes,
              "line size must be a multiple of sector size");
    lineShift = std::uint32_t(std::countr_zero(params_.lineBytes));
    sectorShift = std::uint32_t(std::countr_zero(params_.sectorBytes));
    sectorsPerLine = 1u << (lineShift - sectorShift);
    SW_ASSERT(sectorsPerLine <= 32, "sector mask limited to 32 sectors");
    std::uint64_t num_lines = params_.sizeBytes >> lineShift;
    SW_ASSERT(params_.ways > 0 && num_lines >= params_.ways &&
                  num_lines % params_.ways == 0,
              "cache lines (%llu) not divisible by ways (%u)",
              static_cast<unsigned long long>(num_lines), params_.ways);
    numSets = static_cast<std::uint32_t>(num_lines / params_.ways);
    setOf = Modulus(numSets);
    tagStore.assign(3 * num_lines, 0);
    std::span<std::uint64_t> store(tagStore);
    lineAddrs = store.first(num_lines);
    sectorMasks = store.subspan(num_lines, num_lines);
    lruTicks = store.last(num_lines);
    std::ranges::fill(lineAddrs, kEmpty);
}

std::uint64_t
Cache::lineAddr(PhysAddr addr) const
{
    return addr >> lineShift;
}

std::uint64_t
Cache::sectorAddr(PhysAddr addr) const
{
    return addr >> sectorShift;
}

std::uint64_t
Cache::sectorBit(PhysAddr addr) const
{
    return std::uint64_t(1) << (sectorAddr(addr) & (sectorsPerLine - 1));
}

std::size_t
Cache::setBase(std::uint64_t line_addr) const
{
    return std::size_t(setOf(line_addr)) * params_.ways;
}

std::uint32_t
Cache::findWay(std::size_t set_base, std::uint64_t line_addr) const
{
    const std::uint64_t *set = &lineAddrs[set_base];
    std::uint32_t w = 0;
    while (w < params_.ways && set[w] != line_addr)
        ++w;
    return w;
}

void
Cache::access(RequestId id)
{
    ++stats_.accesses;
    // The event carries the sector address, so the tag scan and the MSHR
    // probe need not wait on the record, which is fetched meanwhile.
    const Request &req = pool[id];
    eventq.scheduleIn(
        params_.latency,
        [this, id, addr = req.addr]() { lookup(id, addr, /*retry=*/false); },
        &req);
}

bool
Cache::isResident(PhysAddr addr) const
{
    std::uint64_t la = lineAddr(addr);
    std::size_t base = setBase(la);
    std::uint32_t w = findWay(base, la);
    return w < params_.ways && (sectorMasks[base + w] & sectorBit(addr));
}

void
Cache::flush()
{
    std::ranges::fill(lineAddrs, kEmpty);
}

void
Cache::lookup(RequestId id, PhysAddr addr, bool retry)
{
    SW_PROF_SCOPE(prof::Zone::CacheDram);
    std::uint64_t la = lineAddr(addr);
    std::size_t base = setBase(la);
    std::uint32_t w = findWay(base, la);
    if (w < params_.ways) {
        if (sectorMasks[base + w] & sectorBit(addr)) {
            if (!retry)
                ++stats_.hits;
            lruTicks[base + w] = ++lruCounter;
            pool.complete(id);
            return;
        }
        if (!retry)
            ++stats_.sectorMisses;
    }

    if (!retry)
        ++stats_.misses;

    // Writes allocate like reads in this model (write-allocate,
    // fetch-on-write); the timing consequence is identical.
    std::uint64_t sa = sectorAddr(addr);
    if (RequestFifo *waiters = mshrs.find(sa)) {
        if (waiters->size < params_.maxMergesPerMshr) {
            ++stats_.mshrMerges;
            waiters->push(pool, id);
            return;
        }
        // Merge capacity exhausted: treat like a full MSHR file.
        ++stats_.mshrFailures;
        parked.push(pool, id);
        return;
    }

    if (mshrs.size() >= params_.mshrEntries) {
        ++stats_.mshrFailures;
        parked.push(pool, id);
        return;
    }

    mshrs.insert(sa).push(pool, id);
    SW_AUDIT(mshrs.size() <= params_.mshrEntries,
             "%s: MSHR file overallocated (%zu > %u)",
             params_.name.c_str(), mshrs.size(), params_.mshrEntries);
    below.fetch(*this, pool[id]);
}

void
Cache::fill(PhysAddr addr)
{
    SW_PROF_SCOPE(prof::Zone::CacheDram);
    install(addr);

    std::uint64_t sa = sectorAddr(addr);
    RequestFifo *found = mshrs.find(sa);
    SW_ASSERT(found != nullptr, "fill for sector without an MSHR");
    RequestFifo waiters = *found;
    mshrs.erase(sa);

    while (!waiters.empty())
        pool.complete(waiters.pop(pool));

    retryWaiting();
}

void
Cache::install(PhysAddr addr)
{
    std::uint64_t la = lineAddr(addr);
    std::size_t base = setBase(la);
    std::uint32_t w = findWay(base, la);

    // Existing line: just set the sector bit.
    if (w < params_.ways) {
        sectorMasks[base + w] |= sectorBit(addr);
        lruTicks[base + w] = ++lruCounter;
        return;
    }

    // Lowest-index empty way, else the least recently used one.
    std::size_t victim = base;
    for (std::size_t i = base; i < base + params_.ways; ++i) {
        if (lineAddrs[i] == kEmpty) {
            victim = i;
            break;
        }
        if (lruTicks[i] < lruTicks[victim])
            victim = i;
    }
    if (lineAddrs[victim] != kEmpty)
        ++stats_.evictions;
    lineAddrs[victim] = la;
    sectorMasks[victim] = sectorBit(addr);
    lruTicks[victim] = ++lruCounter;
}

void
Cache::retryWaiting()
{
    SW_PROF_SCOPE(prof::Zone::CacheDram);
    // Re-issue queued requests now that an MSHR has freed.  Each retry goes
    // through the full lookup path again (it may now hit thanks to the
    // fill).  A retry can park itself again (e.g. its target MSHR is still
    // merge-full); stop as soon as the queue makes no progress.
    while (!parked.empty() && mshrs.size() < params_.mshrEntries) {
        std::uint32_t before = parked.size;
        RequestId id = parked.pop(pool);
        lookup(id, pool[id].addr, /*retry=*/true);
        if (parked.size >= before)
            break;
    }
}

void
Cache::saveState(CkptWriter &w) const
{
    SW_ASSERT(mshrs.empty() && parked.empty(),
              "cache '%s' checkpointed with misses in flight",
              params_.name.c_str());
    w.section("cache");
    w.str(params_.name);
    // Tag stores are mostly invalid early in a run: write valid lines
    // sparsely, keyed by their index in the flat line array.  The format
    // predates the compact store, so each line's tag is la / numSets.
    std::uint32_t valid = 0;
    for (std::uint64_t la : lineAddrs)
        valid += la != kEmpty ? 1 : 0;
    w.u32(std::uint32_t(lineAddrs.size()));
    w.u32(valid);
    for (std::uint32_t i = 0; i < lineAddrs.size(); ++i) {
        if (lineAddrs[i] == kEmpty)
            continue;
        w.u32(i);
        w.u64(lineAddrs[i] / numSets);
        w.u32(std::uint32_t(sectorMasks[i]));
        w.u64(lruTicks[i]);
    }
    w.u64(lruCounter);
    w.u64(stats_.accesses);
    w.u64(stats_.hits);
    w.u64(stats_.misses);
    w.u64(stats_.sectorMisses);
    w.u64(stats_.mshrMerges);
    w.u64(stats_.mshrFailures);
    w.u64(stats_.evictions);
}

void
Cache::restoreState(CkptReader &r)
{
    r.expectSection("cache");
    std::string name = r.str();
    if (name != params_.name) {
        fatal("checkpoint cache '%s' restored into '%s'", name.c_str(),
              params_.name.c_str());
    }
    std::uint32_t total = r.u32();
    if (total != lineAddrs.size()) {
        fatal("checkpoint cache '%s' has %u lines, this config has %zu",
              name.c_str(), total, lineAddrs.size());
    }
    std::uint32_t valid = r.u32();
    if (valid > total) {
        fatal("checkpoint cache '%s' has %u valid of %u lines",
              name.c_str(), valid, total);
    }
    std::ranges::fill(lineAddrs, kEmpty);
    // Largest line address a physical address maps to (below kEmpty).
    const std::uint64_t max_la = kEmpty >> lineShift;
    for (std::uint32_t n = 0; n < valid; ++n) {
        std::uint32_t idx = r.u32();
        if (idx >= lineAddrs.size())
            fatal("checkpoint cache line index %u out of range", idx);
        if (lineAddrs[idx] != kEmpty)
            fatal("checkpoint cache line index %u duplicated", idx);
        std::uint64_t tag = r.u64();
        std::uint64_t set = idx / params_.ways;
        if (tag > (max_la - set) / numSets) {
            fatal("checkpoint cache '%s' line %u: tag %#llx overflows the "
                  "line address", name.c_str(), idx,
                  static_cast<unsigned long long>(tag));
        }
        lineAddrs[idx] = tag * numSets + set;
        sectorMasks[idx] = r.u32();
        lruTicks[idx] = r.u64();
    }
    lruCounter = r.u64();
    stats_.accesses = r.u64();
    stats_.hits = r.u64();
    stats_.misses = r.u64();
    stats_.sectorMisses = r.u64();
    stats_.mshrMerges = r.u64();
    stats_.mshrFailures = r.u64();
    stats_.evictions = r.u64();
}

void
Cache::registerStats(StatGroup group)
{
    group.counter("accesses", &stats_.accesses);
    group.counter("hits", &stats_.hits);
    group.counter("misses", &stats_.misses);
    group.counter("sector_misses", &stats_.sectorMisses);
    group.counter("mshr_merges", &stats_.mshrMerges);
    group.counter("mshr_fail", &stats_.mshrFailures);
    group.counter("evictions", &stats_.evictions);
    group.gauge("miss_rate", [this]() { return stats_.missRate(); });
    group.gauge("outstanding_mshrs",
                [this]() { return double(mshrs.size()); });
}

} // namespace sw
