#include "mem/cache.hh"

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
    SW_ASSERT(params_.lineBytes % params_.sectorBytes == 0,
              "line size must be a multiple of sector size");
    std::uint64_t num_lines = params_.sizeBytes / params_.lineBytes;
    SW_ASSERT(num_lines % params_.ways == 0,
              "cache lines (%llu) not divisible by ways (%u)",
              static_cast<unsigned long long>(num_lines), params_.ways);
    numSets = static_cast<std::uint32_t>(num_lines / params_.ways);
    sectorsPerLine = params_.lineBytes / params_.sectorBytes;
    SW_ASSERT(sectorsPerLine <= 32, "sector mask limited to 32 sectors");
    lines.resize(num_lines);
}

std::uint64_t
Cache::lineAddr(PhysAddr addr) const
{
    return addr / params_.lineBytes;
}

std::uint64_t
Cache::sectorAddr(PhysAddr addr) const
{
    return addr / params_.sectorBytes;
}

std::uint32_t
Cache::sectorIndex(PhysAddr addr) const
{
    return static_cast<std::uint32_t>(
        (addr / params_.sectorBytes) % sectorsPerLine);
}

std::uint64_t
Cache::setIndex(std::uint64_t line_addr) const
{
    return line_addr % numSets;
}

std::uint64_t
Cache::tagOf(std::uint64_t line_addr) const
{
    return line_addr / numSets;
}

void
Cache::access(RequestId id)
{
    ++stats_.accesses;
    auto fire = [this, id]() { lookup(id, /*retry=*/false); };
    static_assert(EventFn::fitsInline<decltype(fire)>(),
                  "cache access event must not spill to the slab pool");
    eventq.scheduleIn(params_.latency, std::move(fire));
}

bool
Cache::isResident(PhysAddr addr) const
{
    std::uint64_t la = lineAddr(addr);
    std::uint64_t set = setIndex(la);
    std::uint64_t tag = tagOf(la);
    std::uint32_t sector_bit = 1u << sectorIndex(addr);
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        const Line &line = lines[set * params_.ways + w];
        if (line.valid && line.tag == tag && (line.sectorMask & sector_bit))
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (auto &line : lines)
        line = Line{};
}

void
Cache::lookup(RequestId id, bool retry)
{
    SW_PROF_SCOPE(prof::Zone::CacheDram);
    PhysAddr addr = pool[id].addr;
    std::uint64_t la = lineAddr(addr);
    std::uint64_t set = setIndex(la);
    std::uint64_t tag = tagOf(la);
    std::uint32_t sector_bit = 1u << sectorIndex(addr);

    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Line &line = lines[set * params_.ways + w];
        if (line.valid && line.tag == tag) {
            if (line.sectorMask & sector_bit) {
                if (!retry)
                    ++stats_.hits;
                line.lruTick = ++lruCounter;
                pool.complete(id);
                return;
            }
            if (!retry)
                ++stats_.sectorMisses;
            break;
        }
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
    std::uint64_t set = setIndex(la);
    std::uint64_t tag = tagOf(la);
    std::uint32_t sector_bit = 1u << sectorIndex(addr);

    // Existing line: just set the sector bit.
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Line &line = lines[set * params_.ways + w];
        if (line.valid && line.tag == tag) {
            line.sectorMask |= sector_bit;
            line.lruTick = ++lruCounter;
            return;
        }
    }

    // Pick invalid way, else LRU victim.
    Line *victim = nullptr;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Line &line = lines[set * params_.ways + w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lruTick < victim->lruTick)
            victim = &line;
    }
    if (victim->valid)
        ++stats_.evictions;
    victim->valid = true;
    victim->tag = tag;
    victim->sectorMask = sector_bit;
    victim->lruTick = ++lruCounter;
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
        lookup(parked.pop(pool), /*retry=*/true);
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
    // sparsely, keyed by their index in the flat line array.
    std::uint32_t valid = 0;
    for (const Line &line : lines)
        valid += line.valid ? 1 : 0;
    w.u32(std::uint32_t(lines.size()));
    w.u32(valid);
    for (std::uint32_t i = 0; i < lines.size(); ++i) {
        const Line &line = lines[i];
        if (!line.valid)
            continue;
        w.u32(i);
        w.u64(line.tag);
        w.u32(line.sectorMask);
        w.u64(line.lruTick);
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
    if (total != lines.size()) {
        fatal("checkpoint cache '%s' has %u lines, this config has %zu",
              name.c_str(), total, lines.size());
    }
    std::uint32_t valid = r.u32();
    if (valid > total) {
        fatal("checkpoint cache '%s' has %u valid of %u lines",
              name.c_str(), valid, total);
    }
    for (Line &line : lines)
        line = Line{};
    for (std::uint32_t n = 0; n < valid; ++n) {
        std::uint32_t idx = r.u32();
        if (idx >= lines.size())
            fatal("checkpoint cache line index %u out of range", idx);
        Line &line = lines[idx];
        if (line.valid)
            fatal("checkpoint cache line index %u duplicated", idx);
        line.valid = true;
        line.tag = r.u64();
        line.sectorMask = r.u32();
        line.lruTick = r.u64();
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
