#include "mem/dram.hh"

#include <algorithm>

#include "ckpt/ckpt_io.hh"
#include "obs/stat_registry.hh"
#include "sim/logging.hh"

namespace sw {

Dram::Dram(EventQueue &eq, Params params)
    : eventq(eq), params_(params),
      channelFree(params.channels, 0),
      channelBusyCycles(params.channels, 0)
{
    SW_ASSERT(params_.channels > 0, "DRAM needs at least one channel");
    channelOf = Modulus(params_.channels);
}

Cycle
Dram::access(PhysAddr addr, bool write)
{
    (void)write; // reads and writes share timing in this model
    ++stats_.accesses;

    auto chan = static_cast<std::uint32_t>(
        channelOf(addr >> params_.channelShift));

    Cycle now = eventq.now();
    Cycle start = std::max(now, channelFree[chan]);
    channelFree[chan] = start + params_.cyclesPerSector;
    channelBusyCycles[chan] += params_.cyclesPerSector;

    Cycle done_at = start + params_.accessLatency;
    stats_.queueDelay.add(start - now);
    stats_.totalLatency.add(done_at - now);
    return done_at;
}

void
Dram::resetStats()
{
    stats_ = Stats{};
    std::fill(channelBusyCycles.begin(), channelBusyCycles.end(), 0);
    statsSince = eventq.now();
}

double
Dram::utilisation() const
{
    Cycle now = eventq.now();
    if (now <= statsSince)
        return 0.0;
    std::uint64_t busiest = 0;
    for (auto busy : channelBusyCycles)
        busiest = std::max(busiest, busy);
    return double(busiest) / double(now - statsSince);
}

void
Dram::saveState(CkptWriter &w) const
{
    w.section("dram");
    w.u32(std::uint32_t(channelFree.size()));
    // channelFree holds absolute cycles: a channel busy into the future
    // stays busy across the restore, preserving bandwidth contention.
    for (Cycle free_at : channelFree)
        w.u64(free_at);
    for (std::uint64_t busy : channelBusyCycles)
        w.u64(busy);
    w.u64(statsSince);
    w.u64(stats_.accesses);
    w.latency(stats_.queueDelay);
    w.latency(stats_.totalLatency);
}

void
Dram::restoreState(CkptReader &r)
{
    r.expectSection("dram");
    std::uint32_t channels = r.u32();
    if (channels != channelFree.size()) {
        fatal("checkpoint DRAM has %u channels, this config has %zu",
              channels, channelFree.size());
    }
    for (auto &free_at : channelFree)
        free_at = r.u64();
    for (auto &busy : channelBusyCycles)
        busy = r.u64();
    statsSince = r.u64();
    stats_.accesses = r.u64();
    r.latency(stats_.queueDelay);
    r.latency(stats_.totalLatency);
}

void
Dram::registerStats(StatGroup group)
{
    group.counter("accesses", &stats_.accesses);
    group.latency("queue_delay", &stats_.queueDelay);
    group.latency("total_latency", &stats_.totalLatency);
    group.gauge("utilisation", [this]() { return utilisation(); });
}

} // namespace sw
