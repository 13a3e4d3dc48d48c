/**
 * @file
 * GDDR6 DRAM model: fixed access latency plus per-channel bandwidth
 * contention.
 *
 * Table 3: 16 channels, 448 GB/s aggregate at a 1500 MHz core clock gives
 * roughly 18.7 B per core cycle per channel; a 32 B sector therefore
 * occupies its channel for ~2 cycles. Requests queue FIFO per channel.
 */

#ifndef SW_MEM_DRAM_HH
#define SW_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/modulus.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace sw {

class StatGroup;
class CkptWriter;
class CkptReader;

/** Multi-channel DRAM with queueing delay and fixed device latency. */
class Dram
{
  public:
    struct Params
    {
        std::uint32_t channels = 16;
        Cycle accessLatency = 160;    ///< device access time
        Cycle cyclesPerSector = 2;    ///< channel occupancy per 32 B burst
        std::uint32_t channelShift = 5; ///< addr bits below channel select
    };

    struct Stats
    {
        std::uint64_t accesses = 0;
        LatencyStat queueDelay;       ///< time waiting for the channel
        LatencyStat totalLatency;
    };

    Dram(EventQueue &eq, Params params);

    Dram(const Dram &) = delete;
    Dram &operator=(const Dram &) = delete;

    /**
     * Issue one sector access now.  @return the cycle it completes; the
     * caller schedules whatever the completion triggers.
     */
    Cycle access(PhysAddr addr, bool write);

    /** Zero the statistics (post-warmup measurement reset). */
    void resetStats();

    /** Register the DRAM's counters with the unified stat registry. */
    void registerStats(StatGroup group);

    const Stats &stats() const { return stats_; }
    const Params &params() const { return params_; }

    /** Fraction of elapsed cycles the busiest channel was transferring. */
    double utilisation() const;

    /** Serialise channel timing + counters into a checkpoint. */
    void saveState(CkptWriter &w) const;

    /** Restore state saved by saveState(); channel count must match. */
    void restoreState(CkptReader &r);

  private:
    EventQueue &eventq;
    Params params_;
    Modulus channelOf{1};             ///< sector number -> channel
    std::vector<Cycle> channelFree;   ///< next cycle each channel is free
    std::vector<std::uint64_t> channelBusyCycles;
    Cycle statsSince = 0;             ///< utilisation window start
    Stats stats_;
};

} // namespace sw

#endif // SW_MEM_DRAM_HH
