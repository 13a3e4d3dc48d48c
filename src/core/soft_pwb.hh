/**
 * @file
 * SoftPWB: the shared-memory request buffer holding pending page-walk
 * requests on each SM, together with the SoftPWB Status Bitmap the
 * SoftWalker Controller uses to track per-slot state (§4.4).
 *
 * Each slot mirrors one 96-bit shared-memory record (33-bit VPN, 31-bit
 * table-base PFN, 2-bit level) and is invalid / valid / processing.
 */

#ifndef SW_CORE_SOFT_PWB_HH
#define SW_CORE_SOFT_PWB_HH

#include <cstdint>
#include <span>
#include <vector>

#include "ckpt/ckpt_io.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "vm/walk.hh"

namespace sw {

/** Per-SM software page walk buffer. */
class SoftPwb
{
  public:
    enum class SlotState : std::uint8_t { Invalid, Valid, Processing };

    struct Slot
    {
        SlotState state = SlotState::Invalid;
        WalkRequest req;
        Cycle arrived = 0;
    };

    struct Stats
    {
        std::uint64_t inserts = 0;
        std::uint64_t peakOccupancy = 0;
    };

    explicit SoftPwb(std::uint32_t num_entries) : slots(num_entries)
    {
        SW_ASSERT(num_entries > 0, "SoftPWB needs entries");
    }

    std::uint32_t
    freeSlots() const
    {
        std::uint32_t free_count = 0;
        for (const auto &slot : slots)
            if (slot.state == SlotState::Invalid)
                ++free_count;
        return free_count;
    }

    std::uint32_t
    validCount() const
    {
        std::uint32_t count = 0;
        for (const auto &slot : slots)
            if (slot.state == SlotState::Valid)
                ++count;
        return count;
    }

    std::uint32_t
    processingCount() const
    {
        std::uint32_t count = 0;
        for (const auto &slot : slots)
            if (slot.state == SlotState::Processing)
                ++count;
        return count;
    }

    /** Valid + processing slots (everything holding a live request). */
    std::uint32_t
    occupiedCount() const
    {
        return std::uint32_t(slots.size()) - freeSlots();
    }

    /** Fill an invalid slot with a request (controller step 4-5). */
    std::uint32_t
    insert(WalkRequest req, Cycle now)
    {
        for (std::uint32_t i = 0; i < slots.size(); ++i) {
            if (slots[i].state == SlotState::Invalid) {
                slots[i].state = SlotState::Valid;
                slots[i].req = std::move(req);
                slots[i].arrived = now;
                ++stats_.inserts;
                std::uint64_t occ = slots.size() - freeSlots();
                stats_.peakOccupancy = std::max(stats_.peakOccupancy, occ);
                return i;
            }
        }
        panic("SoftPWB overflow: distributor credit accounting broken");
    }

    /**
     * Mark up to @p picked.size() valid slots processing and write their
     * indices into @p picked; @return how many were picked.
     */
    std::uint32_t
    collectValid(std::span<std::uint32_t> picked)
    {
        std::uint32_t count = 0;
        for (std::uint32_t i = 0; i < slots.size() && count < picked.size();
             ++i) {
            if (slots[i].state == SlotState::Valid) {
                slots[i].state = SlotState::Processing;
                picked[count++] = i;
            }
        }
        return count;
    }

    Slot &slot(std::uint32_t idx) { return slots.at(idx); }
    const Slot &slot(std::uint32_t idx) const { return slots.at(idx); }

    /** Walk finished: processing -> invalid (controller step 10). */
    void
    release(std::uint32_t idx)
    {
        SW_ASSERT(slots.at(idx).state == SlotState::Processing,
                  "release of a non-processing SoftPWB slot");
        slots[idx].state = SlotState::Invalid;
    }

    std::uint32_t size() const { return std::uint32_t(slots.size()); }
    void resetStats() { stats_ = Stats{}; }

    /** Register the buffer's counters with the unified stat registry. */
    void
    registerStats(StatGroup group)
    {
        group.counter("inserts", &stats_.inserts);
        group.counter("peak_occupancy", &stats_.peakOccupancy);
        group.gauge("occupied",
                    [this]() { return double(occupiedCount()); });
    }

    const Stats &stats() const { return stats_; }

    /** Serialise counters (slots must all be invalid: quiesced tick). */
    void
    saveState(CkptWriter &w) const
    {
        SW_ASSERT(occupiedCount() == 0,
                  "SoftPWB checkpointed with live requests");
        w.section("soft_pwb");
        w.u32(std::uint32_t(slots.size()));
        w.u64(stats_.inserts);
        w.u64(stats_.peakOccupancy);
    }

    /** Restore state saved by saveState(); capacity must match. */
    void
    restoreState(CkptReader &r)
    {
        r.expectSection("soft_pwb");
        std::uint32_t entries = r.u32();
        if (entries != slots.size()) {
            fatal("checkpoint SoftPWB has %u entries, this config has %zu",
                  entries, slots.size());
        }
        stats_.inserts = r.u64();
        stats_.peakOccupancy = r.u64();
    }

  private:
    friend struct AuditTester;   ///< negative-path audit tests only

    std::vector<Slot> slots;
    Stats stats_;
};

} // namespace sw

#endif // SW_CORE_SOFT_PWB_HH
