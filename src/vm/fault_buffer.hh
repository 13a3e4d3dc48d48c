/**
 * @file
 * Fault Buffer: the target of the FFB instruction (Table 2).
 *
 * When a walker (hardware or PW Warp) loads an invalid PTE it logs the
 * faulting VPN here; the UVM-style driver drains the buffer, maps the page,
 * and the walk is replayed (§5.5).
 */

#ifndef SW_VM_FAULT_BUFFER_HH
#define SW_VM_FAULT_BUFFER_HH

#include <cstdint>

#include "ckpt/ckpt_io.hh"
#include "obs/stat_registry.hh"
#include "sim/ring_queue.hh"
#include "sim/types.hh"
#include "vm/address.hh"

namespace sw {

/** Bounded log of pending page faults. */
class FaultBuffer
{
  public:
    struct Record
    {
        TranslationKey key;  ///< faulting {asid, vpn}
        int level;           ///< page-table level at which the walk faulted
        Cycle when;
    };

    struct Stats
    {
        std::uint64_t recorded = 0;
        std::uint64_t drained = 0;
        std::uint64_t overflows = 0;
    };

    explicit FaultBuffer(std::size_t capacity = 64) : capacity_(capacity) {}

    /** Log a fault (FFB). @retval false if the buffer is full. */
    bool
    record(TranslationKey key, int level, Cycle when)
    {
        if (records.size() >= capacity_) {
            ++stats_.overflows;
            return false;
        }
        records.pushBack({key, level, when});
        ++stats_.recorded;
        return true;
    }

    bool empty() const { return records.empty(); }
    std::size_t size() const { return records.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Driver side: pop the oldest fault. */
    Record
    pop()
    {
        Record record = records.front();
        records.popFront();
        ++stats_.drained;
        return record;
    }

    const Stats &stats() const { return stats_; }

    /** Register the buffer's counters with the unified stat registry. */
    void
    registerStats(StatGroup group)
    {
        group.counter("recorded", &stats_.recorded);
        group.counter("drained", &stats_.drained);
        group.counter("overflows", &stats_.overflows);
        group.gauge("pending", [this]() { return double(records.size()); });
    }

    /** Serialise pending records + counters into a checkpoint. */
    void
    saveState(CkptWriter &w) const
    {
        w.section("fault_buffer");
        w.u64(capacity_);
        w.u64(records.size());
        for (std::size_t i = 0; i < records.size(); ++i) {
            const Record &record = records[i];
            w.u32(record.key.asid);
            w.u64(record.key.vpn);
            w.u32(std::uint32_t(record.level));
            w.u64(record.when);
        }
        w.u64(stats_.recorded);
        w.u64(stats_.drained);
        w.u64(stats_.overflows);
    }

    /** Restore state saved by saveState(); capacity must match. */
    void
    restoreState(CkptReader &r)
    {
        r.expectSection("fault_buffer");
        std::uint64_t cap = r.u64();
        if (cap != capacity_) {
            fatal("checkpoint fault buffer capacity %llu != configured %zu",
                  static_cast<unsigned long long>(cap), capacity_);
        }
        std::uint64_t n = r.count(20, "fault records");
        if (n > capacity_)
            fatal("checkpoint fault buffer holds more records than fit");
        records.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            Record record;
            record.key.asid = r.u32();
            record.key.vpn = r.u64();
            record.level = int(r.u32());
            record.when = r.u64();
            records.pushBack(record);
        }
        stats_.recorded = r.u64();
        stats_.drained = r.u64();
        stats_.overflows = r.u64();
    }

  private:
    std::size_t capacity_;
    RingQueue<Record> records;
    Stats stats_;
};

} // namespace sw

#endif // SW_VM_FAULT_BUFFER_HH
