/**
 * @file
 * Heap-allocation counter for the benchmark binary.
 *
 * alloc_counter.cc replaces the global operator new/delete of the
 * perfbench executable only (the simulator libraries are untouched).
 * Every thread counts its own allocations, so SweepRunner workers never
 * contend and a job reads exact deltas around its own phases.
 */

#ifndef PERFBENCH_ALLOC_COUNTER_HH
#define PERFBENCH_ALLOC_COUNTER_HH

#include <cstdint>

namespace perfbench {

/** Allocations made by one thread (operator new calls and bytes asked). */
struct AllocCount
{
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;

    AllocCount
    operator-(const AllocCount &earlier) const
    {
        return {count - earlier.count, bytes - earlier.bytes};
    }
};

/** The calling thread's allocations since it started. */
AllocCount threadAllocs();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNTER_HH
