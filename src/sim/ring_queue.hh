/**
 * @file
 * RingQueue: a FIFO in one power-of-two array that grows only when full.
 *
 * A std::deque allocates and frees a node every few hundred bytes of
 * traffic as it slides, however short it stays.  A RingQueue reaches its
 * working size once and then allocates nothing, however long it cycles:
 * a push that finds it full doubles the array (moving the elements to
 * its front, oldest first), and it never shrinks.
 */

#ifndef SW_SIM_RING_QUEUE_HH
#define SW_SIM_RING_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace sw {

template <typename T>
class RingQueue
{
  public:
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    /** Slots currently allocated (0 until the first push). */
    std::size_t capacity() const { return slots.size(); }

    T &
    front()
    {
        SW_ASSERT(count > 0, "RingQueue front of an empty queue");
        return slots[head];
    }

    T &
    back()
    {
        SW_ASSERT(count > 0, "RingQueue back of an empty queue");
        return slots[(head + count - 1) & mask()];
    }

    /** The @p i-th element, oldest first (0 is front()). */
    const T &
    operator[](std::size_t i) const
    {
        SW_ASSERT(i < count, "RingQueue index %zu past size %zu", i, count);
        return slots[(head + i) & mask()];
    }

    void
    pushBack(const T &value)
    {
        if (count == slots.size())
            grow();
        slots[(head + count) & mask()] = value;
        ++count;
    }

    void
    popFront()
    {
        SW_ASSERT(count > 0, "RingQueue pop from an empty queue");
        head = (head + 1) & mask();
        --count;
    }

    /** Drop every element; the array is kept for reuse. */
    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /**
     * Remove every element @p take returns true for, in one front-to-back
     * pass that keeps the others in their order.  @p take sees each
     * element once, oldest first, and may move from one it takes.
     */
    template <typename Take>
    void
    removeIf(Take take)
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < count; ++i) {
            T &item = slots[(head + i) & mask()];
            if (take(item))
                continue;
            if (kept != i)
                slots[(head + kept) & mask()] = std::move(item);
            ++kept;
        }
        count = kept;
    }

  private:
    static constexpr std::size_t kInitialSlots = 8;

    std::size_t mask() const { return slots.size() - 1; }

    void
    grow()
    {
        std::vector<T> bigger(slots.empty() ? kInitialSlots
                                            : 2 * slots.size());
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = std::move(slots[(head + i) & mask()]);
        slots = std::move(bigger);
        head = 0;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace sw

#endif // SW_SIM_RING_QUEUE_HH
