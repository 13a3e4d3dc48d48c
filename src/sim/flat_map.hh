/**
 * @file
 * FlatMap: an open-addressed hash table for the simulator's MSHR files.
 *
 * Linear probing over one flat slot array, kept at most half full, with
 * backward-shift deletion (no tombstones, so probe chains never rot under
 * the insert/erase churn of a miss-tracking file).  The array is allocated
 * on the first insert and doubles when half full; it never shrinks, so a
 * table that has reached its working size allocates nothing again.
 *
 * Keys are compared with ==; one key value, given at construction, marks
 * an empty slot and must never be inserted.  The caller's hash is mixed
 * with a Fibonacci multiply and the top bits pick the home slot, so
 * identity hashes (std::hash<uint64_t>) spread well.  Iteration order is
 * a function of the insert/erase history alone, hence deterministic.
 */

#ifndef SW_SIM_FLAT_MAP_HH
#define SW_SIM_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace sw {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlatMap
{
  public:
    explicit FlatMap(Key empty_key) : emptyKey(empty_key) {}

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    /** Slots currently allocated (0 until the first insert). */
    std::size_t capacity() const { return slots.size(); }

    Value *
    find(const Key &key)
    {
        if (slots.empty())
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask()) {
            if (slots[i].key == key)
                return &slots[i].value;
            if (slots[i].key == emptyKey)
                return nullptr;
        }
    }

    /**
     * Add @p key (which must be absent) with a value-initialised Value.
     * The reference lives until the next insert or erase.
     */
    Value &
    insert(const Key &key)
    {
        SW_ASSERT(!(key == emptyKey), "FlatMap insert of the empty key");
        if (2 * (count + 1) > slots.size())
            grow();
        std::size_t i = home(key);
        while (!(slots[i].key == emptyKey)) {
            SW_ASSERT(!(slots[i].key == key), "FlatMap duplicate insert");
            i = (i + 1) & mask();
        }
        slots[i].key = key;
        slots[i].value = Value{};
        ++count;
        return slots[i].value;
    }

    /** Remove @p key, which must be present. */
    void
    erase(const Key &key)
    {
        SW_ASSERT(!slots.empty(), "FlatMap erase from an empty table");
        std::size_t hole = home(key);
        while (!(slots[hole].key == key)) {
            SW_ASSERT(!(slots[hole].key == emptyKey),
                      "FlatMap erase of an absent key");
            hole = (hole + 1) & mask();
        }
        // Backward shift: pull each later entry of the probe run into the
        // hole unless its home lies cyclically in (hole, j].
        for (std::size_t j = (hole + 1) & mask();
             !(slots[j].key == emptyKey); j = (j + 1) & mask()) {
            std::size_t h = home(slots[j].key);
            bool stays = hole < j ? (hole < h && h <= j)
                                  : (hole < h || h <= j);
            if (stays)
                continue;
            slots[hole] = std::move(slots[j]);
            hole = j;
        }
        slots[hole].key = emptyKey;
        --count;
    }

    /** Visit every (key, value) in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &slot : slots)
            if (!(slot.key == emptyKey))
                fn(slot.key, slot.value);
    }

  private:
    struct Slot
    {
        Key key;
        Value value;
    };

    static constexpr std::size_t kInitialSlots = 16;

    std::size_t mask() const { return slots.size() - 1; }

    std::size_t
    home(const Key &key) const
    {
        std::uint64_t h = std::uint64_t(Hash{}(key)) * 0x9E3779B97F4A7C15ull;
        return std::size_t(h >> shift);
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots);
        std::size_t size = old.empty() ? kInitialSlots : 2 * old.size();
        slots.assign(size, Slot{emptyKey, Value{}});
        shift = 64;
        for (std::size_t n = size; n > 1; n >>= 1)
            --shift;
        for (Slot &slot : old) {
            if (slot.key == emptyKey)
                continue;
            std::size_t i = home(slot.key);
            while (!(slots[i].key == emptyKey))
                i = (i + 1) & mask();
            slots[i] = std::move(slot);
        }
    }

    Key emptyKey;
    std::vector<Slot> slots;
    std::size_t count = 0;
    unsigned shift = 64;
};

} // namespace sw

#endif // SW_SIM_FLAT_MAP_HH
