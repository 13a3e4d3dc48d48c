/** @file Property tests for the open-addressed FlatMap (MSHR tables). */

#include <gtest/gtest.h>

#include <map>

#include "sim/flat_map.hh"
#include "sim/rng.hh"

using namespace sw;

namespace {

constexpr std::uint64_t kEmpty = ~std::uint64_t(0);

/**
 * Sends every key to one of three home slots: the last slot of the table
 * (kLastSlot mixes to all ones), slot 0 and one in between, so the runs
 * are long and the one from the last slot wraps into the one at 0.
 */
struct CollidingHash
{
    static constexpr std::uint64_t kLastSlot = 0x0e217c1e66c88cc3ull;

    std::size_t
    operator()(std::uint64_t key) const
    {
        return key % 3 == 0 ? kLastSlot : key % 3 - 1;
    }
};

template <typename Hash>
void
checkAgainstMap(std::uint64_t seed, std::uint64_t key_space)
{
    FlatMap<std::uint64_t, std::uint64_t, Hash> table(kEmpty);
    std::map<std::uint64_t, std::uint64_t> model;
    Rng rng(seed);
    for (int step = 0; step < 20000; ++step) {
        std::uint64_t key = rng.range(key_space);
        std::uint64_t op = rng.range(10);
        std::uint64_t *found = table.find(key);
        ASSERT_EQ(found != nullptr, model.count(key) == 1) << "step " << step;
        if (found) {
            ASSERT_EQ(*found, model[key]) << "step " << step;
        }
        if (op < 5 && !found) {
            table.insert(key) = std::uint64_t(step);
            model[key] = std::uint64_t(step);
        } else if (op < 9 && found) {
            table.erase(key);
            model.erase(key);
        } else if (found) {
            *found += 1;
            model[key] += 1;
        }
        ASSERT_EQ(table.size(), model.size());
    }
    // Every survivor is reachable, and iteration sees exactly the model.
    std::map<std::uint64_t, std::uint64_t> seen;
    table.forEach([&](std::uint64_t key, std::uint64_t value) {
        EXPECT_TRUE(seen.emplace(key, value).second);
    });
    EXPECT_EQ(seen, model);
    for (auto [key, value] : model) {
        std::uint64_t *found = table.find(key);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, value);
    }
}

TEST(FlatMap, MatchesStdMapUnderRandomChurn)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        checkAgainstMap<std::hash<std::uint64_t>>(seed, 256);
}

TEST(FlatMap, MatchesStdMapWithForcedCollisions)
{
    // Deletion is where open addressing breaks: with three home slots
    // every erase shifts a long run back, often across the wrap-around.
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        checkAgainstMap<CollidingHash>(seed, 96);
}

TEST(FlatMap, AllocatesOnFirstInsertAndGrowsPastHalfFull)
{
    FlatMap<std::uint64_t, int> table(kEmpty);
    EXPECT_EQ(table.capacity(), 0u) << "construction touches no slots";
    EXPECT_EQ(table.find(7), nullptr);
    table.insert(7) = 1;
    EXPECT_EQ(table.capacity(), 16u);
    for (std::uint64_t key = 100; key < 108; ++key)
        table.insert(key) = 2;
    EXPECT_EQ(table.size(), 9u);
    EXPECT_EQ(table.capacity(), 32u) << "never more than half full";
    for (std::uint64_t key = 100; key < 108; ++key)
        table.erase(key);
    EXPECT_EQ(table.capacity(), 32u) << "tables never shrink";
    EXPECT_EQ(*table.find(7), 1);
}

TEST(FlatMapDeath, MisuseIsCaught)
{
    FlatMap<std::uint64_t, int> table(kEmpty);
    table.insert(1);
    EXPECT_DEATH(table.insert(1), "duplicate insert");
    EXPECT_DEATH(table.erase(2), "absent key");
    EXPECT_DEATH(table.insert(kEmpty), "empty key");
}

} // namespace
