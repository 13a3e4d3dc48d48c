/**
 * @file
 * Unit tests for the Slab storage behind request records and walk
 * records: ids come back after free, records never move, live() counts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/request.hh"
#include "vm/walk.hh"

using namespace sw;

namespace {

template <typename Pool>
class SlabTest : public ::testing::Test
{
};

using Pools = ::testing::Types<RequestPool, WalkPool>;
TYPED_TEST_SUITE(SlabTest, Pools);

TYPED_TEST(SlabTest, LiveCountsAllocatedRecords)
{
    TypeParam pool;
    EXPECT_EQ(pool.live(), 0u);
    std::uint32_t a = pool.alloc({});
    std::uint32_t b = pool.alloc({});
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.live(), 2u);
    pool.free(a);
    EXPECT_EQ(pool.live(), 1u);
    pool.free(b);
    EXPECT_EQ(pool.live(), 0u);
}

TYPED_TEST(SlabTest, FreedIdsAreReusedLastFreedFirst)
{
    TypeParam pool;
    std::uint32_t a = pool.alloc({});
    std::uint32_t b = pool.alloc({});
    std::uint32_t c = pool.alloc({});
    pool.free(a);
    pool.free(c);
    EXPECT_EQ(pool.alloc({}), c);
    EXPECT_EQ(pool.alloc({}), a);
    // Nothing is free: the next id is new.
    std::uint32_t d = pool.alloc({});
    EXPECT_NE(d, a);
    EXPECT_NE(d, b);
    EXPECT_NE(d, c);
    EXPECT_EQ(pool.live(), 4u);
}

TYPED_TEST(SlabTest, AllocInitialisesTheRecord)
{
    TypeParam pool;
    std::uint32_t id = pool.alloc({});
    pool[id].next = 7;
    pool.free(id);
    // The reused record is the initial value, not the freed one.
    EXPECT_EQ(pool.alloc({}), id);
    EXPECT_EQ(pool[id].next, decltype(pool[id].next)(~0u));
}

TYPED_TEST(SlabTest, RecordsKeepTheirAddressWhenAChunkIsTaken)
{
    TypeParam pool;
    std::uint32_t first = pool.alloc({});
    auto *address = &pool[first];
    address->next = 42;
    // Far more records than one chunk holds.
    std::vector<std::uint32_t> more;
    for (int i = 0; i < 3000; ++i)
        more.push_back(pool.alloc({}));
    EXPECT_EQ(&pool[first], address);
    EXPECT_EQ(pool[first].next, 42u);
    EXPECT_EQ(pool.live(), 3001u);
    for (std::uint32_t id : more)
        pool.free(id);
    EXPECT_EQ(pool.live(), 1u);
}

} // namespace
