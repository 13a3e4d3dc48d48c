/** @file Unit tests for Modulus (set indices and channel picks). */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "sim/modulus.hh"

using namespace sw;

namespace {

/** Powers of two take the mask, every other divisor the divide; both
 *  must equal x % n for any x. */
TEST(Modulus, EqualsTheRemainderForEveryDivisor)
{
    const std::uint64_t divisors[] = {
        1, 2, 3, 5, 12, 16, 60, 64, 2048, 2049, 1ull << 32,
        (1ull << 32) + 1, 1ull << 63, (1ull << 63) + 1, ~std::uint64_t(0)};
    std::mt19937_64 rng(5);
    for (std::uint64_t n : divisors) {
        Modulus mod(n);
        for (std::uint64_t x : {std::uint64_t(0), n - 1, n, n + 1,
                                ~std::uint64_t(0)})
            EXPECT_EQ(mod(x), x % n) << x << " mod " << n;
        for (int i = 0; i < 1000; ++i) {
            std::uint64_t x = rng();
            ASSERT_EQ(mod(x), x % n) << x << " mod " << n;
        }
    }
}

TEST(ModulusDeath, ZeroDivisorRejected)
{
    EXPECT_DEATH(Modulus(0), "modulus of zero");
}

} // namespace
