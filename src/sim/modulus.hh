/**
 * @file
 * Modulus: x mod n for a divisor fixed at construction, without a
 * hardware divide when n is a power of two.
 *
 * Set indices and channel picks reduce an address by a count that the
 * configuration fixes: the sets of a cache or a TLB, the channels of the
 * DRAM.  A 64-bit divide costs tens of cycles and stalls whatever waits
 * on its result; the Table 3 machine has power-of-two counts everywhere,
 * so a mask computed once serves them, and any other count still takes
 * the divide on the same path.
 */

#ifndef SW_SIM_MODULUS_HH
#define SW_SIM_MODULUS_HH

#include <bit>
#include <cstdint>

#include "sim/logging.hh"

namespace sw {

class Modulus
{
  public:
    explicit Modulus(std::uint64_t divisor)
        : n(divisor), mask(std::has_single_bit(divisor) ? divisor - 1
                                                        : kDivide)
    {
        SW_ASSERT(divisor > 0, "modulus of zero");
    }

    /** @p x mod the divisor. */
    std::uint64_t
    operator()(std::uint64_t x) const
    {
        return mask != kDivide ? x & mask : x % n;
    }

  private:
    /** No power of two below 2^64 has this mask: take the divide. */
    static constexpr std::uint64_t kDivide = ~std::uint64_t(0);

    std::uint64_t n;
    std::uint64_t mask;
};

} // namespace sw

#endif // SW_SIM_MODULUS_HH
