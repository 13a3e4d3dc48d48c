/**
 * @file
 * Lightweight statistics primitives.
 *
 * Components expose plain stat structs for speed; these helpers cover the
 * common aggregations (latency accumulation, means) and the table
 * formatting used by the benchmark harnesses.
 */

#ifndef SW_SIM_STATS_HH
#define SW_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace sw {

/** Accumulates count/sum/min/max of a sampled quantity (e.g. a latency). */
struct LatencyStat
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t minv = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t maxv = 0;

    void
    add(std::uint64_t v)
    {
        ++count;
        sum += v;
        minv = std::min(minv, v);
        maxv = std::max(maxv, v);
    }

    double mean() const { return count ? double(sum) / double(count) : 0.0; }

    void
    merge(const LatencyStat &o)
    {
        count += o.count;
        sum += o.sum;
        minv = std::min(minv, o.minv);
        maxv = std::max(maxv, o.maxv);
    }

    void reset() { *this = LatencyStat{}; }
};

/** Geometric mean of a vector of ratios (speedups). */
double geomean(const std::vector<double> &values);

/** Arithmetic mean. */
double mean(const std::vector<double> &values);

/**
 * Simple fixed-width text-table formatter used by the figure harnesses to
 * print paper-style result rows.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns. */
    std::string str() const;

    /** Convenience: format a double with @p precision digits. */
    static std::string num(double v, int precision = 2);

  private:
    std::vector<std::vector<std::string>> rows;
};

} // namespace sw

#endif // SW_SIM_STATS_HH
