#include "ckpt/sampling.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"
#include "vm/address.hh"

namespace sw {

namespace {

/** Feature bins per window: hashed page → bin histogram. */
constexpr std::size_t kBins = 64;

/** SplitMix64 finaliser: decorrelates adjacent VPNs across bins. */
std::uint64_t
hashVpn(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

using Feature = std::vector<double>;  // kBins L1-normalised + time dim

double
distanceSq(const Feature &a, const Feature &b)
{
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        double diff = a[i] - b[i];
        d += diff * diff;
    }
    return d;
}

} // namespace

SamplingPlan
buildSamplingPlan(const TraceFile &trace, const SamplingOptions &opts)
{
    SW_ASSERT(opts.windowInstrs > 0, "sampling window must be non-empty");
    SW_ASSERT(opts.numClusters > 0, "sampling needs at least one cluster");
    SW_ASSERT(std::isfinite(opts.timeFeatureWeight),
              "sampling time-feature weight must be finite");
    std::uint64_t total = trace.totalInstrs();
    if (total == 0)
        fatal("phase sampling over an empty trace (%s)",
              trace.header.name.c_str());
    std::uint64_t skip = opts.skipInstrs;
    if (skip >= total) {
        fatal("phase sampling skip region (%llu instrs) covers the whole "
              "trace (%llu)",
              static_cast<unsigned long long>(skip),
              static_cast<unsigned long long>(total));
    }

    // Walk the streams in the order execution will consume them — the
    // recorded global fetch order when the trace carries one (v2), the
    // round-robin interleaving otherwise (one instruction per live
    // stream per pass; fastForward() uses the same fallback).  Window
    // boundaries then line up with the execution plan, so the
    // instructions a feature vector summarises are the instructions the
    // detailed window actually runs.
    PageGeometry geometry(opts.pageBytes);
    std::vector<std::size_t> cursor(trace.streams.size(), 0);
    std::vector<Feature> features;
    std::vector<std::uint64_t> window_len;
    Feature current(kBins, 0.0);
    std::uint64_t in_window = 0;
    std::uint64_t consumed = 0;

    auto close_window = [&]() {
        double samples = 0.0;
        for (double bin : current)
            samples += bin;
        if (samples > 0.0) {
            for (double &bin : current)
                bin /= samples;
        }
        features.push_back(current);
        window_len.push_back(in_window);
        std::fill(current.begin(), current.end(), 0.0);
        in_window = 0;
    };

    auto consume_one = [&](std::size_t s) {
        const WarpInstr &instr = trace.streams[s].instrs[cursor[s]++];
        ++consumed;
        if (consumed <= skip)
            return;   // cold-start region: not featurised
        std::uint32_t lanes =
            std::min<std::uint32_t>(instr.activeLanes, 32);
        for (std::uint32_t lane = 0; lane < lanes; ++lane) {
            Vpn vpn = geometry.vpnOf(instr.addrs[lane]);
            current[hashVpn(vpn) % kBins] += 1.0;
        }
        if (++in_window == opts.windowInstrs)
            close_window();
    };

    if (!trace.fetchOrder.empty()) {
        for (std::uint32_t s : trace.fetchOrder)
            consume_one(s);
    } else {
        while (consumed < total) {
            for (std::size_t s = 0; s < trace.streams.size(); ++s) {
                if (cursor[s] < trace.streams[s].instrs.size())
                    consume_one(s);
            }
        }
    }
    if (in_window > 0)
        close_window();

    std::uint64_t num_windows = features.size();

    // Temporal feature (see SamplingOptions::timeFeatureWeight): appended
    // after all windows exist because its scale needs num_windows.  With
    // flat histograms it turns k-means into stratified time sampling;
    // with real phase structure the histogram distance dwarfs it.
    if (opts.timeFeatureWeight > 0.0) {
        for (std::uint64_t w = 0; w < num_windows; ++w) {
            double t = num_windows > 1
                ? double(w) / double(num_windows - 1) : 0.0;
            features[w].push_back(opts.timeFeatureWeight * t);
        }
    }

    std::uint32_t k = std::uint32_t(
        std::min<std::uint64_t>(opts.numClusters, num_windows));

    // k-means-lite: deterministic evenly spaced seeding, fixed iteration
    // count, ties broken toward the lower cluster index.
    std::vector<Feature> centroids;
    centroids.reserve(k);
    for (std::uint32_t c = 0; c < k; ++c)
        centroids.push_back(features[(c * num_windows) / k]);

    std::vector<std::uint32_t> assign(num_windows, 0);
    for (std::uint32_t iter = 0; iter < opts.kmeansIters; ++iter) {
        bool moved = false;
        for (std::uint64_t w = 0; w < num_windows; ++w) {
            double best = std::numeric_limits<double>::infinity();
            std::uint32_t best_c = 0;
            for (std::uint32_t c = 0; c < k; ++c) {
                double d = distanceSq(features[w], centroids[c]);
                if (d < best) {
                    best = d;
                    best_c = c;
                }
            }
            if (assign[w] != best_c) {
                assign[w] = best_c;
                moved = true;
            }
        }
        if (!moved && iter > 0)
            break;
        std::size_t dims = features.empty() ? kBins : features[0].size();
        for (std::uint32_t c = 0; c < k; ++c) {
            Feature sum(dims, 0.0);
            std::uint64_t members = 0;
            for (std::uint64_t w = 0; w < num_windows; ++w) {
                if (assign[w] != c)
                    continue;
                ++members;
                for (std::size_t i = 0; i < dims; ++i)
                    sum[i] += features[w][i];
            }
            // An emptied cluster keeps its centroid; a later iteration
            // (or none) may repopulate it.  Representatives below skip
            // member-less clusters entirely.
            if (members == 0)
                continue;
            for (std::size_t i = 0; i < dims; ++i)
                sum[i] /= double(members);
            centroids[c] = std::move(sum);
        }
    }

    SamplingPlan plan;
    plan.windowInstrs = opts.windowInstrs;
    plan.skipInstrs = skip;
    plan.totalInstrs = total - skip;
    plan.totalWindows = num_windows;
    plan.clusters = k;
    for (std::uint32_t c = 0; c < k; ++c) {
        std::uint64_t members = 0;
        double best = std::numeric_limits<double>::infinity();
        std::uint64_t rep = num_windows;
        for (std::uint64_t w = 0; w < num_windows; ++w) {
            if (assign[w] != c)
                continue;
            ++members;
            double d = distanceSq(features[w], centroids[c]);
            if (d < best) {
                best = d;
                rep = w;
            }
        }
        if (members == 0)
            continue;
        SampleWindow window;
        window.index = rep;
        window.startInstr = skip + rep * opts.windowInstrs;
        window.instrs = window_len[rep];
        window.cluster = c;
        window.weight = double(members) / double(num_windows);
        plan.windows.push_back(window);
    }
    std::sort(plan.windows.begin(), plan.windows.end(),
              [](const SampleWindow &a, const SampleWindow &b) {
                  return a.startInstr < b.startInstr;
              });
    SW_ASSERT(!plan.windows.empty(), "clustering produced no windows");
    return plan;
}

MetricEstimate
weightedEstimate(const std::vector<double> &values,
                 const std::vector<double> &weights)
{
    SW_ASSERT(values.size() == weights.size(),
              "metric/weight vectors differ in size");
    MetricEstimate out;
    double wsum = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        out.mean += values[i] * weights[i];
        wsum += weights[i];
    }
    if (wsum <= 0.0)
        return out;
    out.mean /= wsum;
    double var = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        double diff = values[i] - out.mean;
        var += weights[i] * diff * diff;
    }
    out.spread = std::sqrt(var / wsum);
    return out;
}

} // namespace sw
