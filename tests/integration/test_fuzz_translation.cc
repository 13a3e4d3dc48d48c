/**
 * @file
 * Randomised end-to-end fuzz of the translation path: thousands of
 * translations with adversarial vpn/sm/timing distributions, checked
 * against the functional page table.  Runs across every backend.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/softwalker.hh"
#include "harness/experiment.hh"
#include "test_util.hh"
#include "workload/workload.hh"

using namespace sw;

namespace {

/** A workload is required to build a Gpu; the fuzz drives translate()
 *  directly, so warps get an inert single-page stream. */
class InertWorkload : public Workload
{
  public:
    WarpInstr
    next(SmId, WarpId, Rng &) override
    {
        WarpInstr instr;
        instr.computeGap = 1;
        instr.activeLanes = 1;
        instr.addrs[0] = 1ull << 34;
        return instr;
    }
    std::uint64_t footprintBytes() const override { return 1 << 20; }
    std::string name() const override { return "inert"; }
    bool irregular() const override { return false; }
};

using FuzzParam = std::tuple<TranslationMode, std::uint64_t /*seed*/>;

class TranslationFuzz : public ::testing::TestWithParam<FuzzParam>
{
};

TEST_P(TranslationFuzz, AllTranslationsCorrectAndComplete)
{
    auto [mode, seed] = GetParam();
    GpuConfig cfg = (mode == TranslationMode::SoftWalker ||
                     mode == TranslationMode::Hybrid)
        ? test::smallSoftWalkerConfig()
        : test::smallConfig();
    cfg.mode = mode;
    cfg.rngSeed = seed;

    Gpu gpu(cfg, std::make_unique<InertWorkload>());
    installWalkBackend(gpu);
    TranslationEngine &engine = gpu.engine();
    EventQueue &eq = gpu.eventQueue();
    PageTableBase &pt = gpu.pageTable();
    // The SMs never start, so the test owns every translation completion.
    test::RequestClient client(gpu.memory().requests(), {Done::Translation});

    Rng rng(seed * 7919 + 13);
    constexpr int kRequests = 3000;
    int completed = 0;
    std::map<Vpn, Pfn> observed;

    auto issue = [&](SmId sm, Vpn vpn) {
        engine.translate(client.translation(
            sm, TranslationKey{0, vpn}, [&, vpn](Pfn pfn) {
                ++completed;
                auto [it, inserted] = observed.try_emplace(vpn, pfn);
                // A VPN must always resolve to the same frame.
                EXPECT_EQ(it->second, pfn);
                (void)inserted;
            }));
    };

    // Burst schedule: clusters of same-vpn requests (merge pressure),
    // wide scans (capacity pressure), random singles.
    Cycle when = 1;
    for (int i = 0; i < kRequests; ++i) {
        std::uint64_t shape = rng.range(100);
        Vpn vpn;
        if (shape < 40) {
            vpn = rng.range(64);                  // hot: heavy merging
        } else if (shape < 80) {
            vpn = 1000 + rng.range(100000);       // wide: MSHR pressure
        } else {
            vpn = rng.range(1ull << 30);          // cold singles
        }
        SmId sm = SmId(rng.range(cfg.numSms));
        when += rng.range(20);
        eq.schedule(when, [&issue, sm, vpn]() { issue(sm, vpn); });
    }
    eq.run();

    EXPECT_EQ(completed, kRequests);
    for (auto [vpn, pfn] : observed)
        EXPECT_EQ(pt.translate(vpn), pfn);

    const TranslationEngine::Stats &stats = engine.stats();
    EXPECT_EQ(stats.walksCreated, stats.walksCompleted);
    EXPECT_EQ(engine.outstandingWalks(), 0u);
    EXPECT_EQ(engine.backend()->inFlight(), 0u);
    EXPECT_EQ(engine.l2Tlb().pendingCount(), 0u);
    EXPECT_TRUE(eq.empty());
    if (SoftWalkerBackend *backend = softWalkerOf(gpu)) {
        EXPECT_EQ(backend->distributor().totalCredits(), 0u);
    }

    // Conservation: every request is accounted for exactly once.
    EXPECT_EQ(stats.requests, std::uint64_t(kRequests));
    EXPECT_EQ(stats.translationLatency.count, std::uint64_t(kRequests));
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, TranslationFuzz,
    ::testing::Combine(
        ::testing::Values(TranslationMode::HardwarePtw,
                          TranslationMode::SoftWalker,
                          TranslationMode::Hybrid, TranslationMode::Ideal),
        ::testing::Values(1u, 2u, 3u)));

} // namespace
