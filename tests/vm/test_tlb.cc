/** @file Unit & property tests for the TLB array and In-TLB MSHR states. */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/ckpt_io.hh"
#include "sim/rng.hh"
#include "vm/tlb.hh"

using namespace sw;

namespace {

/** These legacy tests are single-tenant: everything is tagged ASID 0. */
constexpr TranslationKey
K(Vpn vpn)
{
    return {0, vpn};
}

TEST(TlbArray, MissOnEmpty)
{
    TlbArray tlb("t", 16, 4);
    Pfn pfn = 0;
    EXPECT_FALSE(tlb.lookup(K(1), pfn));
    EXPECT_EQ(tlb.stats().lookups, 1u);
    EXPECT_EQ(tlb.stats().hits, 0u);
}

TEST(TlbArray, FillThenHit)
{
    TlbArray tlb("t", 16, 4);
    EXPECT_TRUE(tlb.fill(K(7), 77));
    Pfn pfn = 0;
    EXPECT_TRUE(tlb.lookup(K(7), pfn));
    EXPECT_EQ(pfn, 77u);
    EXPECT_DOUBLE_EQ(tlb.stats().hitRate(), 1.0);
}

TEST(TlbArray, RefillUpdatesInPlace)
{
    TlbArray tlb("t", 16, 4);
    tlb.fill(K(7), 77);
    tlb.fill(K(7), 88);
    Pfn pfn = 0;
    EXPECT_TRUE(tlb.lookup(K(7), pfn));
    EXPECT_EQ(pfn, 88u);
    EXPECT_EQ(tlb.stats().evictions, 0u);
}

TEST(TlbArray, SetOverflowEvictsLru)
{
    TlbArray tlb("t", 16, 4);   // 4 sets, 4 ways
    // Five VPNs mapping to set 0 (vpn % 4 == 0).
    for (Vpn vpn = 0; vpn < 5; ++vpn)
        tlb.fill(K(vpn * 4), vpn);
    EXPECT_EQ(tlb.stats().evictions, 1u);
    Pfn pfn = 0;
    EXPECT_FALSE(tlb.lookup(K(0), pfn)) << "LRU entry evicted";
    EXPECT_TRUE(tlb.lookup(K(16), pfn));
}

TEST(TlbArray, LookupRefreshesLru)
{
    TlbArray tlb("t", 16, 4);
    for (Vpn vpn = 0; vpn < 4; ++vpn)
        tlb.fill(K(vpn * 4), vpn);
    Pfn pfn = 0;
    tlb.lookup(K(0), pfn);        // refresh vpn 0
    tlb.fill(K(16), 99);          // evicts vpn 4, not 0
    EXPECT_TRUE(tlb.probe(K(0)));
    EXPECT_FALSE(tlb.probe(K(4)));
}

TEST(TlbArray, FullyAssociativeWhenWaysEqualEntries)
{
    TlbArray tlb("l1", 8, 8);
    EXPECT_EQ(tlb.numSets(), 1u);
    for (Vpn vpn = 0; vpn < 8; ++vpn)
        tlb.fill(K(vpn * 1000 + 3), vpn);
    for (Vpn vpn = 0; vpn < 8; ++vpn)
        EXPECT_TRUE(tlb.probe(K(vpn * 1000 + 3)));
}

TEST(TlbArray, InvalidateRemovesEntry)
{
    TlbArray tlb("t", 16, 4);
    tlb.fill(K(5), 50);
    tlb.invalidate(K(5));
    EXPECT_FALSE(tlb.probe(K(5)));
}

TEST(TlbArray, FlushClearsEverything)
{
    TlbArray tlb("t", 16, 4);
    tlb.fill(K(5), 50);
    tlb.allocPending(K(9));
    tlb.flush();
    EXPECT_FALSE(tlb.probe(K(5)));
    EXPECT_EQ(tlb.pendingCount(), 0u);
}

// ---- In-TLB MSHR behaviour (§4.5) -------------------------------------

TEST(InTlbMshr, AllocPendingOccupiesAWay)
{
    TlbArray tlb("t", 16, 4);
    EXPECT_TRUE(tlb.allocPending(K(8)));
    EXPECT_EQ(tlb.pendingCount(), 1u);
    EXPECT_TRUE(tlb.hasPending(K(8)));
    EXPECT_FALSE(tlb.hasPending(K(12)));
}

TEST(InTlbMshr, SameTagReservationMerges)
{
    TlbArray tlb("t", 16, 4);
    EXPECT_TRUE(tlb.allocPending(K(8)));
    EXPECT_TRUE(tlb.allocPending(K(8)));
    EXPECT_EQ(tlb.pendingCount(), 1u) << "same tag merges onto one slot";
    EXPECT_EQ(tlb.stats().pendingAllocs, 1u);
}

TEST(InTlbMshr, SetFullyPendingFailsFurtherAllocs)
{
    TlbArray tlb("t", 16, 4);
    // Four distinct tags in set 0 consume all ways.
    for (Vpn vpn = 0; vpn < 4; ++vpn)
        EXPECT_TRUE(tlb.allocPending(K(vpn * 4)));
    EXPECT_FALSE(tlb.allocPending(K(16 * 4)));
    EXPECT_EQ(tlb.stats().pendingAllocFailures, 1u);
}

TEST(InTlbMshr, PendingAllocEvictsValidLruEntry)
{
    TlbArray tlb("t", 16, 4);
    for (Vpn vpn = 0; vpn < 4; ++vpn)
        tlb.fill(K(vpn * 4), vpn);
    EXPECT_TRUE(tlb.allocPending(K(100)));   // 100 % 4 == 0 -> set 0
    EXPECT_EQ(tlb.stats().pendingEvictedValid, 1u);
    EXPECT_FALSE(tlb.probe(K(0))) << "LRU translation sacrificed";
}

TEST(InTlbMshr, PendingEntriesAreNotLookupHits)
{
    TlbArray tlb("t", 16, 4);
    tlb.allocPending(K(8));
    Pfn pfn = 0;
    EXPECT_FALSE(tlb.lookup(K(8), pfn));
}

TEST(InTlbMshr, FillNeverDisplacesPending)
{
    TlbArray tlb("t", 16, 4);
    for (Vpn vpn = 0; vpn < 4; ++vpn)
        tlb.allocPending(K(vpn * 4));
    // Every way of set 0 is pending: a fill to that set is skipped.
    EXPECT_FALSE(tlb.fill(K(16 * 4), 1));
    EXPECT_EQ(tlb.stats().fillsSkipped, 1u);
    EXPECT_EQ(tlb.pendingCount(), 4u);
}

TEST(InTlbMshr, ClearPendingFreesAllMatchingWays)
{
    TlbArray tlb("t", 16, 4);
    tlb.allocPending(K(8));
    tlb.allocPending(K(12));
    tlb.clearPending(K(8));
    EXPECT_FALSE(tlb.hasPending(K(8)));
    EXPECT_TRUE(tlb.hasPending(K(12)));
    EXPECT_EQ(tlb.pendingCount(), 1u);
}

TEST(InTlbMshr, WalkCompletionFlow)
{
    // The full §4.5 sequence: alloc pending -> walk completes ->
    // clear pending -> fill valid -> subsequent lookups hit.
    TlbArray tlb("t", 16, 4);
    ASSERT_TRUE(tlb.allocPending(K(8)));
    tlb.clearPending(K(8));
    ASSERT_TRUE(tlb.fill(K(8), 80));
    Pfn pfn = 0;
    EXPECT_TRUE(tlb.lookup(K(8), pfn));
    EXPECT_EQ(pfn, 80u);
    EXPECT_EQ(tlb.pendingCount(), 0u);
}

TEST(TlbArrayDeath, RejectsIndivisibleGeometry)
{
    EXPECT_DEATH(TlbArray("bad", 10, 4), "divisible");
}

/** Property sweep over geometries: fills are always retrievable until the
 *  set overflows, and pending counts stay consistent. */
class TlbGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{
};

TEST_P(TlbGeometry, PendingCountConsistency)
{
    auto [entries, ways] = GetParam();
    TlbArray tlb("p", entries, ways);
    std::uint32_t allocated = 0;
    for (Vpn vpn = 0; vpn < entries * 2; ++vpn) {
        if (tlb.allocPending(K(vpn)))
            ++allocated;
    }
    EXPECT_EQ(tlb.pendingCount(), allocated);
    EXPECT_LE(allocated, entries);
    for (Vpn vpn = 0; vpn < entries * 2; ++vpn)
        tlb.clearPending(K(vpn));
    EXPECT_EQ(tlb.pendingCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbGeometry,
    ::testing::Combine(::testing::Values(16u, 64u, 256u),
                       ::testing::Values(2u, 4u, 16u)));

// ---- Packed tag store against the entry-array model ---------------------

/**
 * Reference model: the TLB array as it was before its tag store was
 * packed, one 32-byte entry (state, ASID, VPN, PFN, LRU tick) per way.
 * The victim rule is the lowest-index invalid way of the ASID's slice,
 * else its least recent valid way; pending ways are never displaced.
 * saveState() writes the checkpoint section that version wrote.
 */
class EntryArrayModel
{
  public:
    using EntryState = TlbArray::EntryState;

    EntryArrayModel(std::string name, std::uint32_t num_entries,
                    std::uint32_t num_ways)
        : name(std::move(name)), ways(num_ways),
          sets(num_entries / num_ways), entries(num_entries)
    {
    }

    std::vector<std::pair<std::uint32_t, std::uint32_t>> waySlices;
    TlbArray::Stats stats;
    std::uint32_t numPending = 0;

    bool
    lookup(TranslationKey key, Pfn &pfn)
    {
        ++stats.lookups;
        if (Entry *entry = find(EntryState::Valid, key)) {
            ++stats.hits;
            entry->lruTick = ++lruCounter;
            pfn = entry->pfn;
            return true;
        }
        return false;
    }

    bool probe(TranslationKey key) { return find(EntryState::Valid, key); }

    bool
    fill(TranslationKey key, Pfn pfn)
    {
        ++stats.fills;
        if (Entry *entry = find(EntryState::Valid, key)) {
            entry->pfn = pfn;
            entry->lruTick = ++lruCounter;
            return true;
        }
        Entry *victim = victimOf(key);
        if (!victim) {
            ++stats.fillsSkipped;
            return false;
        }
        if (victim->state == EntryState::Valid)
            ++stats.evictions;
        *victim = {EntryState::Valid, key.asid, key.vpn, pfn, ++lruCounter};
        return true;
    }

    bool
    allocPending(TranslationKey key)
    {
        if (find(EntryState::Pending, key))
            return true;
        Entry *victim = victimOf(key);
        if (!victim) {
            ++stats.pendingAllocFailures;
            return false;
        }
        if (victim->state == EntryState::Valid)
            ++stats.pendingEvictedValid;
        *victim = {EntryState::Pending, key.asid, key.vpn, 0, ++lruCounter};
        ++numPending;
        ++stats.pendingAllocs;
        return true;
    }

    bool
    hasPending(TranslationKey key)
    {
        return find(EntryState::Pending, key);
    }

    void
    clearPending(TranslationKey key)
    {
        for (std::uint32_t w = 0; w < ways; ++w) {
            Entry &entry = way(key.vpn, w);
            if (matches(entry, EntryState::Pending, key)) {
                entry.state = EntryState::Invalid;
                --numPending;
            }
        }
    }

    void
    invalidate(TranslationKey key)
    {
        if (Entry *entry = find(EntryState::Valid, key))
            entry->state = EntryState::Invalid;
    }

    void
    flushAsid(Asid asid)
    {
        for (Entry &entry : entries) {
            if (entry.state == EntryState::Valid && entry.asid == asid)
                entry.state = EntryState::Invalid;
        }
    }

    void
    flush()
    {
        std::fill(entries.begin(), entries.end(), Entry{});
        numPending = 0;
    }

    void
    saveState(CkptWriter &w) const
    {
        w.section("tlb");
        w.str(name);
        w.u32(std::uint32_t(entries.size()));
        for (const Entry &entry : entries) {
            w.u8(std::uint8_t(entry.state));
            w.u32(entry.asid);
            w.u64(entry.vpn);
            w.u64(entry.pfn);
            w.u64(entry.lruTick);
        }
        w.u64(lruCounter);
        w.u32(numPending);
        w.u64(stats.lookups);
        w.u64(stats.hits);
        w.u64(stats.fills);
        w.u64(stats.evictions);
        w.u64(stats.fillsSkipped);
        w.u64(stats.pendingAllocs);
        w.u64(stats.pendingAllocFailures);
        w.u64(stats.pendingEvictedValid);
    }

  private:
    struct Entry
    {
        EntryState state = EntryState::Invalid;
        Asid asid = 0;
        Vpn vpn = 0;
        Pfn pfn = 0;
        std::uint64_t lruTick = 0;
    };

    static bool
    matches(const Entry &entry, EntryState state, TranslationKey key)
    {
        return entry.state == state && entry.vpn == key.vpn &&
               entry.asid == key.asid;
    }

    Entry &
    way(Vpn vpn, std::uint32_t w)
    {
        return entries[(vpn % sets) * ways + w];
    }

    Entry *
    find(EntryState state, TranslationKey key)
    {
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (matches(way(key.vpn, w), state, key))
                return &way(key.vpn, w);
        }
        return nullptr;
    }

    Entry *
    victimOf(TranslationKey key)
    {
        std::uint32_t first = 0;
        std::uint32_t count = ways;
        if (key.asid < waySlices.size())
            std::tie(first, count) = waySlices[key.asid];
        Entry *victim = nullptr;
        for (std::uint32_t w = first; w < first + count; ++w) {
            Entry &entry = way(key.vpn, w);
            if (entry.state == EntryState::Pending)
                continue;
            if (entry.state == EntryState::Invalid)
                return &entry;
            if (!victim || entry.lruTick < victim->lruTick)
                victim = &entry;
        }
        return victim;
    }

    std::string name;
    std::uint32_t ways;
    std::uint32_t sets;
    std::vector<Entry> entries;
    std::uint64_t lruCounter = 0;
};

struct DifferentialGeometry
{
    const char *label;
    std::uint32_t entries;
    std::uint32_t ways;
    std::uint32_t asids;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> slices;
};

/** ctest names the instances by label. */
void
PrintTo(const DifferentialGeometry &geometry, std::ostream *os)
{
    *os << geometry.label;
}

class TlbDifferential : public ::testing::TestWithParam<DifferentialGeometry>
{
};

std::vector<std::uint8_t>
imageOf(const auto &array)
{
    CkptWriter w;
    array.saveState(w);
    return w.bytes();
}

/**
 * TlbArray against the entry-array model on a seeded stream of 200k
 * random operations over keys spanning three times the capacity: every
 * return value, every counter and the pending count must agree after each
 * operation, and the checkpoint bytes every 1000 operations and at the
 * end.  Those bytes also restore into a fresh array that saves them back.
 */
TEST_P(TlbDifferential, MatchesTheEntryArrayModel)
{
    const DifferentialGeometry &geometry = GetParam();
    TlbArray tlb("diff", geometry.entries, geometry.ways);
    EntryArrayModel model("diff", geometry.entries, geometry.ways);
    tlb.setWayPartition(geometry.slices);
    model.waySlices = geometry.slices;

    Rng rng(0x71b0000ull + geometry.entries * 31 + geometry.ways);
    const std::uint64_t span = 3ull * geometry.entries;
    std::vector<TranslationKey> pending;
    auto next_key = [&]() {
        // 49-bit virtual addresses of 64 KB pages: 33-bit VPNs.
        Vpn vpn = (Vpn(1) << 32) + rng.range(span);
        return TranslationKey{Asid(rng.range(geometry.asids)), vpn};
    };
    auto expect_same_state = [&](int op) {
        const TlbArray::Stats &got = tlb.stats();
        const TlbArray::Stats &want = model.stats;
        ASSERT_EQ(got.lookups, want.lookups) << "op " << op;
        ASSERT_EQ(got.hits, want.hits) << "op " << op;
        ASSERT_EQ(got.fills, want.fills) << "op " << op;
        ASSERT_EQ(got.evictions, want.evictions) << "op " << op;
        ASSERT_EQ(got.fillsSkipped, want.fillsSkipped) << "op " << op;
        ASSERT_EQ(got.pendingAllocs, want.pendingAllocs) << "op " << op;
        ASSERT_EQ(got.pendingAllocFailures, want.pendingAllocFailures)
            << "op " << op;
        ASSERT_EQ(got.pendingEvictedValid, want.pendingEvictedValid)
            << "op " << op;
        ASSERT_EQ(tlb.pendingCount(), model.numPending) << "op " << op;
    };
    auto expect_same_image = [&](int op) {
        std::vector<std::uint8_t> want = imageOf(model);
        ASSERT_EQ(imageOf(tlb), want) << "checkpoint bytes after op " << op;
        TlbArray restored("diff", geometry.entries, geometry.ways);
        CkptReader r(want.data(), want.size());
        restored.restoreState(r);
        ASSERT_EQ(imageOf(restored), want) << "restore after op " << op;
    };

    for (int op = 0; op < 200000; ++op) {
        std::uint64_t pick = rng.range(1000);
        TranslationKey key = next_key();
        if (pick < 300) {
            Pfn got = 0;
            Pfn want = 0;
            ASSERT_EQ(tlb.lookup(key, got), model.lookup(key, want))
                << "op " << op;
            ASSERT_EQ(got, want) << "op " << op;
        } else if (pick < 400) {
            ASSERT_EQ(tlb.probe(key), model.probe(key)) << "op " << op;
        } else if (pick < 700) {
            Pfn pfn = rng.range(1ull << 36);
            ASSERT_EQ(tlb.fill(key, pfn), model.fill(key, pfn))
                << "op " << op;
        } else if (pick < 800) {
            bool got = tlb.allocPending(key);
            ASSERT_EQ(got, model.allocPending(key)) << "op " << op;
            if (got)
                pending.push_back(key);
        } else if (pick < 850) {
            ASSERT_EQ(tlb.hasPending(key), model.hasPending(key))
                << "op " << op;
        } else if (pick < 960) {
            // Mostly walk completions of outstanding keys.
            if (!pending.empty() && rng.range(4) != 0) {
                std::size_t i = rng.range(pending.size());
                key = pending[i];
                pending[i] = pending.back();
                pending.pop_back();
            }
            tlb.clearPending(key);
            model.clearPending(key);
        } else if (pick < 995) {
            tlb.invalidate(key);
            model.invalidate(key);
        } else if (pick < 999) {
            tlb.flushAsid(key.asid);
            model.flushAsid(key.asid);
        } else if (rng.range(10) == 0) {
            tlb.flush();
            model.flush();
            pending.clear();
        }
        expect_same_state(op);
        if (op % 1000 == 999)
            expect_same_image(op);
    }
    expect_same_image(200000);
    EXPECT_GT(model.stats.hits, 0u);
    EXPECT_GT(model.stats.evictions, 0u);
    EXPECT_GT(model.stats.pendingEvictedValid, 0u);
    EXPECT_GT(model.stats.fillsSkipped + model.stats.pendingAllocFailures,
              0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbDifferential,
    ::testing::Values(
        DifferentialGeometry{"L1_32x32", 32, 32, 1, {}},
        DifferentialGeometry{"L2_1024x16", 1024, 16, 1, {}},
        // 12 sets: the set index takes the divide, not the mask.
        DifferentialGeometry{"L2_192x16", 192, 16, 1, {}},
        DifferentialGeometry{"Mig_256x16_4asids", 256, 16, 4,
                             {{0, 4}, {4, 4}, {8, 4}, {12, 4}}}),
    [](const ::testing::TestParamInfo<DifferentialGeometry> &info) {
        return std::string(info.param.label);
    });

/** A checkpointed way whose ASID or VPN overflows its tag word field. */
TEST(TlbArrayDeath, RestoreRejectsKeysThatDoNotFitATagWord)
{
    auto image = [](Asid asid, Vpn vpn) {
        EntryArrayModel model("t", 16, 4);
        model.fill({0, 4}, 40);
        CkptWriter w;
        model.saveState(w);
        std::vector<std::uint8_t> bytes = w.bytes();
        // Entry 0 follows the section header, the name and the count; its
        // ASID and VPN follow its state byte.
        CkptWriter prefix;
        prefix.section("tlb");
        prefix.str("t");
        prefix.u32(16);
        std::size_t at = prefix.bytes().size() + 1;
        for (int i = 0; i < 4; ++i)
            bytes[at + i] = std::uint8_t(asid >> (8 * i));
        for (int i = 0; i < 8; ++i)
            bytes[at + 4 + i] = std::uint8_t(vpn >> (8 * i));
        return bytes;
    };
    auto restore = [](const std::vector<std::uint8_t> &bytes) {
        TlbArray tlb("t", 16, 4);
        CkptReader r(bytes.data(), bytes.size());
        tlb.restoreState(r);
        return tlb.probe({0, 4});
    };
    // The widest ASID and VPN fit; the image restores.
    EXPECT_FALSE(restore(image((1u << 22) - 1, (Vpn(1) << 40) - 1)));
    EXPECT_TRUE(restore(image(0, 4)));
    EXPECT_DEATH(restore(image(1u << 22, 4)),
                 "entry 0 has ASID 4194304 and VPN 4; a TLB tag holds "
                 "22-bit ASIDs and 40-bit VPNs");
    EXPECT_DEATH(restore(image(0, Vpn(1) << 40)),
                 "entry 0 has ASID 0 and VPN 1099511627776");
}

} // namespace
