/** @file Tests for the unified stat registry (src/obs). */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/stat_registry.hh"

using namespace sw;

namespace {

TEST(JsonEscape, PassesPlainTextThrough)
{
    EXPECT_EQ(jsonEscape("sm3.l1tlb.misses"), "sm3.l1tlb.misses");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes)
{
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscape, EscapesControlCharacters)
{
    EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(jsonEscape(std::string("x\x01y", 3)), "x\\u0001y");
}

TEST(StatGroup, QualifiesDottedNames)
{
    StatRegistry registry;
    std::uint64_t misses = 0;
    registry.root().group("sm3").group("l1tlb").counter("misses", &misses);
    EXPECT_TRUE(registry.has("sm3.l1tlb.misses"));
    EXPECT_EQ(registry.size(), 1u);
}

TEST(StatGroup, RootRegistersUnprefixedNames)
{
    StatRegistry registry;
    std::uint64_t walks = 0;
    registry.root().counter("walks", &walks);
    EXPECT_TRUE(registry.has("walks"));
}

TEST(StatRegistry, NamesAreSorted)
{
    StatRegistry registry;
    std::uint64_t v = 0;
    StatGroup root = registry.root();
    root.counter("zeta", &v);
    root.counter("alpha", &v);
    root.counter("mid", &v);
    auto names = registry.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "mid");
    EXPECT_EQ(names[2], "zeta");
}

TEST(StatRegistry, DumpReadsLiveValues)
{
    StatRegistry registry;
    std::uint64_t hits = 0;
    registry.root().group("l2tlb").counter("hits", &hits);
    hits = 41;
    EXPECT_NE(registry.dumpJson().find("\"l2tlb.hits\":41"),
              std::string::npos);
    ++hits;
    EXPECT_NE(registry.dumpJson().find("\"l2tlb.hits\":42"),
              std::string::npos);
}

TEST(StatRegistry, CaptureSnapshotsValues)
{
    StatRegistry registry;
    std::uint64_t hits = 7;
    registry.root().counter("hits", &hits);
    registry.capture();
    hits = 99;  // after capture() the live value is ignored
    EXPECT_NE(registry.dumpJson().find("\"hits\":7"), std::string::npos);
    EXPECT_EQ(registry.dumpJson().find("99"), std::string::npos);
}

TEST(StatRegistry, AllEntryKindsSerialise)
{
    StatRegistry registry;
    StatGroup root = registry.root();

    std::uint64_t u64v = 10;
    std::uint32_t u32v = 20;
    LatencyStat lat;
    lat.add(4);
    lat.add(8);

    root.counter("c64", &u64v);
    root.counter("c32", &u32v);
    root.gauge("g", []() { return 1.5; });
    root.latency("lat", &lat);

    std::string json = registry.dumpJson();
    EXPECT_NE(json.find("\"c64\":10"), std::string::npos);
    EXPECT_NE(json.find("\"c32\":20"), std::string::npos);
    EXPECT_NE(json.find("\"g\":1.5"), std::string::npos);
    // Latency entries expand to a nested object with the moments.
    EXPECT_NE(json.find("\"lat\":{"), std::string::npos);
    EXPECT_NE(json.find("\"count\":2"), std::string::npos);
    EXPECT_NE(json.find("\"mean\":6"), std::string::npos);
}

TEST(StatRegistry, WriteJsonMatchesDump)
{
    StatRegistry registry;
    std::uint64_t v = 3;
    registry.root().counter("v", &v);
    std::ostringstream out;
    registry.writeJson(out);
    EXPECT_EQ(out.str(), registry.dumpJson() + "\n");
}

TEST(StatRegistry, EmptyRegistryDumpsEmptyObject)
{
    StatRegistry registry;
    EXPECT_EQ(registry.dumpJson(), "{}");
}

TEST(StatRegistryDeath, DuplicateNamePanics)
{
    StatRegistry registry;
    std::uint64_t v = 0;
    registry.root().counter("dup", &v);
    EXPECT_DEATH(registry.root().counter("dup", &v), "dup");
}

} // namespace
