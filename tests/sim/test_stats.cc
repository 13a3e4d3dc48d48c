/** @file Unit tests for the statistics primitives. */

#include <gtest/gtest.h>

#include "sim/stats.hh"

using namespace sw;

TEST(LatencyStat, EmptyIsZero)
{
    LatencyStat stat;
    EXPECT_EQ(stat.count, 0u);
    EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
}

TEST(LatencyStat, AccumulatesMoments)
{
    LatencyStat stat;
    stat.add(10);
    stat.add(20);
    stat.add(30);
    EXPECT_EQ(stat.count, 3u);
    EXPECT_EQ(stat.sum, 60u);
    EXPECT_EQ(stat.minv, 10u);
    EXPECT_EQ(stat.maxv, 30u);
    EXPECT_DOUBLE_EQ(stat.mean(), 20.0);
}

TEST(LatencyStat, MergeCombines)
{
    LatencyStat a, b;
    a.add(5);
    a.add(15);
    b.add(100);
    a.merge(b);
    EXPECT_EQ(a.count, 3u);
    EXPECT_EQ(a.minv, 5u);
    EXPECT_EQ(a.maxv, 100u);
    EXPECT_DOUBLE_EQ(a.mean(), 40.0);
}

TEST(LatencyStat, ResetClears)
{
    LatencyStat stat;
    stat.add(7);
    stat.reset();
    EXPECT_EQ(stat.count, 0u);
    EXPECT_EQ(stat.sum, 0u);
}

TEST(Geomean, OfIdenticalValuesIsThatValue)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
}

TEST(Geomean, OfTwoAndEightIsFour)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Geomean, EmptyIsZero)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Mean, Arithmetic)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable table({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"b", "22"});
    std::string out = table.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(TextTableDeath, WrongArityPanics)
{
    TextTable table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "arity");
}
