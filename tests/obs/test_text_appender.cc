/**
 * @file
 * Tests for TextAppender, the observers' record writer (src/obs): its
 * bytes equal what the ostream and printf paths it replaced produced,
 * across chunk boundaries and around direct writes to the stream.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "obs/text_appender.hh"

using namespace sw;

namespace {

TEST(TextAppender, LiteralsAndUnsignedDecimals)
{
    std::ostringstream out;
    {
        TextAppender text(out);
        text << "a=" << std::uint64_t(0) << ",b=" << std::uint32_t(42)
             << ",c=" << std::numeric_limits<std::uint64_t>::max()
             << ",d=" << std::numeric_limits<std::uint32_t>::max();
    }
    EXPECT_EQ(out.str(),
              "a=0,b=42,c=18446744073709551615,d=4294967295");
}

TEST(TextAppender, ChunksMatchOneStreamedString)
{
    // Many records across many chunks, each number landing anywhere
    // relative to a chunk boundary.
    std::ostringstream out;
    std::ostringstream expected;
    {
        TextAppender text(out);
        for (std::uint64_t i = 0; i < 50000; ++i) {
            const std::uint64_t value = i * 0x9E3779B97F4A7C15ull;
            text << "{\"v\":" << value << "}\n";
            expected << "{\"v\":" << value << "}\n";
        }
    }
    EXPECT_GT(out.str().size(), 4 * TextAppender::kChunkBytes);
    EXPECT_EQ(out.str(), expected.str());
}

TEST(TextAppender, LiteralLongerThanAChunk)
{
    const std::string big(3 * TextAppender::kChunkBytes + 5, 'x');
    std::ostringstream out;
    {
        TextAppender text(out);
        text << "<" << big << ">";
    }
    EXPECT_EQ(out.str(), "<" + big + ">");
}

TEST(TextAppender, FlushOrdersBufferedTextBeforeDirectWrites)
{
    std::ostringstream out;
    TextAppender text(out);
    text << "first";
    text.flush();
    out << ",direct,";
    text << "last";
    text.flush();
    EXPECT_EQ(out.str(), "first,direct,last");
}

TEST(TextAppender, GeneralMatchesPrintf)
{
    const double values[] = {
        0.0, -0.0, 1.0, 3.0, -7.5, 0.1, 1.0 / 3.0, 2.0 / 3.0, 123456.0,
        1234567.0, 0.0001, 0.00001234, 1e-300, 5e-324, 1e300,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), 0.999999949, 0.9999995,
        99999.95, 42.0000001, 6.02214076e23};
    for (int precision : {6, 17}) {
        for (double value : values) {
            char expected[64];
            std::snprintf(expected, sizeof(expected), "%.*g", precision,
                          value);
            std::ostringstream out;
            {
                TextAppender text(out);
                text.general(value, precision);
            }
            EXPECT_EQ(out.str(), expected)
                << "precision " << precision << " value " << value;
        }
    }
}

} // namespace
