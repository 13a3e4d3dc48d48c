/**
 * @file
 * TextAppender: the observers' allocation-free record writer.
 *
 * The event log and the tracer keep plain records and render them only
 * when an artifact is written.  Both render through one TextAppender:
 * literals are copied and numbers are formatted with std::to_chars into
 * a fixed buffer, which goes to the ostream in chunks of at most
 * kChunkBytes.  A record therefore costs no heap allocation, no
 * format-string parse and no per-record stream call.  The time-series
 * sampler's CSV rows use it too.
 *
 * Only std::uint64_t and std::uint32_t print through operator<<.  Every
 * other arithmetic type (char, bool, signed) is ambiguous between the two
 * and does not compile, so a character cannot be printed as a number or
 * a number as a character by accident; doubles go through general().
 * Call flush() before writing to the ostream directly; the destructor
 * flushes too.
 */

#ifndef SW_OBS_TEXT_APPENDER_HH
#define SW_OBS_TEXT_APPENDER_HH

#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string_view>

#include "sim/logging.hh"

namespace sw {

/** Buffered literal and decimal appender over an ostream. */
class TextAppender
{
  public:
    /** Largest chunk handed to the ostream in one write. */
    static constexpr std::size_t kChunkBytes = 32 * 1024;

    explicit TextAppender(std::ostream &out) : out_(out) {}
    ~TextAppender() { flush(); }

    TextAppender(const TextAppender &) = delete;
    TextAppender &operator=(const TextAppender &) = delete;

    TextAppender &
    operator<<(std::string_view text)
    {
        if (text.size() > buf_.size() - used_) {
            flush();
            if (text.size() > buf_.size()) {
                out_.write(text.data(), std::streamsize(text.size()));
                return *this;
            }
        }
        std::memcpy(buf_.data() + used_, text.data(), text.size());
        used_ += text.size();
        return *this;
    }

    TextAppender &
    operator<<(std::uint64_t value)
    {
        if (buf_.size() - used_ < kMaxDigits)
            flush();
        char *end = std::to_chars(buf_.data() + used_,
                                  buf_.data() + buf_.size(), value)
                        .ptr;
        used_ = std::size_t(end - buf_.data());
        return *this;
    }

    TextAppender &
    operator<<(std::uint32_t value)
    {
        return *this << std::uint64_t(value);
    }

    /** Append @p value as printf's "%.<precision>g" prints it. */
    TextAppender &
    general(double value, int precision)
    {
        SW_ASSERT(precision > 0 && precision <= kMaxPrecision,
                  "general() precision %d out of range", precision);
        if (buf_.size() - used_ < kMaxGeneral)
            flush();
        char *end = std::to_chars(buf_.data() + used_,
                                  buf_.data() + buf_.size(), value,
                                  std::chars_format::general, precision)
                        .ptr;
        used_ = std::size_t(end - buf_.data());
        return *this;
    }

    /** Hand everything buffered to the ostream. */
    void
    flush()
    {
        if (used_ == 0)
            return;
        out_.write(buf_.data(), std::streamsize(used_));
        used_ = 0;
    }

  private:
    /** Decimal digits of the largest std::uint64_t. */
    static constexpr std::size_t kMaxDigits = 20;
    /** Largest general() precision: enough to round-trip a double. */
    static constexpr int kMaxPrecision = 17;
    /** Longest general() text: sign, digits, point, "e-308". */
    static constexpr std::size_t kMaxGeneral = 1 + kMaxPrecision + 1 + 5;

    std::ostream &out_;
    std::size_t used_ = 0;
    std::array<char, kChunkBytes> buf_;
};

} // namespace sw

#endif // SW_OBS_TEXT_APPENDER_HH
