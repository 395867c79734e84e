// The shared token codec behind every spec string and wire line: strict
// unsigned integers, finite doubles, and the shortest %g / %.17g rendering
// that parses back to the identical double.
#include "common/text_codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace tcast {
namespace {

TEST(TextCodec, StrictTokensAndShortestRoundTrip) {
  // Tokenizer: empty fields are kept so callers can reject them.
  EXPECT_EQ(split("a,,b", ','),
            (std::vector<std::string_view>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string_view>{""}));
  EXPECT_EQ(split_words("  load  pop=a "),
            (std::vector<std::string_view>{"load", "pop=a"}));
  EXPECT_TRUE(split_words("   ").empty());
  const auto kv = split_kv("k=v=w");
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->key, "k");
  EXPECT_EQ(kv->value, "v=w");
  EXPECT_FALSE(split_kv("=v").has_value());
  EXPECT_FALSE(split_kv("kv").has_value());

  // Integers: the empty token, signs, whitespace and 2^64 are rejected.
  EXPECT_EQ(parse_uint<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "18446744073709551616", "-1", "+5", " 5", "5 ",
                          "12abc", "0x10", "1e1"})
    EXPECT_FALSE(parse_uint<std::uint64_t>(bad).has_value()) << bad;
  EXPECT_EQ(parse_uint<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_FALSE(parse_uint<std::uint32_t>("4294967296").has_value());

  // Doubles: finite decimal/exponent forms only.
  EXPECT_EQ(parse_double("-0.25"), -0.25);
  EXPECT_EQ(parse_double("1e-05"), 1e-05);
  for (const char* bad : {"", "inf", "-inf", "nan", "infinity", "0x1p-2",
                          "+5", " 5", "1e400", "0.5x"})
    EXPECT_FALSE(parse_double(bad).has_value()) << bad;

  // format_double: %g whenever %g round-trips, %.17g exactly when not.
  EXPECT_EQ(format_double(0.05), "0.05");
  EXPECT_EQ(format_double(1e-05), "1e-05");
  EXPECT_EQ(format_double(123456.0), "123456");
  EXPECT_EQ(format_double(1234567.0), "1234567");   // %g gives 1.23457e+06
  EXPECT_EQ(format_double(0.123456), "0.123456");   // 6 digits: %g is exact
  EXPECT_EQ(format_double(0.1234567), "0.1234567");  // %g: 0.123457
  EXPECT_EQ(format_double(17.333333333333332), "17.333333333333332");
  for (const double v : {17.333333333333332, 0.123456789, 1.0 / 3.0,
                         std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::max()})
    EXPECT_EQ(parse_double(format_double(v)), v) << format_double(v);
}

}  // namespace
}  // namespace tcast
