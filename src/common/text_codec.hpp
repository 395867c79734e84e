// One strict token codec for every spec string and wire line.
//
// FaultPlan, FaultTrace, ChaosScenario and RetryPolicy specs, the tcastd
// request/response lines and the service op trace all share this grammar:
//
//   * integer — unsigned decimal digits only: no sign, whitespace, radix
//     prefix or exponent; the whole token is consumed, and a value that
//     overflows the target type is rejected;
//   * double  — decimal or exponent notation (an optional leading '-', no
//     '+', whitespace or hex), finite values only; written by
//     format_double as %g, or %.17g when %g would not parse back to the
//     identical double.
//
// Every parser is total: a malformed token is std::nullopt, never a
// wrapped, truncated or thrown value.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tcast {

/// Splits at every `sep`. Empty fields are kept ("a,,b" is three fields) so
/// that callers can reject them.
inline std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  while (true) {
    const auto pos = text.find(sep);
    parts.push_back(text.substr(0, pos));
    if (pos == std::string_view::npos) return parts;
    text.remove_prefix(pos + 1);
  }
}

/// Splits a wire or op-trace line into words at runs of spaces; no word is
/// empty.
inline std::vector<std::string_view> split_words(std::string_view line) {
  auto words = split(line, ' ');
  std::erase(words, std::string_view{});
  return words;
}

struct KeyValue {
  std::string_view key;
  std::string_view value;
};

/// "key=value", split at the first '='; nullopt without '=' or with an
/// empty key. The value may be empty.
inline std::optional<KeyValue> split_kv(std::string_view token) {
  const auto eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0) return std::nullopt;
  return KeyValue{token.substr(0, eq), token.substr(eq + 1)};
}

template <std::unsigned_integral T>
std::optional<T> parse_uint(std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

inline std::optional<double> parse_double(std::string_view text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v))
    return std::nullopt;
  return v;
}

/// Out-parameter form for field-by-field decoders: stores the parsed token
/// in `out` and reports success; `out` is left untouched on a malformed one.
template <typename T>
  requires(std::unsigned_integral<T> || std::same_as<T, double>)
bool parse_to(std::string_view text, T& out) {
  std::optional<T> v;
  if constexpr (std::same_as<T, double>) {
    v = parse_double(text);
  } else {
    v = parse_uint<T>(text);
  }
  if (v) out = *v;
  return v.has_value();
}

/// %g covers every hand-written value; values built programmatically
/// (fuzzers, campaign grids, count estimates) fall back to max_digits10.
inline std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%g", v);
  if (parse_double(buf) != v) std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace tcast
