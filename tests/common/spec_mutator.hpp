// Seeded mutator for the spec-string fuzz cases: turns a valid spec into a
// nearby, usually invalid one, so a parser's typed-error-or-round-trip
// contract is exercised on the inputs a hand-edited reproducer produces.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/text_codec.hpp"

namespace tcast::testing {

/// One of `seeds`, changed by one to four edits: a bit flip, an insertion
/// (from `alphabet`, or about one time in sixteen a wild byte), a deletion,
/// or a splice that replaces one `separator`-delimited token with a token
/// of another seed.
inline std::string mutate_spec(const std::vector<std::string>& seeds,
                               std::string_view alphabet, char separator,
                               RngStream& rng) {
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_below(n));
  };
  std::string s = seeds[below(seeds.size())];
  const std::size_t edits = 1 + below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (below(4)) {
      case 0:
        if (!s.empty()) s[below(s.size())] ^= static_cast<char>(1 << below(8));
        break;
      case 1: {
        const char c = below(16) == 0 ? static_cast<char>(below(256))
                                      : alphabet[below(alphabet.size())];
        s.insert(below(s.size() + 1), 1, c);
        break;
      }
      case 2:
        if (!s.empty()) s.erase(below(s.size()), 1);
        break;
      default: {
        auto tokens = split(s, separator);
        const auto donor = split(seeds[below(seeds.size())], separator);
        const std::string_view graft = donor[below(donor.size())];
        std::string out;
        const std::size_t at = below(tokens.size());
        for (std::size_t i = 0; i < tokens.size(); ++i) {
          if (i > 0) out += separator;
          out += i == at ? graft : tokens[i];
        }
        s = out;
        break;
      }
    }
  }
  return s;
}

}  // namespace tcast::testing
