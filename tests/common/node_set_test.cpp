// Property tests for NodeSet against a std::set oracle, plus targeted
// word-boundary cases for the selection helpers (first_member / nth_member)
// and a draw-compatibility proof for random_equal_partition_into: it must
// reproduce the historical shuffle-then-deal binning bit-for-bit.
//
// The word-image algebra (intersects / intersection_count / remove_words)
// is also checked on random images against two independent oracles, a
// per-word std::bitset walk and sorted id vectors with
// std::set_intersection, at lengths from empty to well past 8 words.
#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <iterator>
#include <set>
#include <vector>

#include "common/node_set.hpp"
#include "common/rng.hpp"

namespace tcast {
namespace {

using Words = std::vector<NodeSet::Word>;

std::vector<NodeId> members_of(const NodeSet& s) {
  std::vector<NodeId> out;
  s.append_members(out);
  return out;
}

// Image lengths in words: empty, single words, both sides of 8, tails that
// are not a multiple of 8, and a 4096-node universe.
const std::size_t kWordCounts[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 33, 64};

/// Mixed-density random words: empty, full, sparse and dense words all
/// appear, so every word position sees all-zero and all-one patterns.
Words random_words(RngStream& rng, std::size_t n) {
  Words out(n);
  for (auto& w : out) {
    switch (rng.uniform_below(5)) {
      case 0: w = 0; break;
      case 1: w = ~NodeSet::Word{0}; break;
      case 2: w = rng.bits() & rng.bits() & rng.bits(); break;  // sparse
      default: w = rng.bits(); break;
    }
  }
  return out;
}

/// The NodeSet whose word image is exactly `words`.
NodeSet set_of_words(const Words& words) {
  NodeSet s(words.size() * NodeSet::kWordBits);
  for (std::size_t w = 0; w < words.size(); ++w)
    for (std::size_t bit = 0; bit < NodeSet::kWordBits; ++bit)
      if ((words[w] >> bit) & 1u)
        s.insert(static_cast<NodeId>(w * NodeSet::kWordBits + bit));
  return s;
}

/// Oracle 1: |a ∩ b| by per-word std::bitset algebra over the common prefix.
std::size_t and_count_bitset(const Words& a, const Words& b) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    total += (std::bitset<64>(a[i]) & std::bitset<64>(b[i])).count();
  return total;
}

/// Oracle 2: |a ∩ b| by std::set_intersection of ascending id lists.
std::size_t and_count_sorted(const Words& a, const Words& b) {
  const auto ids = [](const Words& words) {
    std::vector<std::size_t> out;
    for (std::size_t w = 0; w < words.size(); ++w)
      for (std::size_t bit = 0; bit < 64; ++bit)
        if ((words[w] >> bit) & 1u) out.push_back(w * 64 + bit);
    return out;
  };
  const auto ia = ids(a);
  const auto ib = ids(b);
  std::vector<std::size_t> both;
  std::set_intersection(ia.begin(), ia.end(), ib.begin(), ib.end(),
                        std::back_inserter(both));
  return both.size();
}

TEST(NodeSet, StartsEmpty) {
  NodeSet s(130);
  EXPECT_EQ(s.universe(), 130u);
  EXPECT_EQ(s.word_count(), 3u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.first_member(), kNoNode);
  EXPECT_TRUE(members_of(s).empty());
}

TEST(NodeSet, WordsForRoundsUp) {
  EXPECT_EQ(NodeSet::words_for(0), 0u);
  EXPECT_EQ(NodeSet::words_for(1), 1u);
  EXPECT_EQ(NodeSet::words_for(64), 1u);
  EXPECT_EQ(NodeSet::words_for(65), 2u);
  EXPECT_EQ(NodeSet::words_for(128), 2u);
  EXPECT_EQ(NodeSet::words_for(129), 3u);
}

TEST(NodeSet, InsertEraseTestMatchSetOracle) {
  constexpr std::size_t kUniverse = 200;  // spans >3 words, partial last word
  RngStream rng(0xbadc0ffee, 1);
  NodeSet s(kUniverse);
  std::set<NodeId> oracle;
  for (int step = 0; step < 4000; ++step) {
    const auto id = static_cast<NodeId>(rng.uniform_below(kUniverse));
    if (rng.bernoulli(0.5)) {
      EXPECT_EQ(s.insert(id), oracle.insert(id).second);
    } else {
      EXPECT_EQ(s.erase(id), oracle.erase(id) > 0);
    }
    ASSERT_EQ(s.count(), oracle.size());
    EXPECT_EQ(s.empty(), oracle.empty());
    // Spot-check membership of an unrelated id every step.
    const auto probe = static_cast<NodeId>(rng.uniform_below(kUniverse));
    EXPECT_EQ(s.test(probe), oracle.count(probe) > 0);
  }
  // Full-extension check at the end: identical ascending member lists.
  const std::vector<NodeId> expected(oracle.begin(), oracle.end());
  EXPECT_EQ(members_of(s), expected);
}

TEST(NodeSet, ClearKeepsUniverse) {
  NodeSet s(100);
  s.insert(3);
  s.insert(99);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.universe(), 100u);
  EXPECT_FALSE(s.test(3));
  EXPECT_FALSE(s.test(99));
}

TEST(NodeSet, FirstMemberAcrossWordBoundaries) {
  NodeSet s(256);
  for (const NodeId id : {NodeId{255}, NodeId{128}, NodeId{127}, NodeId{64},
                          NodeId{63}, NodeId{1}, NodeId{0}}) {
    s.insert(id);
    EXPECT_EQ(s.first_member(), id);  // inserting in descending order
  }
}

TEST(NodeSet, NthMemberWordBoundaries) {
  // Members straddling every word boundary of a 4-word set: selection must
  // carry the rank across words correctly.
  NodeSet s(256);
  const std::vector<NodeId> ids = {0, 5, 63, 64, 65, 127, 128, 200, 255};
  for (const NodeId id : ids) s.insert(id);
  ASSERT_EQ(s.count(), ids.size());
  for (std::size_t n = 0; n < ids.size(); ++n)
    EXPECT_EQ(s.nth_member(n), ids[n]) << "rank " << n;
}

TEST(NodeSet, NthMemberMatchesSortedOracleOnRandomSets) {
  RngStream rng(0x5eed, 2);
  for (int rep = 0; rep < 50; ++rep) {
    const std::size_t universe = 1 + rng.uniform_below(300);
    NodeSet s(universe);
    std::set<NodeId> oracle;
    const std::size_t inserts = rng.uniform_below(universe + 1);
    for (std::size_t i = 0; i < inserts; ++i) {
      const auto id = static_cast<NodeId>(rng.uniform_below(universe));
      s.insert(id);
      oracle.insert(id);
    }
    ASSERT_EQ(s.count(), oracle.size());
    std::size_t n = 0;
    for (const NodeId id : oracle) EXPECT_EQ(s.nth_member(n++), id);
  }
}

TEST(NodeSet, IntersectsAndIntersectionCount) {
  NodeSet a(192), b(192);
  EXPECT_FALSE(NodeSet::intersects(a.words(), b.words()));
  EXPECT_EQ(NodeSet::intersection_count(a.words(), b.words()), 0u);

  a.insert(10);
  a.insert(70);
  a.insert(130);
  b.insert(11);
  b.insert(71);
  EXPECT_FALSE(NodeSet::intersects(a.words(), b.words()));

  b.insert(130);  // shared member in the last word only
  EXPECT_TRUE(NodeSet::intersects(a.words(), b.words()));
  EXPECT_EQ(NodeSet::intersection_count(a.words(), b.words()), 1u);

  b.insert(10);
  b.insert(70);
  EXPECT_EQ(NodeSet::intersection_count(a.words(), b.words()), 3u);

  RngStream rng(0x51D0002, 1);
  for (const std::size_t n : kWordCounts) {
    for (int rep = 0; rep < 40; ++rep) {
      const Words x = random_words(rng, n);
      const Words y = random_words(rng, n);
      const std::size_t want = and_count_bitset(x, y);
      ASSERT_EQ(want, and_count_sorted(x, y));
      EXPECT_EQ(NodeSet::intersection_count(x, y), want) << "n=" << n;
      EXPECT_EQ(NodeSet::intersects(x, y), want > 0) << "n=" << n;
    }
    // A lone shared bit in each word position, the last word included.
    for (std::size_t w = 0; w < n; ++w) {
      Words x(n, 0), y(n, 0);
      x[w] = y[w] = NodeSet::Word{1} << 63;
      EXPECT_TRUE(NodeSet::intersects(x, y)) << "n=" << n << " word=" << w;
      EXPECT_EQ(NodeSet::intersection_count(x, y), 1u);
      y[w] >>= 1;  // now disjoint
      EXPECT_FALSE(NodeSet::intersects(x, y)) << "n=" << n << " word=" << w;
      EXPECT_EQ(NodeSet::intersection_count(x, y), 0u);
    }
  }
}

TEST(NodeSet, IntersectionWithShorterImageIgnoresTail) {
  // A shorter word image has no members beyond its last word; members of the
  // longer set past that point must not count.
  NodeSet wide(192), narrow(64);
  wide.insert(5);
  wide.insert(100);
  wide.insert(180);
  narrow.insert(5);
  EXPECT_TRUE(NodeSet::intersects(wide.words(), narrow.words()));
  EXPECT_EQ(NodeSet::intersection_count(wide.words(), narrow.words()), 1u);
  EXPECT_EQ(NodeSet::intersection_count(narrow.words(), wide.words()), 1u);

  narrow.erase(5);
  narrow.insert(40);
  EXPECT_FALSE(NodeSet::intersects(wide.words(), narrow.words()));
  EXPECT_FALSE(NodeSet::intersects(narrow.words(), wide.words()));

  // Random images of unequal lengths; the sorted-id oracle sees both whole
  // images, so it also checks that the longer tail is ignored.
  RngStream rng(0x51D0005, 1);
  for (int rep = 0; rep < 300; ++rep) {
    const Words x = random_words(rng, rng.uniform_below(20));
    const Words y = random_words(rng, rng.uniform_below(20));
    const std::size_t want = and_count_bitset(x, y);
    ASSERT_EQ(want, and_count_sorted(x, y));
    EXPECT_EQ(NodeSet::intersection_count(x, y), want);
    EXPECT_EQ(NodeSet::intersection_count(y, x), want);
    EXPECT_EQ(NodeSet::intersects(x, y), want > 0);
    EXPECT_EQ(NodeSet::intersects(y, x), want > 0);
  }
}

TEST(NodeSet, RemoveWordsReportsActualRemovals) {
  NodeSet alive(256), gone(256);
  for (NodeId id = 0; id < 256; id += 3) alive.insert(id);
  const std::size_t before = alive.count();
  // `gone` overlaps `alive` only partially; remove_words must report the
  // overlap, not gone.count().
  for (NodeId id = 0; id < 256; id += 6) gone.insert(id);   // all in alive
  gone.insert(1);                                           // not in alive
  gone.insert(7);                                           // not in alive
  std::size_t expected_overlap = 0;
  gone.for_each([&](NodeId id) { expected_overlap += alive.test(id); });
  const std::size_t removed = alive.remove_words(gone.words());
  EXPECT_EQ(removed, expected_overlap);
  EXPECT_EQ(alive.count(), before - removed);
  alive.for_each([&](NodeId id) { EXPECT_FALSE(gone.test(id)); });
  // Removing again is a no-op.
  EXPECT_EQ(alive.remove_words(gone.words()), 0u);

  // Random images, masks as long as the set or up to two words shorter or
  // longer: the ANDNOT clears exactly the intersection over the common
  // prefix and leaves every other word alone.
  RngStream rng(0x51D0003, 1);
  for (const std::size_t n : kWordCounts) {
    for (int rep = 0; rep < 20; ++rep) {
      const Words before_words = random_words(rng, n);
      const std::size_t shortest = n < 2 ? 0 : n - 2;
      const std::size_t mask_words =
          rep % 2 == 0 ? n : shortest + rng.uniform_below(n + 3 - shortest);
      const Words mask = random_words(rng, mask_words);
      NodeSet set = set_of_words(before_words);
      const std::size_t want = and_count_bitset(before_words, mask);
      ASSERT_EQ(want, and_count_sorted(before_words, mask));
      const std::size_t count_before = set.count();
      EXPECT_EQ(set.remove_words(mask), want) << "n=" << n;
      EXPECT_EQ(set.count(), count_before - want);
      for (std::size_t w = 0; w < n; ++w) {
        const NodeSet::Word expected =
            w < mask.size() ? before_words[w] & ~mask[w] : before_words[w];
        EXPECT_EQ(set.words()[w], expected) << "n=" << n << " word=" << w;
      }
      EXPECT_EQ(set.remove_words(mask), 0u) << "n=" << n;
    }
  }
}

TEST(NodeSet, ForEachVisitsAscending) {
  NodeSet s(300);
  for (const NodeId id : {NodeId{299}, NodeId{64}, NodeId{0}, NodeId{63},
                          NodeId{128}})
    s.insert(id);
  std::vector<NodeId> visited;
  s.for_each([&visited](NodeId id) { visited.push_back(id); });
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
  EXPECT_EQ(visited, members_of(s));
  EXPECT_EQ(visited.size(), 5u);
}

// The historical random-equal construction the partitioner must reproduce:
// shuffle, then deal round-robin into per-bin vectors.
std::vector<std::vector<NodeId>> shuffle_then_deal(std::vector<NodeId> items,
                                                   std::size_t bins,
                                                   RngStream& rng) {
  rng.shuffle(std::span<NodeId>(items));
  std::vector<std::vector<NodeId>> out(bins);
  for (std::size_t i = 0; i < items.size(); ++i)
    out[i % bins].push_back(items[i]);
  return out;
}

TEST(NodeSetPartition, MatchesShuffleThenDealBitForBit) {
  RngStream scenario_rng(0xfeed, 3);
  std::vector<NodeId> arena;
  std::vector<std::size_t> offsets;
  for (int rep = 0; rep < 100; ++rep) {
    const std::size_t n = scenario_rng.uniform_below(97);
    const std::size_t bins = 1 + scenario_rng.uniform_below(20);
    std::vector<NodeId> items(n);
    for (std::size_t i = 0; i < n; ++i) items[i] = static_cast<NodeId>(i * 2);

    // Two RNG streams with identical state: one for the oracle, one for the
    // partitioner. Draw-compatibility means both end up in the same state.
    RngStream oracle_rng(0xabc, static_cast<std::uint64_t>(rep));
    RngStream fast_rng(0xabc, static_cast<std::uint64_t>(rep));
    const auto expected = shuffle_then_deal(items, bins, oracle_rng);

    std::vector<NodeId> fast_items = items;
    random_equal_partition_into(std::span<NodeId>(fast_items), bins, fast_rng,
                                arena, offsets);

    ASSERT_EQ(offsets.size(), bins + 1);
    EXPECT_EQ(offsets.front(), 0u);
    EXPECT_EQ(offsets.back(), n);
    for (std::size_t b = 0; b < bins; ++b) {
      ASSERT_LE(offsets[b], offsets[b + 1]);
      const std::vector<NodeId> got(arena.begin() + static_cast<std::ptrdiff_t>(offsets[b]),
                                    arena.begin() + static_cast<std::ptrdiff_t>(offsets[b + 1]));
      EXPECT_EQ(got, expected[b]) << "bin " << b;
    }
    // Same number of draws consumed: the next raw output must agree.
    EXPECT_EQ(oracle_rng.bits(), fast_rng.bits());
  }
}

TEST(NodeSetPartition, BinSizesDifferByAtMostOne) {
  RngStream rng(0x1234, 4);
  std::vector<NodeId> items(37);
  for (std::size_t i = 0; i < items.size(); ++i)
    items[i] = static_cast<NodeId>(i);
  std::vector<NodeId> arena;
  std::vector<std::size_t> offsets;
  random_equal_partition_into(std::span<NodeId>(items), 5, rng, arena,
                              offsets);
  std::size_t min_size = items.size(), max_size = 0;
  for (std::size_t b = 0; b < 5; ++b) {
    const std::size_t size = offsets[b + 1] - offsets[b];
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
  }
  EXPECT_LE(max_size - min_size, 1u);
}

}  // namespace
}  // namespace tcast
