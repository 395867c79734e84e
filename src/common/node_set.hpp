// NodeSet — a packed bitset over the participant universe, the set-algebra
// substrate of the abstract tier's fast path.
//
// Group-testing theory frames a bin query as "is bin ∩ positives empty?",
// which on 64-bit words is AND + popcount: one word operation covers 64
// nodes. NodeSet stores membership as words and exposes exactly the
// operations the query kernel and the round engine need — intersection
// tests and counts, selection (first/nth member), word-level iteration, and
// bulk ANDNOT removal — plus an in-place random-equal partitioner that
// replaces the shuffle-then-deal bin construction with one strided gather
// into a flat arena.
//
// The word loops below are the set algebra's only implementation. Their
// per-word cost is the popcount, so on x86-64 the build requires hardware
// POPCNT (tcast_common compiles with -mpopcnt; see the check below).
//
// Determinism contract: nothing in here draws randomness except
// `random_equal_partition_into`, which consumes exactly the Fisher-Yates
// draw sequence of `RngStream::shuffle` (same draws, same resulting
// partition as the historical shuffle-and-deal — the paper-pseudocode
// conformance test depends on this).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

#if defined(__x86_64__) && !defined(__POPCNT__)
#error "tcast requires hardware popcount on x86-64: compile with -mpopcnt"
#endif

namespace tcast {

class NodeSet {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  static constexpr std::size_t words_for(std::size_t universe) {
    return (universe + kWordBits - 1) / kWordBits;
  }

  NodeSet() = default;
  explicit NodeSet(std::size_t universe) { reset(universe); }

  /// Resizes to `universe` ids and clears all membership.
  void reset(std::size_t universe) {
    universe_ = universe;
    words_.assign(words_for(universe), Word{0});
    count_ = 0;
  }

  /// Clears membership, keeping the universe (and the allocation).
  void clear() {
    std::fill(words_.begin(), words_.end(), Word{0});
    count_ = 0;
  }

  std::size_t universe() const { return universe_; }
  std::size_t word_count() const { return words_.size(); }
  std::span<const Word> words() const { return words_; }

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  bool test(NodeId id) const {
    TCAST_DCHECK(static_cast<std::size_t>(id) < universe_);
    return (words_[static_cast<std::size_t>(id) / kWordBits] >>
            (static_cast<std::size_t>(id) % kWordBits)) &
           1u;
  }

  /// Inserts `id`; returns true when it was not already a member.
  bool insert(NodeId id) {
    TCAST_DCHECK(static_cast<std::size_t>(id) < universe_);
    Word& w = words_[static_cast<std::size_t>(id) / kWordBits];
    const Word bit = Word{1} << (static_cast<std::size_t>(id) % kWordBits);
    if (w & bit) return false;
    w |= bit;
    ++count_;
    return true;
  }

  /// Erases `id`; returns true when it was a member.
  bool erase(NodeId id) {
    TCAST_DCHECK(static_cast<std::size_t>(id) < universe_);
    Word& w = words_[static_cast<std::size_t>(id) / kWordBits];
    const Word bit = Word{1} << (static_cast<std::size_t>(id) % kWordBits);
    if (!(w & bit)) return false;
    w &= ~bit;
    --count_;
    return true;
  }

  /// Do two word images share a member? Lengths may differ: a shorter image
  /// simply has no members beyond its last word.
  static bool intersects(std::span<const Word> a, std::span<const Word> b) {
    const std::size_t n = a.size() < b.size() ? a.size() : b.size();
    for (std::size_t i = 0; i < n; ++i)
      if (a[i] & b[i]) return true;
    return false;
  }

  static std::size_t intersection_count(std::span<const Word> a,
                                        std::span<const Word> b) {
    const std::size_t n = a.size() < b.size() ? a.size() : b.size();
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
      total += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
    return total;
  }

  /// Smallest member, or kNoNode when empty.
  NodeId first_member() const {
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] != 0)
        return static_cast<NodeId>(
            i * kWordBits +
            static_cast<std::size_t>(std::countr_zero(words_[i])));
    return kNoNode;
  }

  /// The n-th member (0-based) in ascending id order. Requires n < count().
  NodeId nth_member(std::size_t n) const {
    TCAST_DCHECK(n < count_);
    for (std::size_t i = 0; i < words_.size(); ++i) {
      const auto pop = static_cast<std::size_t>(std::popcount(words_[i]));
      if (n >= pop) {
        n -= pop;
        continue;
      }
      Word w = words_[i];
      while (n > 0) {
        w &= w - 1;  // clear lowest set bit
        --n;
      }
      return static_cast<NodeId>(
          i * kWordBits + static_cast<std::size_t>(std::countr_zero(w)));
    }
    TCAST_CHECK_MSG(false, "nth_member past the last member");
    return kNoNode;
  }

  /// Visits members in ascending id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      Word w = words_[i];
      while (w != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(w));
        fn(static_cast<NodeId>(i * kWordBits + bit));
        w &= w - 1;
      }
    }
  }

  /// Appends members in ascending id order (does not clear `out`).
  void append_members(std::vector<NodeId>& out) const {
    for_each([&out](NodeId id) { out.push_back(id); });
  }

  /// Removes every member present in `other` (this &= ~other), returning how
  /// many members were actually removed.
  std::size_t remove_words(std::span<const Word> other) {
    const std::size_t n =
        other.size() < words_.size() ? other.size() : words_.size();
    std::size_t removed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      removed += static_cast<std::size_t>(std::popcount(words_[i] & other[i]));
      words_[i] &= ~other[i];
    }
    count_ -= removed;
    return removed;
  }

  /// Bulk-inserts the id range [0, n) into an empty set — the structure-of-
  /// arrays fast path for "everyone is alive" universes, replacing n
  /// single-bit inserts with a word-image prefix fill. Requires n ≤
  /// universe() and an empty set (the caller owns duplicate detection).
  void fill_prefix(std::size_t n) {
    TCAST_CHECK(count_ == 0);
    TCAST_CHECK(n <= universe_);
    const std::size_t full = n / kWordBits;
    for (std::size_t i = 0; i < full; ++i) words_[i] = ~Word{0};
    if (n % kWordBits != 0) {
      words_[full] = (Word{1} << (n % kWordBits)) - 1;
    }
    count_ = n;
  }

 private:
  std::vector<Word> words_;
  std::size_t universe_ = 0;
  std::size_t count_ = 0;
};

/// In-place random-equal partitioner. Permutes `items` (Fisher-Yates, the
/// exact draw sequence of `RngStream::shuffle`) and writes the partition
/// grouped by bin into the flat `arena`, with bin j occupying
/// [offsets[j], offsets[j+1]). Bin sizes differ by at most one, and bin j's
/// member order is the historical round-robin deal order
/// (perm[j], perm[j+bins], perm[j+2·bins], …) — bit-identical bins to the
/// old shuffle-then-push_back construction, without any per-bin vectors.
inline void random_equal_partition_into(std::span<NodeId> items,
                                        std::size_t bins, RngStream& rng,
                                        std::vector<NodeId>& arena,
                                        std::vector<std::size_t>& offsets) {
  TCAST_CHECK(bins >= 1);
  rng.shuffle(items);
  const std::size_t n = items.size();
  offsets.resize(bins + 1);
  arena.resize(n);
  std::size_t next = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    offsets[b] = next;
    // Bin b holds the round-robin deal positions b, b+bins, b+2·bins, …
    for (std::size_t i = b; i < n; i += bins) arena[next++] = items[i];
  }
  offsets[bins] = n;
}

}  // namespace tcast
