// Allocation audit for the query hot paths (`ctest -L perf`): after a
// warm-up that grows every reusable buffer to steady state, issuing
// queries must touch the heap ZERO times — on the exact tier (ExactChannel
// announce/query/bin-count cache, the RoundEngine round loop, the division-
// free uniform_below reciprocal cache) and on the packet tier (the full
// PHY/MAC exchange per query). Heap traffic per query is how "fast" code
// quietly regresses: capacity churn is invisible to differential tests and
// ruins the sweep throughput the figures are built on.
//
// The audit counts every global operator new/delete. Sanitizer builds
// interpose the allocator and add their own bookkeeping allocations, so
// the suite skips itself there (CI's sanitizer matrix excludes `-L perf`
// anyway).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/registry.hpp"
#include "core/round_engine.hpp"
#include "group/binning.hpp"
#include "group/exact_channel.hpp"
#include "group/packet_channel.hpp"
#include "radio/channel.hpp"
#include "radio/hack_model.hpp"
#include "radio/radio.hpp"
#include "sim/simulator.hpp"

// The counting global allocator lives in counting_allocator.cpp: in a
// translation unit of its own, no caller can inline its malloc/free into a
// new/delete pair and the compiler never sees them mismatched.
std::uint64_t counted_news();

namespace tcast {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

std::uint64_t news() { return counted_news(); }

TEST(AllocAudit, CountingAllocatorSeesVectorGrowth) {
  // Fixture self-test: the counter must actually observe heap traffic.
  const std::uint64_t before = news();
  std::vector<int> v(4096);
  EXPECT_GT(news(), before);
}

TEST(AllocAudit, ExactTierQueriesAreAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocator interposed";
  RngStream rng(0xa110c, 1);
  auto channel = group::ExactChannel::with_random_positives(128, 16, rng);
  std::vector<NodeId> candidates(channel.all_nodes().begin(),
                                 channel.all_nodes().end());
  group::BinAssignment a;

  // Warm-up: one full announce/query cycle grows the assignment arenas,
  // the channel's count cache, and the reciprocal cache to steady state.
  a.assign_random_equal_inplace(std::span<NodeId>(candidates), 32, rng);
  channel.announce(a);
  for (std::size_t idx = 0; idx < a.bin_count(); ++idx)
    (void)channel.query_bin(a, idx);

  const std::uint64_t before = news();
  for (std::size_t round = 0; round < 50; ++round) {
    a.assign_random_equal_inplace(std::span<NodeId>(candidates), 32, rng);
    channel.announce(a);
    (void)channel.oracle_bin_counts(a);
    for (std::size_t idx = 0; idx < a.bin_count(); ++idx)
      (void)channel.query_bin(a, idx);
  }
  EXPECT_EQ(news(), before)
      << "exact-tier announce/query cycle touched the heap";
}

TEST(AllocAudit, ExactTierEngineTrialsAreAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocator interposed";
  // The full sweep inner loop: re-seed ground truth, rebind the persistent
  // engine, run the algorithm end to end. After one warm-up trial per
  // algorithm, whole trials must be heap-silent — this is the property the
  // batched sweep engine's throughput rests on.
  RngStream rng(0xa110c, 2);
  auto channel = group::ExactChannel::all_negative(128, rng, {});
  core::RoundEngine engine(channel, rng, {});
  for (const auto& spec : core::algorithm_registry()) {
    if (!spec.run_with_engine) continue;
    // Two passes over the same trial grid. The first is warm-up: buffer
    // sizes depend on the trial shape (expinc grows its bin count with x),
    // so only a full pass reaches every buffer's high-water mark. The
    // second pass must then be heap-silent — the steady state the batched
    // sweep engine runs in.
    std::uint64_t before = 0;
    for (std::size_t pass = 0; pass < 2; ++pass) {
      if (pass == 1) before = news();
      for (std::size_t trial = 0; trial < 30; ++trial) {
        RngStream trial_rng(0xa110d, trial_stream_id(77, trial));
        channel.rebind_rng(trial_rng);
        channel.assign_random_positives(trial % 33, trial_rng);
        channel.reset_query_counter();
        engine.rebind(channel, trial_rng, {});
        (void)spec.run_with_engine(engine, channel.all_nodes(), 16);
      }
    }
    EXPECT_EQ(news(), before) << spec.name << " trials touched the heap";
  }
}

TEST(AllocAudit, PacketTierQueriesAreAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocator interposed";
  std::vector<bool> truth(48, false);
  for (std::size_t i = 0; i < 48; i += 5) truth[i] = true;
  group::PacketChannel::Config cfg;
  cfg.model = group::CollisionModel::kOnePlus;
  cfg.channel.hack = radio::HackReceptionModel::ideal();
  group::PacketChannel channel(truth, cfg);

  group::BinAssignment a;
  a.assign_contiguous(channel.all_nodes(), 8);
  channel.announce(a);
  // Warm-up: every bin once (grows the wire map, frame buffers, and the
  // simulator's event queue to their steady-state capacity).
  for (std::size_t idx = 0; idx < a.bin_count(); ++idx)
    (void)channel.query_bin(a, idx);

  const std::uint64_t before = news();
  for (std::size_t rep = 0; rep < 20; ++rep)
    for (std::size_t idx = 0; idx < a.bin_count(); ++idx)
      (void)channel.query_bin(a, idx);
  EXPECT_EQ(news(), before) << "packet-tier query touched the heap";
}

TEST(AllocAudit, RadioChannelBeaconTrafficIsAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocator interposed";
  // One CellWorld-sized cell: 320 radios on an infinite-range channel, each
  // beaconing (CCA-gated) at jittered intervals. After warm-up the slot
  // table, Tx pool, air log, resolution scratch and event queue are at
  // steady state, and frames must not touch the heap.
  struct Cell {
    sim::Simulator sim{0xbeac};
    radio::Channel channel{sim, {}};
    std::vector<std::unique_ptr<radio::Radio>> radios;
    std::uint64_t sent = 0;

    void beacon(std::size_t i) {
      radio::Radio& r = *radios[i];
      if (!r.transmitting() && r.cca_clear()) {
        radio::Frame f;
        f.src = r.short_address();
        r.transmit(std::move(f));
        ++sent;
      }
      const auto gap = 50 * kMillisecond +
                       static_cast<SimTime>(sim.rng().uniform_below(
                           static_cast<std::uint64_t>(100 * kMillisecond)));
      sim.schedule_after(gap, [this, i] { beacon(i); });
    }
  };
  Cell cell;
  constexpr std::size_t kRadios = 320;
  for (std::size_t i = 0; i < kRadios; ++i) {
    cell.radios.push_back(std::make_unique<radio::Radio>(
        cell.channel, static_cast<NodeId>(i),
        static_cast<radio::ShortAddr>(i + 1)));
    cell.radios.back()->power_on();
    const auto jitter = static_cast<SimTime>(cell.sim.rng().uniform_below(
        static_cast<std::uint64_t>(100 * kMillisecond)));
    cell.sim.schedule_after(jitter, [&cell, i] { cell.beacon(i); });
  }
  cell.sim.run_until(1000 * kMillisecond);  // warm-up

  const std::uint64_t sent_before = cell.sent;
  const std::uint64_t before = news();
  cell.sim.run_until(2000 * kMillisecond);
  EXPECT_EQ(news(), before) << "radio channel beacon traffic touched the heap";
  EXPECT_GT(cell.sent - sent_before, 1000u);  // a saturated cell
}

}  // namespace
}  // namespace tcast
