// Differential proof for ExactChannel's word-image path
// (group/exact_channel.hpp): with identical seeds, every registry algorithm
// must produce bit-identical results on the production ExactChannel and on
// the test-only span-walk oracle (reference_exact_channel.hpp).
// "Bit-identical" is the full observable surface: the decision, every
// ThresholdOutcome counter, the channel's query count, and the post-run RNG
// state (same number of draws consumed — proven by comparing the next raw
// output word).
//
// A second suite proves the batched sweep engine (perf/sweep_engine.hpp)
// inherits the property: its sweeps equal a sequential loop over the oracle
// bitwise for every worker count, so workspace recycling is unobservable
// too.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "conformance/scenario.hpp"
#include "core/registry.hpp"
#include "group/exact_channel.hpp"
#include "perf/sweep_engine.hpp"
#include "reference_exact_channel.hpp"

namespace tcast::conformance {
namespace {

struct RunRecord {
  core::ThresholdOutcome outcome;
  QueryCount channel_queries = 0;
  /// One raw engine word drawn AFTER the run: equal iff both runs consumed
  /// the same number of draws from the same stream.
  std::uint64_t next_rng_word = 0;
};

RunRecord run_on(group::QueryChannel& channel, std::span<const NodeId> nodes,
                 RngStream& rng, const Scenario& sc,
                 const core::AlgorithmSpec& spec) {
  RunRecord rec;
  rec.outcome = spec.run(channel, nodes, sc.t, rng, sc.engine_options());
  rec.channel_queries = channel.queries_used();
  rec.next_rng_word = rng.bits();
  return rec;
}

void expect_identical(const RunRecord& got, const RunRecord& want) {
  EXPECT_EQ(got.outcome.decision, want.outcome.decision);
  EXPECT_EQ(got.outcome.queries, want.outcome.queries);
  EXPECT_EQ(got.outcome.rounds, want.outcome.rounds);
  EXPECT_EQ(got.outcome.confirmed_positives, want.outcome.confirmed_positives);
  EXPECT_EQ(got.outcome.remaining_candidates,
            want.outcome.remaining_candidates);
  EXPECT_EQ(got.outcome.retries, want.outcome.retries);
  EXPECT_EQ(got.outcome.faults_seen, want.outcome.faults_seen);
  EXPECT_EQ(got.channel_queries, want.channel_queries);
  EXPECT_EQ(got.next_rng_word, want.next_rng_word);
}

void expect_registry_matches_oracle(const Scenario& sc) {
  group::ExactChannel::Config cfg;
  cfg.model = sc.model;
  for (const auto& spec : core::algorithm_registry()) {
    SCOPED_TRACE(spec.name + " on [" + sc.describe() + "]");
    RngStream fast_rng(sc.seed, 0x9e77);
    auto fast =
        group::ExactChannel::with_random_positives(sc.n, sc.x, fast_rng, cfg);
    RngStream oracle_rng(sc.seed, 0x9e77);
    ReferenceExactChannel oracle(sc.n, sc.x, oracle_rng, cfg);
    expect_identical(run_on(fast, fast.all_nodes(), fast_rng, sc, spec),
                     run_on(oracle, oracle.all_nodes(), oracle_rng, sc, spec));
  }
}

TEST(FastPathDifferential, RegistryWideFastMatchesReference) {
  RngStream scenario_rng(0xfa57, 31);
  for (std::size_t i = 0; i < 150; ++i)
    expect_registry_matches_oracle(
        random_scenario(scenario_rng, /*allow_lossy=*/false));

  // random_scenario caps n at 96 (two words). Wide universes reach the
  // multi-word loops: 513 nodes is 9 words with a one-bit last word, 4096
  // is 64 words. t stays small enough that 2t bins keep their word images
  // (≤ 64 bins), and half the draws put x near the threshold, where the
  // algorithms run the most rounds.
  RngStream wide_rng(0xfa57, 33);
  for (const std::size_t n : {std::size_t{513}, std::size_t{4096}}) {
    for (std::size_t i = 0; i < 20; ++i) {
      Scenario sc = random_scenario(wide_rng, /*allow_lossy=*/false);
      sc.n = n;
      sc.t = wide_rng.uniform_below(33);
      sc.x = wide_rng.bernoulli(0.5) ? wide_rng.uniform_below(n + 1)
                                     : wide_rng.uniform_below(2 * sc.t + 3);
      expect_registry_matches_oracle(sc);
    }
  }
}

TEST(FastPathDifferential, WideBinCountsFallBackIdentically) {
  // bins > kMaxBinsForWords disables the word image, so this exercises the
  // channel's span route against the oracle on the largest populations the
  // scenario vocabulary allows, with thresholds driving 2t well past 64
  // bins.
  RngStream scenario_rng(0xfa57, 32);
  for (std::size_t i = 0; i < 40; ++i) {
    Scenario sc = random_scenario(scenario_rng, /*allow_lossy=*/false);
    sc.n = 96;
    sc.t = 48 + scenario_rng.uniform_below(49);  // 2t ∈ [96, 192] bins
    if (sc.x > sc.n) sc.x = sc.n;
    expect_registry_matches_oracle(sc);
  }
}

void expect_bitwise_equal(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

std::vector<std::size_t> worker_counts_under_test() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> counts{1, 2};
  if (hw > 2) counts.push_back(hw);
  return counts;
}

perf::QuerySweepSpec sweep_spec(const std::string& algorithm,
                                group::CollisionModel model) {
  perf::QuerySweepSpec spec;
  spec.algorithm = algorithm;
  spec.n = 96;
  spec.trials = 50;  // not a multiple of any chunk size
  spec.seed = 0xabad1dea;
  spec.channel.model = model;
  for (const std::size_t x : {std::size_t{0}, std::size_t{5}, std::size_t{16},
                              std::size_t{48}, std::size_t{96}})
    spec.points.push_back({x, 16, perf::sweep_point_id(9, 1, x)});
  return spec;
}

/// The sweep as a sequential loop over the oracle: one fresh channel per
/// trial on the trial's own stream, no lanes, no workspace reuse.
std::vector<RunningStats> oracle_sweep(const perf::QuerySweepSpec& spec) {
  const auto* algo = core::find_algorithm(spec.algorithm);
  std::vector<RunningStats> out(spec.points.size());
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    for (std::size_t i = 0; i < spec.trials; ++i) {
      RngStream rng(spec.seed,
                    trial_stream_id(spec.points[p].experiment_id, i));
      ReferenceExactChannel channel(spec.n, spec.points[p].x, rng,
                                    spec.channel);
      const auto outcome = algo->run(channel, channel.all_nodes(),
                                     spec.points[p].t, rng, spec.engine);
      out[p].add(static_cast<double>(outcome.queries));
    }
  }
  return out;
}

TEST(FastPathDifferential, SweepEngineFastMatchesReferenceAcrossWorkerCounts) {
  for (const auto model :
       {group::CollisionModel::kOnePlus, group::CollisionModel::kTwoPlus}) {
    for (const char* algorithm : {"2tbins", "expinc"}) {
      const perf::QuerySweepSpec spec = sweep_spec(algorithm, model);
      const auto reference = oracle_sweep(spec);
      for (const std::size_t workers : worker_counts_under_test()) {
        ThreadPool pool(workers);
        perf::QuerySweepSpec fast = spec;
        fast.pool = &pool;
        const auto got = perf::run_query_sweep(fast);
        ASSERT_EQ(got.queries.size(), reference.size());
        SCOPED_TRACE(std::string(algorithm) + " model=" +
                     group::to_string(model) +
                     " workers=" + std::to_string(workers));
        for (std::size_t p = 0; p < got.queries.size(); ++p)
          expect_bitwise_equal(got.queries[p], reference[p]);
      }
    }
  }
}

}  // namespace
}  // namespace tcast::conformance
