// The determinism contract of the templated Monte-Carlo entry points: merged
// results are BIT-identical for every worker count. Any drift here means a
// change to them altered observable results and must be rejected.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <thread>
#include <vector>

#include "common/monte_carlo.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace tcast {
namespace {

double trial_metric(RngStream& rng) {
  // Irregular enough that any reordering or stream reuse shows up.
  const double a = rng.uniform01();
  const double b = rng.normal(0.0, 2.0);
  return a + 0.25 * b + (rng.bernoulli(0.3) ? 1.0 : 0.0);
}

void expect_bitwise_equal(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  // Bit-exact, not approximately equal: the reduction order is part of the
  // determinism contract.
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

TEST(FastPathDeterminism, RunTrialsIdenticalAcrossWorkerCounts) {
  // All three entry points: run_trials, run_bool_trials and run_multi_trials.
  const auto bool_trial = [](RngStream& rng) { return rng.bernoulli(0.42); };
  const auto multi_trial = [](RngStream& rng, std::span<double> out) {
    out[0] = rng.uniform01();
    out[1] = rng.normal(1.0, 0.5);
    out[2] = out[0] * out[1];
  };
  MonteCarloConfig base;
  base.trials = 501;  // odd, not a multiple of any chunk size
  base.experiment_id = 11;
  ThreadPool reference_pool(1);
  base.pool = &reference_pool;
  const RunningStats reference = run_trials(base, trial_metric);
  const Proportion bool_reference = run_bool_trials(base, bool_trial);
  const auto multi_reference = run_multi_trials(base, 3, multi_trial);
  ASSERT_EQ(multi_reference.size(), 3u);
  for (const std::size_t workers : worker_counts_under_test()) {
    ThreadPool pool(workers);
    MonteCarloConfig cfg = base;
    cfg.pool = &pool;
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_bitwise_equal(run_trials(cfg, trial_metric), reference);
    const Proportion p = run_bool_trials(cfg, bool_trial);
    EXPECT_EQ(p.trials(), bool_reference.trials());
    EXPECT_EQ(p.successes(), bool_reference.successes());
    const auto multi = run_multi_trials(cfg, 3, multi_trial);
    ASSERT_EQ(multi.size(), 3u);
    for (std::size_t m = 0; m < 3; ++m)
      expect_bitwise_equal(multi[m], multi_reference[m]);
  }
}

TEST(FastPathDeterminism, NestedParallelForStillDeterministic) {
  // A trial that itself calls parallel_for on the pool running it must run
  // its inner loop inline (worker-thread re-entry) and still produce
  // worker-count-independent results.
  ThreadPool one(1);
  ThreadPool many(4);
  ThreadPool* trial_pool = nullptr;
  const auto trial = [&trial_pool](RngStream& rng) {
    double acc = rng.uniform01();
    parallel_for(
        4, [&acc](std::size_t i) { acc += static_cast<double>(i) * 1e-3; },
        trial_pool);
    return acc;
  };
  MonteCarloConfig cfg;
  cfg.trials = 64;
  cfg.experiment_id = 19;
  cfg.pool = trial_pool = &one;
  const RunningStats serial = run_trials(cfg, trial);
  cfg.pool = trial_pool = &many;
  const RunningStats parallel = run_trials(cfg, trial);
  expect_bitwise_equal(serial, parallel);
}

}  // namespace
}  // namespace tcast
