#include "conformance/envelope.hpp"

#include <cmath>
#include <cstdio>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "faults/faulty_channel.hpp"
#include "group/exact_channel.hpp"

namespace tcast::conformance {
namespace {

// Same stream layout as the harness (harness.cpp): one root seed per trial,
// fixed stream ids for each randomness consumer.
constexpr std::uint64_t kPositivesStream = 0;
constexpr std::uint64_t kChannelStream = 1;
constexpr std::uint64_t kAlgorithmStream = 2;

// splitmix64-style trial-seed derivation: adjacent trial indices must not
// produce correlated RngStream roots.
std::uint64_t trial_seed(std::uint64_t root, std::uint64_t trial) {
  std::uint64_t z = root + (trial + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

std::string EnvelopePoint::to_string() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "trials=%zu false_yes=%zu false_no=%zu "
                "mean_queries=%.2f mean_retries=%.2f "
                "faults_injected=%zu faults_seen=%zu",
                trials, false_yes, false_no, mean_queries, mean_retries,
                faults_injected, faults_seen);
  return buf;
}

EnvelopePoint measure_envelope(const EnvelopeConfig& cfg) {
  const core::AlgorithmSpec* spec = core::find_algorithm(cfg.algorithm);
  TCAST_CHECK_MSG(spec != nullptr, "measure_envelope: unknown algorithm");
  TCAST_CHECK_MSG(!spec->needs_oracle,
                  "measure_envelope: oracle baselines are not meaningful "
                  "under injected faults");
  TCAST_CHECK(cfg.x <= cfg.n);

  EnvelopePoint pt;
  pt.trials = cfg.trials;
  const bool truth = cfg.x >= cfg.t;
  std::uint64_t total_queries = 0;
  std::uint64_t total_retries = 0;

  for (std::size_t k = 0; k < cfg.trials; ++k) {
    const std::uint64_t seed = trial_seed(cfg.seed, k);

    std::vector<bool> positive(cfg.n, false);
    RngStream pos_rng(seed, kPositivesStream);
    for (const NodeId id : pos_rng.sample_subset(cfg.n, cfg.x))
      positive[static_cast<std::size_t>(id)] = true;

    RngStream channel_rng(seed, kChannelStream);
    RngStream algo_rng(seed, kAlgorithmStream);
    group::ExactChannel::Config ecfg;
    ecfg.model = cfg.model;
    group::ExactChannel exact(std::move(positive), channel_rng, ecfg);
    const auto participants = exact.all_nodes();

    faults::FaultPlan plan = cfg.plan;
    plan.seed = seed;  // fault draws replay with the trial, not across trials
    faults::FaultyChannel faulty(exact, participants, plan);

    const auto outcome =
        spec->run(faulty, participants, cfg.t, algo_rng, cfg.engine);

    if (outcome.decision && !truth) ++pt.false_yes;
    if (!outcome.decision && truth) ++pt.false_no;
    total_queries += outcome.queries;
    total_retries += outcome.retries;
    pt.faults_injected += faulty.trace().events.size();
    pt.faults_seen += outcome.faults_seen;
  }

  if (cfg.trials > 0) {
    pt.mean_queries =
        static_cast<double>(total_queries) / static_cast<double>(cfg.trials);
    pt.mean_retries =
        static_cast<double>(total_retries) / static_cast<double>(cfg.trials);
  }
  return pt;
}

double false_no_envelope(std::size_t n, const faults::FaultPlan& plan,
                         std::size_t retries) {
  const double per_disposal =
      plan.marginal_loss() *
      std::pow(plan.burst_loss(), static_cast<double>(retries));
  return std::min(1.0, static_cast<double>(n) * per_disposal);
}

}  // namespace tcast::conformance
