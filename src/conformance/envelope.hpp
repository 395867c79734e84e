// Degradation envelopes: measured wrong-answer rates and query overhead of
// a registry algorithm under an injected FaultPlan, plus the analytic
// ceiling the guarded engine is regression-tested against.
//
// Methodology (docs/ROBUSTNESS.md):
//   * a sweep point fixes (algorithm, n, x, t, model, engine options, fault
//     plan) and Monte-Carlos `trials` seeded runs of FaultyChannel over an
//     ExactChannel — the fault process is the only deviation from the
//     paper-exact tier, so every error is attributable to the plan;
//   * wrong answers split by direction: false "yes" (decision true, x < t)
//     must be zero whenever the plan injects no spurious activity — loss
//     never manufactures positives and the soundness gate stops the 2+
//     overcount; false "no" is the price of loss, and the retry-guarded
//     engine keeps it under `false_no_envelope`;
//   * the bound: a committed silent disposal of a positive-holding bin
//     requires all 1+r attempts lost — probability ≤ marginal·burst^r (the
//     first attempt at the process's stationary rate, each extra attempt at
//     the worst-state rate, which is what bursts cost) — and a run commits
//     at most n disposals (each removes ≥1 candidate), so
//       P(false "no") ≤ min(1, n · marginal_loss · burst_loss^r).
#pragma once

#include <string>

#include "core/round_engine.hpp"
#include "faults/fault_plan.hpp"
#include "group/query_channel.hpp"

namespace tcast::conformance {

struct EnvelopeConfig {
  std::string algorithm = "2tbins";
  std::size_t n = 24;
  std::size_t x = 8;
  std::size_t t = 8;
  group::CollisionModel model = group::CollisionModel::kOnePlus;
  /// In-order accounting by default: the oracle-assisted nonempty-first
  /// ordering would consult ground truth mid-fault, which no real initiator
  /// can.
  core::EngineOptions engine = [] {
    core::EngineOptions o;
    o.ordering = core::BinOrdering::kInOrder;
    return o;
  }();
  faults::FaultPlan plan;  ///< plan.seed is re-derived per trial
  std::size_t trials = 200;
  std::uint64_t seed = 1;  ///< root seed of the whole sweep point
};

struct EnvelopePoint {
  std::size_t trials = 0;
  std::size_t false_yes = 0;  ///< decision true while x < t
  std::size_t false_no = 0;   ///< decision false while x ≥ t
  double mean_queries = 0.0;
  double mean_retries = 0.0;
  std::size_t faults_injected = 0;  ///< injected fault events, all trials
  std::size_t faults_seen = 0;      ///< engine-detected (contradicted empties)

  double false_yes_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(false_yes) /
                             static_cast<double>(trials);
  }
  double false_no_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(false_no) /
                             static_cast<double>(trials);
  }
  std::string to_string() const;
};

/// Runs one sweep point. Fully deterministic in cfg.seed: trial k derives
/// its positive set, channel randomness, algorithm stream and fault-plan
/// seed from (cfg.seed, k) through fixed stream ids.
EnvelopePoint measure_envelope(const EnvelopeConfig& cfg);

/// The documented analytic ceiling on the guarded engine's false-"no"
/// probability: min(1, n · marginal_loss(plan) · burst_loss(plan)^retries),
/// where `retries` is the fixed per-silent-bin retry budget. Loose by
/// construction (it charges every disposal the worst case); its value is
/// that it is *assertable* — the measured rate must stay under it.
double false_no_envelope(std::size_t n, const faults::FaultPlan& plan,
                         std::size_t retries);

}  // namespace tcast::conformance
