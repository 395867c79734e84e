// FaultPlan: a deterministic, seed-driven description of what a faulty
// channel does to a run.
//
// The paper's testbed (Sec. IV-D, Fig. 4) measured 102 HACK false negatives
// in 7,200 tcasts — losses that turn a non-empty bin into apparent silence.
// This module abstracts that failure census (and its relatives from the
// group-testing literature on faulty/dead responders) into four injectable
// fault kinds plus two loss processes:
//
//   false-empty        a non-empty bin reads as silence (lost replies);
//                      driven by the loss process (i.i.d. or bursty
//                      Gilbert–Elliott), since radio loss is what causes it
//   capture-downgrade  a 2+ capture decodes as mere activity (the lone-HACK
//                      decode failure the testbed saw most)
//   spurious-activity  an empty bin reads as activity (foreign energy in
//                      the pollcast vote window, Sec. III-B)
//   crash / reboot     a node stops replying mid-session and (optionally)
//                      returns after a fixed number of queries
//
// A plan is a pure value: the same plan (its `seed` included) injected into
// the same run reproduces the identical FaultTrace and outcome, which is what
// makes every injected-fault failure replayable. Plans round-trip through a
// compact spec string (`parse` / `spec`) so a failing sweep point can be
// re-run from the command line (`tcast_cli --fault-plan ...`).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace tcast::faults {

struct FaultPlan {
  enum class LossProcess : std::uint8_t {
    kNone,            ///< replies never lost
    kIid,             ///< each query lost independently with prob `loss`
    kGilbertElliott,  ///< two-state bursty loss (good/bad Markov chain)
  };

  LossProcess process = LossProcess::kNone;
  /// kIid: per-query loss probability.
  double loss = 0.0;
  /// kGilbertElliott: per-query transition and per-state loss probabilities.
  /// The chain steps once per query *before* the loss draw.
  double ge_enter_bad = 0.02;  ///< P(good → bad)
  double ge_exit_bad = 0.25;   ///< P(bad → good)
  double ge_loss_good = 0.0;   ///< P(loss | good)
  double ge_loss_bad = 0.7;    ///< P(loss | bad)

  /// P(a captured reply is downgraded to undecoded activity) per query.
  double capture_downgrade = 0.0;
  /// P(an empty bin reads as activity) per query — interference.
  double spurious_activity = 0.0;
  /// P(one uniformly-random alive node crashes) per query.
  double crash_rate = 0.0;
  /// Queries until a crashed node reboots and rejoins; 0 = never.
  std::size_t reboot_after = 0;
  /// Root of the fault RNG stream. Part of the plan: replaying the same
  /// plan (seed included) reproduces the identical FaultTrace.
  std::uint64_t seed = 1;

  /// True when any injected fault can make the channel misreport — the
  /// signal the engine's soundness gate and retry policies key off.
  bool lossy() const;

  /// Stationary per-query loss probability of the loss process (0 for
  /// kNone; `loss` for kIid; the Markov-stationary mix for Gilbert–Elliott).
  double marginal_loss() const;

  /// Worst-case P(next query lost | current state), maximised over states —
  /// the per-extra-attempt factor of the degradation envelope. Equals
  /// marginal_loss() for kIid; under Gilbert–Elliott it is dominated by
  /// "stay in the bad state", which is what makes bursts dangerous.
  double burst_loss() const;

  /// Parses a spec string: comma-separated `key=value` tokens, e.g.
  ///   "iid=0.05,downgrade=0.1,seed=7"
  ///   "ge=0.02:0.25:0:0.7,crash=0.005,reboot=50"
  /// Keys: iid, ge (enter:exit:loss_good:loss_bad), downgrade, spurious,
  /// crash, reboot, seed. Returns nullopt on any malformed or out-of-range
  /// token.
  static std::optional<FaultPlan> parse(std::string_view text);

  /// Canonical spec string; `parse(spec())` reproduces the plan exactly —
  /// including plans built programmatically with probabilities that have no
  /// short decimal form (probabilities are emitted with up to max_digits10
  /// significant digits when the short rendering would not round-trip).
  std::string spec() const;

  /// Alias of spec(), named for symmetry with parse(): every plan — parsed
  /// or programmatically built — satisfies `parse(to_spec(p)) == p`.
  std::string to_spec() const { return spec(); }

  bool operator==(const FaultPlan&) const = default;
};

const char* to_string(FaultPlan::LossProcess p);

}  // namespace tcast::faults
