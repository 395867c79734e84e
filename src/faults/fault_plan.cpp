#include "faults/fault_plan.hpp"

#include <algorithm>

#include "common/text_codec.hpp"

namespace tcast::faults {
namespace {

/// A probability token: a codec double in [0, 1].
std::optional<double> parse_prob(std::string_view text) {
  const auto p = parse_double(text);
  if (!p || *p < 0.0 || *p > 1.0) return std::nullopt;
  return p;
}

}  // namespace

const char* to_string(FaultPlan::LossProcess p) {
  switch (p) {
    case FaultPlan::LossProcess::kNone: return "none";
    case FaultPlan::LossProcess::kIid: return "iid";
    case FaultPlan::LossProcess::kGilbertElliott: return "ge";
  }
  return "?";
}

bool FaultPlan::lossy() const {
  return marginal_loss() > 0.0 || capture_downgrade > 0.0 ||
         spurious_activity > 0.0 || crash_rate > 0.0;
}

double FaultPlan::marginal_loss() const {
  switch (process) {
    case LossProcess::kNone:
      return 0.0;
    case LossProcess::kIid:
      return loss;
    case LossProcess::kGilbertElliott: {
      const double denom = ge_enter_bad + ge_exit_bad;
      // A frozen chain (both transitions 0) stays in its start state (good).
      const double pi_bad = denom > 0.0 ? ge_enter_bad / denom : 0.0;
      return pi_bad * ge_loss_bad + (1.0 - pi_bad) * ge_loss_good;
    }
  }
  return 0.0;
}

double FaultPlan::burst_loss() const {
  switch (process) {
    case LossProcess::kNone:
      return 0.0;
    case LossProcess::kIid:
      return loss;
    case LossProcess::kGilbertElliott: {
      const double from_bad =
          (1.0 - ge_exit_bad) * ge_loss_bad + ge_exit_bad * ge_loss_good;
      const double from_good =
          ge_enter_bad * ge_loss_bad + (1.0 - ge_enter_bad) * ge_loss_good;
      return std::max(from_bad, from_good);
    }
  }
  return 0.0;
}

std::optional<FaultPlan> FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  if (text.empty()) return plan;
  for (const auto token : split(text, ',')) {
    const auto kv = split_kv(token);
    if (!kv) return std::nullopt;
    const auto [key, value] = *kv;
    if (key == "iid") {
      const auto p = parse_prob(value);
      if (!p) return std::nullopt;
      plan.process = LossProcess::kIid;
      plan.loss = *p;
    } else if (key == "ge") {
      const auto parts = split(value, ':');
      if (parts.size() != 4) return std::nullopt;
      double vals[4];
      for (std::size_t i = 0; i < 4; ++i) {
        const auto p = parse_prob(parts[i]);
        if (!p) return std::nullopt;
        vals[i] = *p;
      }
      plan.process = LossProcess::kGilbertElliott;
      plan.ge_enter_bad = vals[0];
      plan.ge_exit_bad = vals[1];
      plan.ge_loss_good = vals[2];
      plan.ge_loss_bad = vals[3];
    } else if (key == "downgrade") {
      const auto p = parse_prob(value);
      if (!p) return std::nullopt;
      plan.capture_downgrade = *p;
    } else if (key == "spurious") {
      const auto p = parse_prob(value);
      if (!p) return std::nullopt;
      plan.spurious_activity = *p;
    } else if (key == "crash") {
      const auto p = parse_prob(value);
      if (!p) return std::nullopt;
      plan.crash_rate = *p;
    } else if (key == "reboot") {
      const auto v = parse_uint<std::size_t>(value);
      if (!v) return std::nullopt;
      plan.reboot_after = *v;
    } else if (key == "seed") {
      const auto v = parse_uint<std::uint64_t>(value);
      if (!v) return std::nullopt;
      plan.seed = *v;
    } else {
      return std::nullopt;
    }
  }
  return plan;
}

std::string FaultPlan::spec() const {
  std::string s;
  const auto append = [&s](const std::string& token) {
    if (!s.empty()) s += ',';
    s += token;
  };
  switch (process) {
    case LossProcess::kNone:
      break;
    case LossProcess::kIid:
      append("iid=" + format_double(loss));
      break;
    case LossProcess::kGilbertElliott:
      append("ge=" + format_double(ge_enter_bad) + ":" +
             format_double(ge_exit_bad) + ":" + format_double(ge_loss_good) +
             ":" + format_double(ge_loss_bad));
      break;
  }
  if (capture_downgrade > 0.0)
    append("downgrade=" + format_double(capture_downgrade));
  if (spurious_activity > 0.0)
    append("spurious=" + format_double(spurious_activity));
  if (crash_rate > 0.0) append("crash=" + format_double(crash_rate));
  if (reboot_after > 0) append("reboot=" + std::to_string(reboot_after));
  append("seed=" + std::to_string(seed));
  return s;
}

}  // namespace tcast::faults
