#include "faults/faulty_channel.hpp"

#include <algorithm>

namespace tcast::faults {

FaultyChannel::FaultyChannel(group::QueryChannel& inner,
                             std::span<const NodeId> participants,
                             FaultPlan plan)
    : FaultyChannel(inner, participants, plan, plan.lossy(), {},
                    /*replay=*/false) {}

FaultyChannel::FaultyChannel(group::QueryChannel& inner,
                             std::span<const NodeId> participants,
                             FaultTrace trace)
    : FaultyChannel(inner, participants, FaultPlan{}, trace.lossy,
                    std::move(trace.events), /*replay=*/true) {}

FaultyChannel::FaultyChannel(group::QueryChannel& inner,
                             std::span<const NodeId> participants,
                             FaultPlan plan, bool lossy,
                             std::vector<FaultEvent> schedule, bool replay)
    : QueryChannel(inner.model()),
      inner_(&inner),
      ctrl_(inner.fault_control()),
      plan_(plan),
      rng_(plan.seed, /*stream=*/0xFA17ULL),  // fixed fault stream id
      lossy_(lossy),
      replay_(replay),
      schedule_(std::move(schedule)),
      participants_(participants.begin(), participants.end()) {
  std::stable_sort(schedule_.begin(), schedule_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_query < b.at_query;
                   });
  NodeId max_id = 0;
  for (const NodeId id : participants_) max_id = std::max(max_id, id);
  participant_.assign(static_cast<std::size_t>(max_id) + 1, 0);
  for (const NodeId id : participants_)
    participant_[static_cast<std::size_t>(id)] = 1;
  crashed_.assign(participant_.size(), 0);
  reboot_due_.assign(participant_.size(), 0);
}

bool FaultyChannel::loss_draw() {
  switch (plan_.process) {
    case FaultPlan::LossProcess::kNone:
      return false;
    case FaultPlan::LossProcess::kIid:
      return rng_.bernoulli(plan_.loss);
    case FaultPlan::LossProcess::kGilbertElliott:
      // Step the chain, then draw the loss of the state just entered. Two
      // RNG draws per query regardless of outcome, so replays stay aligned.
      ge_bad_ = ge_bad_ ? !rng_.bernoulli(plan_.ge_exit_bad)
                        : rng_.bernoulli(plan_.ge_enter_bad);
      return rng_.bernoulli(ge_bad_ ? plan_.ge_loss_bad
                                    : plan_.ge_loss_good);
  }
  return false;
}

void FaultyChannel::draw(QueryCount at) {
  using Kind = FaultEvent::Kind;
  drawn_.clear();
  if (plan_.crash_rate > 0.0) {
    const auto reboots_now = [&](std::size_t idx) {
      return plan_.reboot_after > 0 && crashed_[idx] &&
             reboot_due_[idx] <= at;
    };
    std::size_t down = crashed_count_;
    for (std::size_t idx = 0; down > 0 && idx < crashed_.size(); ++idx) {
      if (reboots_now(idx)) {
        drawn_.push_back({Kind::kReboot, at, static_cast<NodeId>(idx)});
        --down;
      }
    }
    if (rng_.bernoulli(plan_.crash_rate) && down < participants_.size()) {
      // Uniform victim among the participants alive once the due reboots
      // have fired.
      std::vector<NodeId> alive;
      alive.reserve(participants_.size() - down);
      for (const NodeId id : participants_) {
        const auto idx = static_cast<std::size_t>(id);
        if (!crashed_[idx] || reboots_now(idx)) alive.push_back(id);
      }
      const NodeId victim =
          alive[static_cast<std::size_t>(rng_.uniform_below(alive.size()))];
      if (plan_.reboot_after > 0)
        reboot_due_[static_cast<std::size_t>(victim)] =
            at + plan_.reboot_after;
      drawn_.push_back({Kind::kCrash, at, victim});
    }
  }
  // One draw per enabled fault class, whatever the result, so the
  // per-query RNG consumption is constant.
  if (plan_.process != FaultPlan::LossProcess::kNone && loss_draw())
    drawn_.push_back({Kind::kFalseEmpty, at});
  if (plan_.capture_downgrade > 0.0 &&
      rng_.bernoulli(plan_.capture_downgrade))
    drawn_.push_back({Kind::kCaptureDowngrade, at});
  if (plan_.spurious_activity > 0.0 &&
      rng_.bernoulli(plan_.spurious_activity))
    drawn_.push_back({Kind::kSpuriousActivity, at});
}

std::span<const FaultEvent> FaultyChannel::due_events(QueryCount at) {
  if (!replay_) {
    draw(at);
    return drawn_;
  }
  // Queries arrive in increasing index order, so a cursor suffices. Events
  // scheduled for already-passed indexes (possible only with hand-edited
  // traces) are skipped, never applied late.
  while (cursor_ < schedule_.size() && schedule_[cursor_].at_query < at)
    ++cursor_;
  const std::size_t first = cursor_;
  while (cursor_ < schedule_.size() && schedule_[cursor_].at_query == at)
    ++cursor_;
  return std::span<const FaultEvent>(schedule_).subspan(first,
                                                        cursor_ - first);
}

std::span<const FaultEvent> FaultyChannel::apply_before(QueryCount at) {
  const auto due = due_events(at);
  for (const auto& e : due) {
    const auto idx = static_cast<std::size_t>(e.node);
    const bool names_participant =
        idx < participant_.size() && participant_[idx];
    switch (e.kind) {
      case FaultEvent::Kind::kReboot:
        if (!names_participant) break;
        if (crashed_[idx]) {
          crashed_[idx] = 0;
          --crashed_count_;
        }
        if (ctrl_) ctrl_->restore_node(e.node);
        record(e.kind, at, e.node);
        break;
      case FaultEvent::Kind::kCrash:
        if (!names_participant) break;
        if (!crashed_[idx]) {
          crashed_[idx] = 1;
          ++crashed_count_;
        }
        if (ctrl_) ctrl_->fail_node(e.node);
        record(e.kind, at, e.node);
        break;
      case FaultEvent::Kind::kFalseEmpty:
        // Frame level: losses happen on the air, before the result exists,
        // so the loss is recorded even if the bin was silent.
        if (ctrl_) {
          ctrl_->suppress_next_query();
          record(e.kind, at);
        }
        break;
      default:
        break;  // result rewrites happen in apply_after
    }
  }
  return due;
}

group::BinQueryResult FaultyChannel::apply_after(
    group::BinQueryResult r, QueryCount at, std::span<const FaultEvent> due) {
  // Sequential application: a lost reply plus interference legitimately
  // reads as spurious activity.
  for (const auto& e : due) {
    switch (e.kind) {
      case FaultEvent::Kind::kFalseEmpty:
        if (!ctrl_ && r.nonempty()) {
          record(e.kind, at);
          r = group::BinQueryResult::empty();
        }
        break;
      case FaultEvent::Kind::kCaptureDowngrade:
        if (r.kind == group::BinQueryResult::Kind::kCaptured) {
          // The node actually captured in *this* run, which may differ from
          // a replayed trace's recorded one on a different stack.
          record(e.kind, at, r.captured);
          r = group::BinQueryResult::activity();
        }
        break;
      case FaultEvent::Kind::kSpuriousActivity:
        if (r.kind == group::BinQueryResult::Kind::kEmpty) {
          record(e.kind, at);
          r = group::BinQueryResult::activity();
        }
        break;
      default:
        break;  // crash/reboot happen in apply_before
    }
  }
  return r;
}

bool FaultyChannel::holds_crashed(std::span<const NodeId> nodes) const {
  // Frame level: a crashed mote's radio is off — the inner channel
  // enforces its silence, no filtering.
  return !ctrl_ && crashed_count_ > 0 &&
         std::any_of(nodes.begin(), nodes.end(),
                     [this](NodeId id) { return is_crashed(id); });
}

group::BinQueryResult FaultyChannel::query_alive(
    std::span<const NodeId> nodes) {
  std::vector<NodeId> alive;
  alive.reserve(nodes.size());
  for (const NodeId id : nodes)
    if (!is_crashed(id)) alive.push_back(id);
  return inner_->query_set(alive);
}

group::BinQueryResult FaultyChannel::do_query_bin(
    const group::BinAssignment& a, std::size_t idx) {
  const QueryCount at = queries_used() - 1;  // base class already counted us
  const auto due = apply_before(at);
  const auto bin = a.bin(idx);
  const auto r =
      holds_crashed(bin) ? query_alive(bin) : inner_->query_bin(a, idx);
  return apply_after(r, at, due);
}

group::BinQueryResult FaultyChannel::do_query_set(
    std::span<const NodeId> nodes) {
  const QueryCount at = queries_used() - 1;
  const auto due = apply_before(at);
  const auto r =
      holds_crashed(nodes) ? query_alive(nodes) : inner_->query_set(nodes);
  return apply_after(r, at, due);
}

}  // namespace tcast::faults
