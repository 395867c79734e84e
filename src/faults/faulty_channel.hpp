// FaultyChannel: the deterministic fault-injecting QueryChannel decorator.
//
// Wraps any channel and injects faults into it, either drawn live from a
// FaultPlan or replayed verbatim from a FaultTrace. The two modes differ
// only in where a query's due events come from:
//
//   - plan: drawn from the plan's private fault stream, before the query,
//     in a fixed order — due reboots, the crash draw (a uniformly-random
//     alive participant), the loss-process draw (i.i.d. or Gilbert–
//     Elliott), the capture-downgrade draw, the spurious-activity draw.
//     The RNG consumption per query is independent of the result, so every
//     run of the same plan is bit-identical;
//   - trace: the trace's events at this query index, consuming no RNG, so
//     the inner channel's own randomness is untouched and a replay is
//     bit-identical to the recording run on the same stack.
//
// Every query then takes one path:
//
//   1. apply_before — reboots and crashes update the crash bookkeeping;
//      a false-empty at the frame level deafens the initiator;
//   2. the query resolves against the inner channel with crashed nodes'
//      replies suppressed (they are filtered out of the queried set — a
//      crashed mote is silent, whatever its sensor holds);
//   3. apply_after — in event order, a false-empty turns a non-empty
//      result into silence (the HACK-loss mechanism of Fig. 4), a
//      downgrade turns a capture into activity (lone-reply decode failure,
//      recording the node actually captured), and a spurious event turns
//      silence into activity (foreign energy in the vote window).
//
// Every injected fault is recorded; `trace()` returns the record, which is
// itself a replay input. The decorator declares itself lossy() whenever
// the plan can misreport (or the replayed trace was recorded lossy), which
// is what trips the round engine's soundness gate and enables its retry
// policies.
//
// Frame-level fault determinism: when the inner channel exposes a
// ChannelFaultControl (the packet tier does), crash/reboot and loss faults
// are pushed *below* the query layer instead of being simulated by result
// rewriting — a crashed mote's radio powers off on the sim clock
// mid-exchange (it hears the poll, then dies before its reply turnaround),
// a reboot powers it back on, and a loss fault deafens the initiator for
// one query's exchange. The same plan therefore drives identical fault
// schedules on the exact and packet tiers. One semantic difference:
// frame-level false-empty is recorded unconditionally (the injector cannot
// know whether the bin would have been silent anyway), while the
// query-layer path records it only when it actually flipped a non-empty
// result.
//
// Crash and reboot events name participants only: replayed events naming
// any other node are skipped, neither applied nor recorded, as are events
// at already-passed query indexes.
//
// The oracle hook forwards, so instrumented/checked layers above keep their
// ground-truth view; ground truth is *not* consulted for injection — all
// faults are functions of (plan or trace, query index, result) only.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "faults/fault_trace.hpp"
#include "group/query_channel.hpp"

namespace tcast::faults {

class FaultyChannel final : public group::QueryChannel {
 public:
  /// Live injection. `participants` is the crashable universe (usually
  /// inner.all_nodes()). All fault randomness derives from plan.seed —
  /// `inner`'s own RNG is untouched.
  FaultyChannel(group::QueryChannel& inner,
                std::span<const NodeId> participants, FaultPlan plan);

  /// Replay. Events are injected in at_query order (ties keep trace
  /// order). The trace is copied; `inner` must outlive the channel.
  FaultyChannel(group::QueryChannel& inner,
                std::span<const NodeId> participants, FaultTrace trace);

  /// The events injected so far plus the lossy() claim.
  FaultTrace trace() const { return {injected_, lossy()}; }

  std::size_t crashed_count() const { return crashed_count_; }
  bool is_crashed(NodeId id) const {
    const auto idx = static_cast<std::size_t>(id);
    return idx < crashed_.size() && crashed_[idx];
  }

  bool lossy() const override { return lossy_ || inner_->lossy(); }

  std::optional<std::size_t> oracle_positive_count(
      std::span<const NodeId> nodes) const override {
    return inner_->oracle_positive_count(nodes);
  }

 protected:
  void do_announce(const group::BinAssignment& a) override {
    inner_->announce(a);
  }
  group::BinQueryResult do_query_bin(const group::BinAssignment& a,
                                     std::size_t idx) override;
  group::BinQueryResult do_query_set(std::span<const NodeId> nodes) override;

 private:
  FaultyChannel(group::QueryChannel& inner,
                std::span<const NodeId> participants, FaultPlan plan,
                bool lossy, std::vector<FaultEvent> schedule, bool replay);

  /// The events due at query `at`: drawn from the plan, or the trace's
  /// slice for `at`.
  std::span<const FaultEvent> due_events(QueryCount at);
  /// Plan mode: fills drawn_ with this query's events.
  void draw(QueryCount at);
  /// True when the loss process fires for this query (chain stepped first).
  bool loss_draw();
  /// Step 1 above; returns this query's due events for apply_after.
  std::span<const FaultEvent> apply_before(QueryCount at);
  /// Step 3 above.
  group::BinQueryResult apply_after(group::BinQueryResult r, QueryCount at,
                                    std::span<const FaultEvent> due);
  /// Query-layer crash semantics: does `nodes` hold a crashed mote?
  bool holds_crashed(std::span<const NodeId> nodes) const;
  /// `nodes` with crashed motes filtered out, queried on the inner channel.
  group::BinQueryResult query_alive(std::span<const NodeId> nodes);
  void record(FaultEvent::Kind kind, QueryCount at, NodeId node = kNoNode) {
    injected_.push_back({kind, at, node});
  }

  group::QueryChannel* inner_;
  group::ChannelFaultControl* ctrl_ = nullptr;  ///< non-null ⇒ frame level
  FaultPlan plan_;
  RngStream rng_;
  bool lossy_;
  bool replay_;
  std::vector<FaultEvent> schedule_;  ///< replay: trace events by at_query
  std::size_t cursor_ = 0;            ///< replay: first event not yet due
  std::vector<FaultEvent> drawn_;     ///< plan: this query's events
  std::vector<FaultEvent> injected_;

  std::vector<NodeId> participants_;
  std::vector<char> participant_;       ///< indexed by NodeId
  std::vector<char> crashed_;           ///< indexed by NodeId
  std::vector<QueryCount> reboot_due_;  ///< plan: reboot at this query
  std::size_t crashed_count_ = 0;
  bool ge_bad_ = false;                 ///< Gilbert–Elliott state
};

}  // namespace tcast::faults
