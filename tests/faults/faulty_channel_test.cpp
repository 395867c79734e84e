// FaultyChannel: per-kind injection mechanics, crash/reboot bookkeeping,
// the Gilbert–Elliott burstiness it was built for, the replay guarantee
// (same plan + same run ⇒ identical FaultTrace and outcome), and replayed
// traces, including events naming nodes outside the run.
#include <gtest/gtest.h>

#include <vector>

#include "core/registry.hpp"
#include "faults/faulty_channel.hpp"
#include "group/exact_channel.hpp"
#include "group/packet_channel.hpp"

namespace tcast::faults {
namespace {

group::ExactChannel make_exact(std::vector<bool> positive, RngStream& rng,
                               group::CollisionModel model =
                                   group::CollisionModel::kOnePlus) {
  group::ExactChannel::Config cfg;
  cfg.model = model;
  return group::ExactChannel(std::move(positive), rng, cfg);
}

TEST(FaultyChannel, CleanPlanIsTransparent) {
  RngStream rng(1, 0);
  auto exact = make_exact({true, false, true, false}, rng);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, FaultPlan{});
  EXPECT_FALSE(faulty.lossy());
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(faulty.query_set(nodes).nonempty());
  EXPECT_TRUE(faulty.trace().events.empty());
  EXPECT_EQ(faulty.queries_used(), 8u);
}

TEST(FaultyChannel, CertainLossReadsNonEmptyBinsAsSilence) {
  RngStream rng(1, 0);
  auto exact = make_exact({true, true, true, true}, rng);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, *FaultPlan::parse("iid=1"));
  EXPECT_TRUE(faulty.lossy());
  const auto r = faulty.query_set(nodes);
  EXPECT_EQ(r.kind, group::BinQueryResult::Kind::kEmpty);
  ASSERT_EQ(faulty.trace().events.size(), 1u);
  EXPECT_EQ(faulty.trace().events.front().kind,
            FaultEvent::Kind::kFalseEmpty);
  EXPECT_EQ(faulty.trace().events.front().at_query, 0u);
}

TEST(FaultyChannel, LossNeverManufacturesActivity) {
  RngStream rng(1, 0);
  auto exact = make_exact({false, false, false}, rng);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, *FaultPlan::parse("iid=1"));
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(faulty.query_set(nodes).kind,
              group::BinQueryResult::Kind::kEmpty);
  // Loss only fires on non-empty results; truly-empty bins log nothing.
  EXPECT_TRUE(faulty.trace().events.empty());
}

TEST(FaultyChannel, DowngradeTurnsCaptureIntoActivity) {
  RngStream rng(1, 0);
  auto exact = make_exact({false, false, true, false}, rng,
                          group::CollisionModel::kTwoPlus);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, *FaultPlan::parse("downgrade=1"));
  const auto r = faulty.query_set(nodes);
  // The lone reply would have captured node 2; the downgrade erases the
  // decode but not the energy.
  EXPECT_EQ(r.kind, group::BinQueryResult::Kind::kActivity);
  ASSERT_EQ(faulty.trace().events.size(), 1u);
  EXPECT_EQ(faulty.trace().events.front().kind,
            FaultEvent::Kind::kCaptureDowngrade);
  EXPECT_EQ(faulty.trace().events.front().node, NodeId{2});
}

TEST(FaultyChannel, SpuriousActivityTurnsSilenceIntoActivity) {
  RngStream rng(1, 0);
  auto exact = make_exact({false, false}, rng);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, *FaultPlan::parse("spurious=1"));
  const auto r = faulty.query_set(nodes);
  EXPECT_EQ(r.kind, group::BinQueryResult::Kind::kActivity);
  EXPECT_EQ(faulty.trace().count(FaultEvent::Kind::kSpuriousActivity), 1u);
}

TEST(FaultyChannel, CrashSilencesTheVictim) {
  RngStream rng(1, 0);
  auto exact = make_exact({true}, rng);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, *FaultPlan::parse("crash=1"));
  // The only node is positive, but the crash fires before the query
  // resolves: a crashed mote is silent whatever its sensor holds.
  EXPECT_EQ(faulty.query_set(nodes).kind,
            group::BinQueryResult::Kind::kEmpty);
  EXPECT_TRUE(faulty.is_crashed(0));
  EXPECT_EQ(faulty.crashed_count(), 1u);
  EXPECT_EQ(faulty.trace().count(FaultEvent::Kind::kCrash), 1u);
}

TEST(FaultyChannel, RebootScheduleFiresAndIsLogged) {
  RngStream rng(1, 0);
  auto exact = make_exact({true}, rng);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, *FaultPlan::parse("crash=1,reboot=2"));
  faulty.query_set(nodes);  // q0: crash, reboot due at q2
  faulty.query_set(nodes);  // q1: still down
  EXPECT_TRUE(faulty.is_crashed(0));
  faulty.query_set(nodes);  // q2: reboot fires (then crash=1 re-crashes)
  EXPECT_EQ(faulty.trace().count(FaultEvent::Kind::kReboot), 1u);
  EXPECT_EQ(faulty.trace().count(FaultEvent::Kind::kCrash), 2u);
}

TEST(FaultyChannel, GilbertElliottLossIsBursty) {
  // Empirical check of the two quantities the envelope bound uses: the
  // long-run loss frequency must match marginal_loss(), and the frequency
  // of loss immediately after a loss must match burst_loss() (with
  // loss_good = 0, a loss proves the chain was in the bad state).
  const auto plan = *FaultPlan::parse("ge=0.02:0.25:0:0.7,seed=11");
  RngStream rng(1, 0);
  auto exact = make_exact({true}, rng);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, plan);

  constexpr int kQueries = 40000;
  int losses = 0, pairs = 0, consecutive = 0;
  bool prev_lost = false;
  for (int i = 0; i < kQueries; ++i) {
    const bool lost = !faulty.query_set(nodes).nonempty();
    if (lost) ++losses;
    if (prev_lost) {
      ++pairs;
      if (lost) ++consecutive;
    }
    prev_lost = lost;
  }
  const double marginal = static_cast<double>(losses) / kQueries;
  const double after_loss = static_cast<double>(consecutive) / pairs;
  EXPECT_NEAR(marginal, plan.marginal_loss(), 0.01);
  EXPECT_NEAR(after_loss, plan.burst_loss(), 0.05);
  EXPECT_GT(after_loss, 4.0 * marginal);  // the burstiness itself
}

core::ThresholdOutcome run_with_plan(const FaultPlan& plan,
                                     FaultTrace* trace) {
  RngStream pos_rng(5, 0);
  std::vector<bool> positive(24, false);
  for (const NodeId id : pos_rng.sample_subset(24, 8))
    positive[static_cast<std::size_t>(id)] = true;
  RngStream channel_rng(5, 1);
  RngStream algo_rng(5, 2);
  group::ExactChannel::Config ecfg;
  ecfg.model = group::CollisionModel::kTwoPlus;
  group::ExactChannel exact(positive, channel_rng, ecfg);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, plan);
  core::EngineOptions opts;
  opts.ordering = core::BinOrdering::kInOrder;
  const auto* spec = core::find_algorithm("2tbins");
  const auto out = spec->run(faulty, nodes, 8, algo_rng, opts);
  if (trace) *trace = faulty.trace();
  return out;
}

TEST(FaultyChannel, SamePlanReplaysIdentically) {
  const auto plan =
      *FaultPlan::parse("ge=0.05:0.2:0:0.8,downgrade=0.2,crash=0.01,seed=21");
  FaultTrace first_log, second_log;
  const auto first = run_with_plan(plan, &first_log);
  const auto second = run_with_plan(plan, &second_log);
  EXPECT_EQ(first_log, second_log);
  EXPECT_FALSE(first_log.events.empty());  // the plan must have fired
  EXPECT_EQ(first.decision, second.decision);
  EXPECT_EQ(first.queries, second.queries);
  EXPECT_EQ(first.rounds, second.rounds);
}

TEST(FaultyChannel, DifferentSeedsDrawDifferentFaults) {
  auto plan =
      *FaultPlan::parse("ge=0.05:0.2:0:0.8,downgrade=0.2,crash=0.01,seed=21");
  FaultTrace a, b;
  run_with_plan(plan, &a);
  plan.seed = 22;
  run_with_plan(plan, &b);
  EXPECT_NE(a, b);
}

TEST(FaultyChannel, RebootFiresExactlyAtRebootAfter) {
  // The reboot must land exactly `reboot_after` queries past the crash —
  // not one early (reboot_due_ <= at is a ==, never a <, for a node that
  // crashed at query c with due c + reboot_after).
  RngStream rng(1, 0);
  auto exact = make_exact({true}, rng);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, *FaultPlan::parse("crash=1,reboot=3"));
  faulty.query_set(nodes);  // q0: crash, reboot due at q3
  faulty.query_set(nodes);  // q1
  faulty.query_set(nodes);  // q2
  EXPECT_EQ(faulty.trace().count(FaultEvent::Kind::kReboot), 0u);
  EXPECT_TRUE(faulty.is_crashed(0));
  faulty.query_set(nodes);  // q3: reboot fires
  const auto trace = faulty.trace();
  ASSERT_EQ(trace.count(FaultEvent::Kind::kReboot), 1u);
  for (const auto& e : trace.events) {
    if (e.kind != FaultEvent::Kind::kReboot) continue;
    EXPECT_EQ(e.at_query, 3u);  // crash at q0 + reboot_after 3
    EXPECT_EQ(e.node, NodeId{0});
  }
}

TEST(FaultyChannel, ReplayedCrashOfJustCapturedNodeSilencesIt) {
  // Boundary: the node captured at query q crashes at query q+1. The
  // capture already confirmed it; the crash must only silence it from
  // later queries, not resurrect or double-count it.
  RngStream rng(1, 0);
  auto exact = make_exact({false, false, true, false}, rng,
                          group::CollisionModel::kTwoPlus);
  const auto nodes = exact.all_nodes();
  const auto trace = *FaultTrace::parse("lossy=1,1:cr:2");
  FaultyChannel traced(exact, nodes, trace);
  const auto first = traced.query_set(nodes);  // q0: lone positive captured
  ASSERT_EQ(first.kind, group::BinQueryResult::Kind::kCaptured);
  EXPECT_EQ(first.captured, NodeId{2});
  const auto second = traced.query_set(nodes);  // q1: node 2 crashes
  EXPECT_EQ(second.kind, group::BinQueryResult::Kind::kEmpty);
  EXPECT_TRUE(traced.is_crashed(2));
  EXPECT_EQ(traced.crashed_count(), 1u);
}

TEST(FaultyChannel, CrashWithOneCandidateRemainingDecidesFalse) {
  // The confirmed + |candidates| < t termination edge: the last candidate
  // crashes, its bin reads silent, the engine disposes it and must answer
  // false with zero candidates left — not loop or claim a positive.
  RngStream channel_rng(1, 1);
  RngStream algo_rng(1, 2);
  auto exact = make_exact({true}, channel_rng);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, *FaultPlan::parse("crash=1"));
  core::EngineOptions opts;
  opts.ordering = core::BinOrdering::kInOrder;
  const auto* spec = core::find_algorithm("2tbins");
  const auto out = spec->run(faulty, nodes, 1, algo_rng, opts);
  EXPECT_FALSE(out.decision);
  EXPECT_EQ(out.remaining_candidates, 0u);
  EXPECT_EQ(out.confirmed_positives, 0u);
}

core::ThresholdOutcome replay_on(group::QueryChannel& channel,
                                 std::span<const NodeId> nodes,
                                 const FaultTrace& trace,
                                 FaultTrace* rerecorded) {
  RngStream algo_rng(3, 2);
  FaultyChannel faulty(channel, nodes, trace);
  core::EngineOptions opts;
  opts.ordering = core::BinOrdering::kInOrder;
  const auto out =
      core::find_algorithm("2tbins")->run(faulty, nodes, 3, algo_rng, opts);
  *rerecorded = faulty.trace();
  return out;
}

TEST(FaultyChannel, ReplaySkipsEventsNamingNodesOutsideTheRun) {
  // Valid specs whose nodes lie outside the run: the injector's state is
  // sized from the participants (not from the largest node id in the
  // trace), a crash of a non-participant is neither applied nor recorded,
  // and a downgrade's recorded node is ignored on replay. On the packet
  // tier the crash would otherwise reach PacketChannel::fail_node with an
  // unknown mote.
  const std::vector<bool> positive = {true, false, true, true,
                                      false, true, false, false};
  for (const char* spec : {"lossy=1,0:dg:4294967294", "lossy=1,0:cr:99"}) {
    const auto trace = *FaultTrace::parse(spec);
    for (const bool packet_tier : {false, true}) {
      SCOPED_TRACE(std::string(spec) + (packet_tier ? " packet" : " exact"));
      FaultTrace rerecorded;
      if (packet_tier) {
        group::PacketChannel::Config cfg;
        cfg.seed = 5;
        group::PacketChannel packet(
            std::vector<bool>(positive.begin(), positive.begin() + 6), cfg);
        const auto out =
            replay_on(packet, packet.all_nodes(), trace, &rerecorded);
        EXPECT_TRUE(out.decision);  // 4 of 6 positive, t = 3
      } else {
        RngStream rng(3, 1);
        auto exact = make_exact(positive, rng);
        const auto out =
            replay_on(exact, exact.all_nodes(), trace, &rerecorded);
        EXPECT_TRUE(out.decision);  // 4 of 8 positive, t = 3
      }
      EXPECT_EQ(rerecorded.count(FaultEvent::Kind::kCrash), 0u);
      for (const auto& e : rerecorded.events)
        EXPECT_NE(e.node, NodeId{4294967294u});
    }
  }
}

}  // namespace
}  // namespace tcast::faults
