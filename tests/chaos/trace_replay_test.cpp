// Record/replay fidelity: the tentpole guarantee that a FaultTrace
// recorded from a live FaultyChannel run replays bit-identically through a
// FaultyChannel built from it — same outcome, query count, re-recorded
// trace, and next raw RNG word — on the exact tier, on the packet tier
// (where the same trace drives frame-level crash/reboot/loss), and across
// tiers for crash schedules.
#include <gtest/gtest.h>

#include "chaos/chaos_engine.hpp"
#include "group/packet_channel.hpp"

namespace tcast::chaos {
namespace {

void expect_bit_identical(const SessionReport& live,
                          const SessionReport& replay) {
  EXPECT_EQ(live.outcome.decision, replay.outcome.decision);
  EXPECT_EQ(live.outcome.queries, replay.outcome.queries);
  EXPECT_EQ(live.outcome.rounds, replay.outcome.rounds);
  EXPECT_EQ(live.outcome.confirmed_positives,
            replay.outcome.confirmed_positives);
  EXPECT_EQ(live.outcome.remaining_candidates,
            replay.outcome.remaining_candidates);
  // The replayed channel re-records every injected fault; a faithful
  // replay reproduces the recorded schedule exactly.
  EXPECT_EQ(live.trace, replay.trace);
  // And consumes the identical RNG draw sequences.
  EXPECT_EQ(live.algo_rng_probe, replay.algo_rng_probe);
  EXPECT_EQ(live.channel_rng_probe, replay.channel_rng_probe);
}

TEST(TraceReplay, ExactTierReplaysBitIdentically) {
  ChaosScenario sc;
  sc.algorithm = "2tbins";
  sc.n = 24;
  sc.x = 8;
  sc.t = 8;
  sc.model = group::CollisionModel::kTwoPlus;
  sc.tier = Tier::kExact;
  sc.seed = 5;
  sc.plan = *faults::FaultPlan::parse(
      "ge=0.05:0.2:0:0.8,downgrade=0.2,crash=0.02,reboot=5,seed=21");
  const auto live = run_session(sc);
  EXPECT_FALSE(live.trace.events.empty());  // faults must actually fire
  const auto replay = replay_session(sc, live.trace);
  expect_bit_identical(live, replay);
}

TEST(TraceReplay, ExactTierReplayHoldsAcrossAlgorithms) {
  for (const char* algo : {"expinc", "abns:t", "prob-abns"}) {
    ChaosScenario sc;
    sc.algorithm = algo;
    sc.n = 20;
    sc.x = 9;
    sc.t = 6;
    sc.model = group::CollisionModel::kOnePlus;
    sc.tier = Tier::kExact;
    sc.seed = 11;
    sc.plan = *faults::FaultPlan::parse("iid=0.2,crash=0.03,seed=4");
    const auto live = run_session(sc);
    const auto replay = replay_session(sc, live.trace);
    expect_bit_identical(live, replay);
  }
}

TEST(TraceReplay, PacketTierReplaysBitIdentically) {
  // Frame-level fault determinism: crash/reboot power radios off/on on the
  // sim clock and loss deafens the initiator, yet the recorded trace must
  // replay the identical schedule and verdict through the same stack.
  ChaosScenario sc;
  sc.algorithm = "2tbins";
  sc.n = 6;
  sc.x = 3;
  sc.t = 2;
  sc.model = group::CollisionModel::kOnePlus;
  sc.tier = Tier::kPacket;
  sc.seed = 9;
  sc.plan =
      *faults::FaultPlan::parse("iid=0.25,crash=0.05,reboot=3,seed=6");
  const auto live = run_session(sc);
  // Seed chosen so all three frame-level fault kinds fire: a crash, a
  // false-empty, and a reboot of the crashed mote.
  EXPECT_FALSE(live.trace.events.empty());
  const auto replay = replay_session(sc, live.trace);
  expect_bit_identical(live, replay);
}

TEST(TraceReplay, CrashTraceReplaysIdenticalVerdictAcrossTiers) {
  // A crash/reboot schedule recorded on the exact tier must produce the
  // identical verdict when the same trace replays on the packet tier —
  // there the crash is a radio powering off mid-exchange, not a filtered
  // query set. (1+ model: no capture identities to diverge.)
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ChaosScenario sc;
    sc.algorithm = "2tbins";
    sc.n = 7;
    sc.x = 4;
    sc.t = 3;
    sc.model = group::CollisionModel::kOnePlus;
    sc.tier = Tier::kExact;
    sc.seed = seed;
    sc.plan = *faults::FaultPlan::parse("crash=0.1,reboot=4,seed=2");
    const auto live = run_session(sc);
    const auto exact_replay = replay_session(sc, live.trace);
    ChaosScenario packet_sc = sc;
    packet_sc.tier = Tier::kPacket;
    const auto packet_replay = replay_session(packet_sc, live.trace);
    EXPECT_EQ(exact_replay.outcome.decision,
              packet_replay.outcome.decision)
        << "seed " << seed;
    EXPECT_EQ(exact_replay.outcome.queries, packet_replay.outcome.queries)
        << "seed " << seed;
    EXPECT_EQ(exact_replay.trace, packet_replay.trace) << "seed " << seed;
  }
}

TEST(TraceReplay, FrameLevelCrashKillsMoteMidExchange) {
  // Direct packet-tier check of the mid-backcast death: the mote receives
  // the poll (its radio is on when the frame lands) but powers off half a
  // turnaround before its reply would fire, so the initiator hears
  // silence and the radio is verifiably down afterwards.
  std::vector<bool> positive = {true, true};
  group::PacketChannel::Config cfg;
  cfg.seed = 3;
  group::PacketChannel packet(positive, cfg);
  const auto nodes = packet.all_nodes();
  ASSERT_NE(packet.fault_control(), nullptr);
  EXPECT_TRUE(packet.query_set(nodes).nonempty());
  packet.fail_node(0);
  packet.fail_node(1);
  EXPECT_FALSE(packet.node_is_down(0));  // death is armed, not instant
  const auto r = packet.query_set(nodes);
  EXPECT_EQ(r.kind, group::BinQueryResult::Kind::kEmpty);
  EXPECT_TRUE(packet.node_is_down(0));
  EXPECT_TRUE(packet.node_is_down(1));
  // restore_node powers the motes back on and forces a re-announce.
  packet.fault_control()->restore_node(0);
  EXPECT_FALSE(packet.node_is_down(0));
  EXPECT_TRUE(packet.query_set(nodes).nonempty());
}

TEST(TraceReplay, FrameLevelLossDeafensExactlyOneQuery) {
  std::vector<bool> positive = {true, true, true};
  group::PacketChannel::Config cfg;
  cfg.seed = 4;
  group::PacketChannel packet(positive, cfg);
  const auto nodes = packet.all_nodes();
  packet.fault_control()->suppress_next_query();
  EXPECT_EQ(packet.query_set(nodes).kind,
            group::BinQueryResult::Kind::kEmpty);
  // One-shot: the next query hears the replies again.
  EXPECT_TRUE(packet.query_set(nodes).nonempty());
}

}  // namespace
}  // namespace tcast::chaos
