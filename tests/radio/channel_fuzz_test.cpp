// Randomised property test of the collision-cluster channel: fire random
// transmission patterns from many radios — at infinite range and at a
// finite unit-disk range, while radios are destroyed (some mid-frame) and
// new ones attached mid-run — and check every delivery and activity
// indication against an independent busy-period oracle built from the
// frames' air intervals and unit-disk audibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "radio/channel.hpp"
#include "radio/radio.hpp"
#include "sim/simulator.hpp"

namespace tcast::radio {
namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// One radio over its lifetime (a re-attached radio is a new identity).
struct Life {
  double x = 0.0;
  double y = 0.0;
  std::size_t attach_op = 0;  ///< traffic-loop op index at attach
  SimTime detached = kNever;  ///< sim time of its destruction
};

/// What was put on the air, with its interval and the op that launched it.
struct AirFrame {
  std::size_t sender;
  std::size_t op;
  SimTime start, end;
};

struct Delivery {
  std::size_t frame;
  RxInfo info;
};

/// A receiver's busy period as the oracle derives it.
struct Period {
  SimTime start, end;
  std::vector<std::size_t> frames;
  bool sent_own = false;  ///< the receiver transmitted during the period
};

std::uint16_t frame_id(const Frame& f) {
  return static_cast<std::uint16_t>(f.data[0] | f.data[1] << 8);
}

void fuzz_against_oracle(std::uint64_t seed, double range) {
  sim::Simulator sim(seed);
  ChannelConfig cfg;
  cfg.capture = std::make_shared<GeometricCaptureModel>(1.0, 0.5);
  cfg.range = range;
  Channel channel(sim, cfg);
  RngStream rng(seed * 7 + 1);

  std::vector<Life> lives;
  std::vector<std::vector<Delivery>> received;
  std::vector<std::vector<std::pair<SimTime, SimTime>>> activities;
  std::vector<std::pair<std::size_t, std::unique_ptr<Radio>>> alive;
  std::vector<AirFrame> air;
  std::size_t op = 0;

  const auto attach = [&] {
    const std::size_t id = lives.size();
    lives.push_back({static_cast<double>(rng.uniform_below(30)),
                     static_cast<double>(rng.uniform_below(30)), op++});
    received.emplace_back();
    activities.emplace_back();
    auto r = std::make_unique<Radio>(channel, static_cast<NodeId>(id),
                                     static_cast<ShortAddr>(100 + id));
    r->set_position(lives[id].x, lives[id].y);
    r->power_on();
    r->set_auto_ack(false);
    r->set_receive_handler([&received, id](const Frame& f, const RxInfo& i) {
      received[id].push_back({frame_id(f), i});
    });
    r->set_activity_handler([&activities, id](SimTime s, SimTime e) {
      activities[id].emplace_back(s, e);
    });
    alive.emplace_back(id, std::move(r));
  };
  for (int i = 0; i < 8; ++i) attach();

  for (int burst = 0; burst < 160; ++burst) {
    // Random gap, churn, then 1-3 radios transmit at staggered offsets.
    sim.run_until(sim.now() +
                  static_cast<SimTime>(rng.uniform_below(4000)) + 1);
    if (alive.size() > 3 && rng.bernoulli(0.12)) {
      // Possibly mid-frame, as sender or as listener.
      const auto victim = rng.uniform_below(alive.size());
      lives[alive[victim].first].detached = sim.now();
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    if (rng.bernoulli(0.12)) attach();
    const auto senders = 1 + rng.uniform_below(3);
    for (std::uint64_t s = 0; s < senders; ++s) {
      auto& [who, radio] = alive[rng.uniform_below(alive.size())];
      if (radio->transmitting()) continue;
      Frame f;
      f.type = FrameType::kData;
      f.src = static_cast<ShortAddr>(100 + who);
      f.data.resize(8 + rng.uniform_below(24));
      f.data[0] = static_cast<std::uint8_t>(air.size());
      f.data[1] = static_cast<std::uint8_t>(air.size() >> 8);
      const SimTime start = sim.now();
      air.push_back({who, op++, start, start + channel.airtime(f)});
      radio->transmit(std::move(f));
      if (rng.bernoulli(0.5))
        sim.run_until(sim.now() +
                      static_cast<SimTime>(rng.uniform_below(300)));
    }
  }
  sim.run();
  EXPECT_EQ(channel.air_log_size(), 0u);  // idle channel: log trimmed

  const auto audible = [&](const AirFrame& a, std::size_t r) {
    if (range <= 0.0) return true;
    const double dx = lives[a.sender].x - lives[r].x;
    const double dy = lives[a.sender].y - lives[r].y;
    return dx * dx + dy * dy <= range * range;
  };
  std::size_t checked_periods = 0;
  for (std::size_t r = 0; r < lives.size(); ++r) {
    // The receiver's busy periods: chains of overlapping audible foreign
    // frames launched after it attached. Overlap is strict: the traffic loop
    // launches frames only between run_until calls, which run every event
    // due by then, so a frame starting as another ends opens a new period,
    // and an own frame ending as a period starts has already ended.
    std::vector<std::size_t> heard;
    for (std::size_t i = 0; i < air.size(); ++i)
      if (air[i].sender != r && air[i].op > lives[r].attach_op &&
          audible(air[i], r))
        heard.push_back(i);
    std::stable_sort(heard.begin(), heard.end(), [&](auto a, auto b) {
      return air[a].start < air[b].start;
    });
    std::vector<Period> periods;
    for (const std::size_t i : heard) {
      if (!periods.empty() && air[i].start < periods.back().end) {
        Period& p = periods.back();
        p.end = std::max(p.end, air[i].end);
        p.frames.push_back(i);
      } else {
        periods.push_back({air[i].start, air[i].end, {i}});
      }
    }
    for (Period& p : periods)
      for (const AirFrame& a : air)
        if (a.sender == r && a.op > lives[r].attach_op)
          p.sent_own |= a.start < p.end && p.start < a.end;

    // Every delivery came from one of its periods, heard by unit disk.
    for (const Delivery& d : received[r]) {
      ASSERT_LT(d.frame, air.size());
      const AirFrame& a = air[d.frame];
      EXPECT_NE(a.sender, r);
      EXPECT_GT(a.op, lives[r].attach_op);
      EXPECT_TRUE(audible(a, r)) << "receiver " << r << " frame " << d.frame;
      if (d.info.captured) {
        EXPECT_GT(d.info.contenders, 1u);
      }
      const auto p = std::find_if(periods.begin(), periods.end(),
                                  [&](const Period& q) {
                                    return std::count(q.frames.begin(),
                                                      q.frames.end(),
                                                      d.frame) > 0;
                                  });
      ASSERT_NE(p, periods.end());
      EXPECT_FALSE(p->sent_own);
      EXPECT_EQ(d.info.start, p->start);
      EXPECT_EQ(d.info.end, p->end);
      EXPECT_EQ(d.info.contenders, p->frames.size());
      EXPECT_EQ(d.info.captured, p->frames.size() > 1);
    }

    // Every complete period at a live listener raised one activity
    // indication; a lone frame with no own transmission was delivered
    // exactly once (no loss configured), a collision at most once.
    for (const Period& p : periods) {
      if (p.sent_own || lives[r].detached < p.end) continue;
      ++checked_periods;
      EXPECT_EQ(std::count(activities[r].begin(), activities[r].end(),
                           std::pair{p.start, p.end}),
                1)
          << "receiver " << r << " period at " << p.start;
      const auto copies = std::count_if(
          received[r].begin(), received[r].end(), [&](const Delivery& d) {
            return std::count(p.frames.begin(), p.frames.end(), d.frame) > 0;
          });
      if (p.frames.size() == 1)
        EXPECT_EQ(copies, 1) << "receiver " << r << " frame " << p.frames[0];
      else
        EXPECT_LE(copies, 1);
    }
    EXPECT_GE(activities[r].size(), received[r].size());
  }
  EXPECT_GT(checked_periods, 100u);  // the oracle actually judged traffic
}

class ChannelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelFuzz, DeliveryInvariantsHoldUnderRandomTraffic) {
  fuzz_against_oracle(GetParam(), 0.0);  // infinite range: one domain
}

TEST_P(ChannelFuzz, UnitDiskDeliveriesMatchTheOracle) {
  fuzz_against_oracle(GetParam(), 12.0);  // 30 m square: hidden terminals
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelFuzz,
                         ::testing::Values(3, 7, 11, 19, 23, 31));

}  // namespace
}  // namespace tcast::radio
