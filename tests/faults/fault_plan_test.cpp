// FaultPlan: spec parsing, canonical round-trips, and the loss-process
// arithmetic the degradation envelope is built on.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/rng.hpp"
#include "faults/fault_plan.hpp"

namespace tcast::faults {
namespace {

TEST(FaultPlan, DefaultPlanIsClean) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.lossy());
  EXPECT_EQ(plan.marginal_loss(), 0.0);
  EXPECT_EQ(plan.burst_loss(), 0.0);
  EXPECT_EQ(plan.spec(), "seed=1");
}

TEST(FaultPlan, EmptySpecParsesToDefault) {
  const auto plan = FaultPlan::parse("");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(*plan, FaultPlan{});
}

TEST(FaultPlan, ParsesIidSpec) {
  const auto plan = FaultPlan::parse("iid=0.05,downgrade=0.1,seed=7");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->process, FaultPlan::LossProcess::kIid);
  EXPECT_DOUBLE_EQ(plan->loss, 0.05);
  EXPECT_DOUBLE_EQ(plan->capture_downgrade, 0.1);
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_TRUE(plan->lossy());
}

TEST(FaultPlan, ParsesGilbertElliottSpec) {
  const auto plan =
      FaultPlan::parse("ge=0.02:0.25:0:0.7,crash=0.005,reboot=50,seed=3");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->process, FaultPlan::LossProcess::kGilbertElliott);
  EXPECT_DOUBLE_EQ(plan->ge_enter_bad, 0.02);
  EXPECT_DOUBLE_EQ(plan->ge_exit_bad, 0.25);
  EXPECT_DOUBLE_EQ(plan->ge_loss_good, 0.0);
  EXPECT_DOUBLE_EQ(plan->ge_loss_bad, 0.7);
  EXPECT_DOUBLE_EQ(plan->crash_rate, 0.005);
  EXPECT_EQ(plan->reboot_after, 50u);
  EXPECT_EQ(plan->seed, 3u);
}

TEST(FaultPlan, SpecRoundTripsExactly) {
  const char* specs[] = {
      "seed=1",
      "iid=0.05,seed=7",
      "ge=0.02:0.25:0:0.7,seed=3",
      "iid=0.1,downgrade=0.2,spurious=0.01,crash=0.005,reboot=40,seed=9",
      "spurious=0.3,seed=2",
  };
  for (const char* text : specs) {
    const auto plan = FaultPlan::parse(text);
    ASSERT_TRUE(plan.has_value()) << text;
    const auto again = FaultPlan::parse(plan->spec());
    ASSERT_TRUE(again.has_value()) << plan->spec();
    EXPECT_EQ(*again, *plan) << text << " vs " << plan->spec();
  }
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  const char* bad[] = {
      "iid",              // no value
      "iid=",             // empty value
      "iid=1.5",          // out of range
      "iid=0.05junk",     // trailing garbage
      "ge=0.1:0.2:0.3",   // only three fields
      "ge=0.1:0.2:0.3:2", // out-of-range field
      "downgrade=-0.1",   // negative probability
      "reboot=x",         // not an integer
      "seed=12x",         // trailing garbage
      "bogus=1",          // unknown key
      "iid=0.1,,seed=2",  // empty token
  };
  for (const char* text : bad)
    EXPECT_FALSE(FaultPlan::parse(text).has_value()) << text;
  // The shared number grammar: no sign, whitespace, hex, non-finite value
  // or overflow in any numeric field (1e1 and -1 are out of [0, 1] in the
  // probability fields, and not integers in reboot/seed).
  const std::pair<const char*, const char*> fields[] = {
      {"iid=", ""},           {"ge=", ":0.25:0:0.7"}, {"ge=0.02:", ":0:0.7"},
      {"ge=0.02:0.25:0:", ""}, {"downgrade=", ""},     {"spurious=", ""},
      {"crash=", ""},         {"reboot=", ""},        {"seed=", ""}};
  for (const char* token : {"-1", "+5", " 5", "12abc", "0x1p-2", "1e1", "inf",
                            "nan", "18446744073709551616"}) {
    for (const auto& [prefix, suffix] : fields) {
      const std::string text = std::string(prefix) + token + suffix;
      EXPECT_FALSE(FaultPlan::parse(text).has_value()) << text;
    }
  }
}

TEST(FaultPlan, ToSpecFuzzRoundTripsRandomPlans) {
  // parse(to_spec(p)) == p must hold for *programmatically built* plans
  // too, whose probabilities are raw uniform01 doubles with no short
  // decimal form — the chaos campaign grid builds exactly such plans.
  RngStream rng(0xF00D, 0);
  for (int trial = 0; trial < 500; ++trial) {
    FaultPlan plan;
    switch (rng.uniform_below(3)) {
      case 0:
        break;  // kNone
      case 1:
        plan.process = FaultPlan::LossProcess::kIid;
        plan.loss = rng.uniform01();
        break;
      default:
        plan.process = FaultPlan::LossProcess::kGilbertElliott;
        plan.ge_enter_bad = rng.uniform01();
        plan.ge_exit_bad = rng.uniform01();
        plan.ge_loss_good = rng.uniform01();
        plan.ge_loss_bad = rng.uniform01();
        break;
    }
    if (rng.bernoulli(0.5)) plan.capture_downgrade = rng.uniform01();
    if (rng.bernoulli(0.5)) plan.spurious_activity = rng.uniform01();
    if (rng.bernoulli(0.5)) {
      plan.crash_rate = rng.uniform01();
      plan.reboot_after = static_cast<std::size_t>(rng.uniform_below(100));
    }
    plan.seed = rng.bits();
    const auto back = FaultPlan::parse(plan.to_spec());
    ASSERT_TRUE(back.has_value()) << plan.to_spec();
    EXPECT_EQ(*back, plan) << plan.to_spec();
  }
}

TEST(FaultPlan, IidMarginalEqualsBurst) {
  auto plan = *FaultPlan::parse("iid=0.07");
  EXPECT_DOUBLE_EQ(plan.marginal_loss(), 0.07);
  EXPECT_DOUBLE_EQ(plan.burst_loss(), 0.07);
}

TEST(FaultPlan, GilbertElliottMarginalIsStationaryMix) {
  const auto plan = *FaultPlan::parse("ge=0.02:0.25:0:0.7");
  // pi_bad = 0.02 / (0.02 + 0.25); marginal = pi_bad * 0.7.
  const double pi_bad = 0.02 / 0.27;
  EXPECT_NEAR(plan.marginal_loss(), pi_bad * 0.7, 1e-12);
}

TEST(FaultPlan, GilbertElliottBurstIsWorstStateNextLoss) {
  const auto plan = *FaultPlan::parse("ge=0.02:0.25:0:0.7");
  // From bad: stay (0.75) and lose at 0.7 — the dominating branch.
  EXPECT_NEAR(plan.burst_loss(), 0.75 * 0.7, 1e-12);
  // Bursts make consecutive losses far likelier than the marginal rate.
  EXPECT_GT(plan.burst_loss(), 5.0 * plan.marginal_loss());
}

TEST(FaultPlan, FrozenChainStaysInGoodState) {
  const auto plan = *FaultPlan::parse("ge=0:0:0.1:0.9");
  EXPECT_DOUBLE_EQ(plan.marginal_loss(), 0.1);
}

}  // namespace
}  // namespace tcast::faults
