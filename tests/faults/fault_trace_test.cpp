// FaultTrace: spec round-trip, parse rejection (including a seeded
// mutation fuzz: every mutant is a typed rejection or a round trip), and
// recording from a FaultyChannel run.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "../common/spec_mutator.hpp"
#include "faults/fault_trace.hpp"
#include "faults/faulty_channel.hpp"
#include "group/exact_channel.hpp"

namespace tcast::faults {
namespace {

TEST(FaultTrace, SpecRoundTripsExactly) {
  const char* specs[] = {
      "lossy=0",
      "lossy=1",
      "lossy=1,3:fe,10:cr:2,15:rb:2",
      "lossy=0,0:sp,1:dg,2:dg:7,9:fe",
      "lossy=1,100:cr:0,100:rb:0",
  };
  for (const char* spec : specs) {
    const auto trace = FaultTrace::parse(spec);
    ASSERT_TRUE(trace.has_value()) << spec;
    EXPECT_EQ(trace->to_spec(), spec);
    EXPECT_EQ(FaultTrace::parse(trace->to_spec()), trace);
  }
}

TEST(FaultTrace, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",
      "3:fe",             // missing lossy header
      "lossy=2",          // bad lossy value
      "lossy=1,fe",       // missing query index
      "lossy=1,3:xx",     // unknown kind
      "lossy=1,3:cr",     // crash without node
      "lossy=1,3:rb",     // reboot without node
      "lossy=1,3:fe:2",   // false-empty with node
      "lossy=1,3:sp:2",   // spurious with node
      "lossy=1,a:fe",     // non-numeric index
      "lossy=1,3:cr:x",   // non-numeric node
      "lossy=1,3:cr:1:2", // too many fields
  };
  for (const char* spec : bad)
    EXPECT_FALSE(FaultTrace::parse(spec).has_value()) << spec;
  const std::pair<const char*, const char*> fields[] = {
      {"lossy=1,", ":fe"}, {"lossy=1,3:cr:", ""}, {"lossy=", ""}};
  for (const char* token : {"-1", "+5", " 5", "12abc", "0x1p-2", "1e1", "inf",
                            "nan", "18446744073709551616"}) {
    for (const auto& [prefix, suffix] : fields) {
      const std::string text = std::string(prefix) + token + suffix;
      EXPECT_FALSE(FaultTrace::parse(text).has_value()) << text;
    }
  }
  // A node id must fit NodeId and not be the kNoNode sentinel.
  EXPECT_FALSE(FaultTrace::parse("lossy=1,3:cr:4294967295").has_value());
  EXPECT_FALSE(FaultTrace::parse("lossy=1,3:cr:4294967296").has_value());
}

TEST(FaultTrace, MutatedSpecsParseToRoundTripsOrTypedErrors) {
  // Every mutant of a valid spec either parses to a trace that round-trips
  // or is rejected with nullopt — never an abort or an accepted value
  // whose canonical spec reads back differently.
  const std::vector<std::string> seeds = {
      "lossy=0",
      "lossy=1,3:fe,10:cr:2,15:rb:2",
      "lossy=0,0:sp,1:dg,2:dg:7,9:fe",
      "lossy=1,100:cr:0,100:rb:0",
      "lossy=1,0:dg:4294967294",
  };
  RngStream rng(0x5EED7ACE, 0);
  std::size_t accepted = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto text = testing::mutate_spec(seeds, "lossy=01:,fedgsprcb9", ',',
                                           rng);
    const auto trace = FaultTrace::parse(text);
    if (!trace) continue;
    ++accepted;
    const auto back = FaultTrace::parse(trace->to_spec());
    ASSERT_TRUE(back.has_value()) << text;
    ASSERT_EQ(*back, *trace) << text;
  }
  EXPECT_GT(accepted, 1000u);  // the mutants must reach the accept path
}

TEST(FaultTrace, EventOrderAndNodesSurviveRoundTrip) {
  FaultTrace trace;
  trace.lossy = true;
  trace.events.push_back({FaultEvent::Kind::kCrash, 4, NodeId{3}});
  trace.events.push_back({FaultEvent::Kind::kFalseEmpty, 4, kNoNode});
  trace.events.push_back({FaultEvent::Kind::kReboot, 9, NodeId{3}});
  const auto back = FaultTrace::parse(trace.to_spec());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, trace);
}

TEST(FaultTrace, RecordSnapshotsTheFaultLog) {
  RngStream rng(1, 0);
  group::ExactChannel exact({true, true, true}, rng);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, *FaultPlan::parse("iid=1"));
  faulty.query_set(nodes);
  faulty.query_set(nodes);
  const auto trace = faulty.trace();
  EXPECT_TRUE(trace.lossy);
  EXPECT_EQ(trace.count(FaultEvent::Kind::kFalseEmpty), 2u);
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.to_spec(), "lossy=1,0:fe,1:fe");
}

TEST(FaultTrace, RecordOfCleanRunIsEmptyAndNotLossy) {
  RngStream rng(1, 0);
  group::ExactChannel exact({true}, rng);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, FaultPlan{});
  faulty.query_set(nodes);
  const auto trace = faulty.trace();
  EXPECT_FALSE(trace.lossy);
  EXPECT_TRUE(trace.events.empty());
  EXPECT_EQ(trace.to_spec(), "lossy=0");
}

}  // namespace
}  // namespace tcast::faults
