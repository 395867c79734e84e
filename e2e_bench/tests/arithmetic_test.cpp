// Tests of the benchmark's own arithmetic: the percentile rule, span self
// time, the metric-name grammar and backlog detection on the rate ladder.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "ladder.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentiles, TailIsHighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile_for(10000), 99.9);  // 10 beyond p99.9
  EXPECT_EQ(tail_percentile_for(9999), 99.0);   // only 9 beyond p99.9
  EXPECT_EQ(tail_percentile_for(1000), 99.0);
  EXPECT_EQ(tail_percentile_for(999), 90.0);
  EXPECT_EQ(tail_percentile_for(100), 90.0);
  EXPECT_EQ(tail_percentile_for(99), 50.0);
  EXPECT_EQ(tail_percentile_for(20), 50.0);
  EXPECT_EQ(tail_percentile_for(19), 0.0);
  EXPECT_EQ(tail_percentile_for(0), 0.0);
}

TEST(Percentiles, SamplesBeyondNearestRank) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(1000, 50.0), 500u);
  EXPECT_EQ(samples_beyond(3, 50.0), 1u);  // rank ceil(1.5) = 2
  EXPECT_EQ(samples_beyond(1, 99.9), 0u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(Percentiles, ReportStatesCountAndValues) {
  std::vector<double> v = one_to(1000);
  std::reverse(v.begin(), v.end());
  const PercentileReport r = report_percentiles(v);
  EXPECT_EQ(r.count, 1000u);
  EXPECT_EQ(r.p50, 500.0);
  EXPECT_EQ(r.tail_pct, 99.0);
  EXPECT_EQ(r.tail, 990.0);  // 10 samples (991..1000) lie beyond it
  EXPECT_EQ(tail_label(r), "p99");
}

TEST(Percentiles, FewSamplesFallBackToMedian) {
  std::vector<double> v = one_to(7);
  const PercentileReport r = report_percentiles(v);
  EXPECT_EQ(r.count, 7u);
  EXPECT_EQ(r.tail_pct, 0.0);
  EXPECT_EQ(r.tail, r.p50);
  EXPECT_EQ(tail_label(r), "p50(n<20)");
  std::vector<double> none;
  EXPECT_EQ(report_percentiles(none).p50, 0.0);
}

TEST(Percentiles, ReservoirKeepsEvenlySpacedBoundedSample) {
  SampleReservoir r(4);
  for (int i = 0; i < 4; ++i) r.add(i);
  EXPECT_EQ(r.kept(), (std::vector<double>{0, 1, 2, 3}));
  r.add(4);  // full: keep 0 and 2, stride 2, then 4
  EXPECT_EQ(r.kept(), (std::vector<double>{0, 2, 4}));
  for (int i = 5; i < 1000; ++i) r.add(i);
  EXPECT_EQ(r.seen(), 1000u);
  EXPECT_LE(r.kept().size(), 4u);
  for (std::size_t i = 1; i < r.kept().size(); ++i)
    EXPECT_EQ(r.kept()[i] - r.kept()[i - 1], r.kept()[1] - r.kept()[0]);
}

TEST(SelfTime, NoChildrenIsWholeSpan) {
  EXPECT_EQ(self_time_ns(100, 200, {}), 100);
}

TEST(SelfTime, DisjointChildren) {
  EXPECT_EQ(self_time_ns(0, 100, {{10, 20}, {50, 70}}), 70);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // [10,40) and [30,60) overlap on [30,40): coverage is [10,60) = 50.
  EXPECT_EQ(self_time_ns(0, 100, {{30, 60}, {10, 40}}), 50);
}

TEST(SelfTime, NestedChildrenCountOnce) {
  // [20,30) lies inside [10,50): coverage is 40.
  EXPECT_EQ(self_time_ns(0, 100, {{10, 50}, {20, 30}}), 60);
}

TEST(SelfTime, ChildrenClippedToParent) {
  EXPECT_EQ(self_time_ns(100, 200, {{50, 120}, {190, 300}}), 70);
  EXPECT_EQ(self_time_ns(100, 200, {{0, 300}}), 0);
  EXPECT_EQ(self_time_ns(100, 200, {{0, 50}}), 100);
}

TEST(SelfTime, TracerTotalsUseDirectChildren) {
  Tracer tracer(64);
  const std::int32_t root = tracer.record("root", 1, 0, 100);
  const std::int32_t child = tracer.record("child", 1, 10, 60, root);
  tracer.record("grandchild", 1, 20, 30, child);
  tracer.record("child", 1, 40, 80, root);  // overlaps the first child
  for (const auto& t : tracer.totals()) {
    if (t.name == "root") {
      EXPECT_EQ(t.self_ns, 30.0);  // 100 - [10,80)
    } else if (t.name == "child") {
      EXPECT_EQ(t.self_ns, 80.0);  // 40 + 40
    } else {
      EXPECT_EQ(t.self_ns, 10.0);  // grandchild
    }
  }
  EXPECT_EQ(tracer.spans().size(), 4u);
}

TEST(SelfTime, ScopesNestOnOneThread) {
  Tracer tracer(64);
  {
    SpanScope outer(&tracer, "outer", 7);
    SpanScope inner(&tracer, "inner", 7);
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[0].id, spans[1].id);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(SelfTime, BudgetStopsRecording) {
  Tracer tracer(2);
  tracer.record("a", 1, 0, 1);
  EXPECT_FALSE(tracer.full());
  tracer.record("b", 1, 0, 1);
  EXPECT_TRUE(tracer.full());
  EXPECT_EQ(tracer.record("c", 1, 0, 1), -1);
  EXPECT_EQ(tracer.spans().size(), 2u);
}

TEST(MetricNames, Grammar) {
  for (const char* ok : {"ops_per_s", "rtt_p50_us.lo", "rcd.hack_miss_rate.k1",
                         "a-b", "9lives", "X"})
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space",
                          "slash/no", "colon:no", "ü"})
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricNames, ResultJsonShape) {
  const std::string s =
      result_json(true, 3, 0, {{"a.b", "us", 1.5}, {"c", "count", 2}});
  EXPECT_EQ(s,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"a.b\": {\"value\": 1.5, \"unit\": \"us\"}, \"c\": {\"value\": "
            "2, \"unit\": \"count\"}}}");
}

TEST(Ladder, StableQueueIsNotABacklog) {
  const std::vector<double> depth = {3, 5, 2, 6, 4, 3, 5, 2, 4, 6};
  EXPECT_FALSE(backlog_growing({depth, 0.02}, 5000));
}

TEST(Ladder, GrowingQueueIsABacklog) {
  // Offered 5000/s, served 4000/s: +1000/s, i.e. +20 per 20 ms sample.
  std::vector<double> depth;
  for (int i = 0; i < 25; ++i) depth.push_back(20.0 * i);
  EXPECT_TRUE(backlog_growing({depth, 0.02}, 5000));
}

TEST(Ladder, SmallDriftBelowThresholdsIsStable) {
  // +2 per sample = +100/s, under 5% of 5000/s.
  std::vector<double> depth;
  for (int i = 0; i < 25; ++i) depth.push_back(2.0 * i);
  EXPECT_FALSE(backlog_growing({depth, 0.02}, 5000));
  // Steep but tiny in absolute terms: the last sample must exceed 16.
  EXPECT_FALSE(backlog_growing({std::vector<double>{0, 5, 10}, 0.02}, 100));
}

TEST(Ladder, SlopeOfLine) {
  const std::vector<double> y = {1, 3, 5, 7};
  EXPECT_DOUBLE_EQ(slope(y, 0.5), 4.0);
  EXPECT_EQ(slope(std::vector<double>{4}, 1.0), 0.0);
}

}  // namespace
}  // namespace e2e
