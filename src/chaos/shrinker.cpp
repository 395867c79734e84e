#include "chaos/shrinker.hpp"

#include <algorithm>
#include <cstddef>

#include "common/check.hpp"

namespace tcast::chaos {
namespace {

/// One ddmin pass over trace.events: returns true when anything was
/// removed. `probes` counts predicate calls.
bool ddmin_events(const ChaosScenario& sc, faults::FaultTrace& trace,
                  const TracePredicate& pred, std::size_t& probes) {
  bool removed_any = false;
  std::size_t granularity = 2;
  while (trace.events.size() >= 2) {
    const std::size_t n = trace.events.size();
    const std::size_t chunks = std::min(granularity, n);
    const std::size_t chunk = (n + chunks - 1) / chunks;
    bool removed = false;
    for (std::size_t c = 0; c < chunks && c * chunk < trace.events.size();
         ++c) {
      // Candidate: the trace with chunk c deleted (complement kept).
      faults::FaultTrace candidate = trace;
      const std::size_t lo = c * chunk;
      const std::size_t hi =
          std::min(candidate.events.size(), lo + chunk);
      candidate.events.erase(
          candidate.events.begin() + static_cast<std::ptrdiff_t>(lo),
          candidate.events.begin() + static_cast<std::ptrdiff_t>(hi));
      ++probes;
      if (pred(sc, candidate)) {
        trace = std::move(candidate);
        removed = true;
        removed_any = true;
        // Stay at this granularity; chunk boundaries shifted, restart it.
        break;
      }
    }
    if (removed) {
      granularity = std::max<std::size_t>(2, granularity - 1);
      continue;
    }
    if (chunks >= n) break;  // 1-minimal: no single event is removable
    granularity = std::min(n, granularity * 2);
  }
  // Size 1: try the empty trace once (a scenario whose stack violates with
  // no faults at all should shrink to zero events).
  if (trace.events.size() == 1) {
    faults::FaultTrace candidate = trace;
    candidate.events.clear();
    ++probes;
    if (pred(sc, candidate)) {
      trace = std::move(candidate);
      removed_any = true;
    }
  }
  return removed_any;
}

/// Greedily pulls every event's at_query down toward its predecessor (the
/// first event toward 0), shrinking the query prefix a reproducer must
/// run. Events are kept sorted by at_query. Returns true on any change.
bool compact_queries(const ChaosScenario& sc, faults::FaultTrace& trace,
                     const TracePredicate& pred, std::size_t& probes) {
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const faults::FaultEvent& a,
                      const faults::FaultEvent& b) {
                     return a.at_query < b.at_query;
                   });
  bool changed = false;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const QueryCount floor =
        i == 0 ? 0 : trace.events[i - 1].at_query;
    if (trace.events[i].at_query <= floor) continue;
    faults::FaultTrace candidate = trace;
    candidate.events[i].at_query = floor;
    ++probes;
    if (pred(sc, candidate)) {
      trace = std::move(candidate);
      changed = true;
      continue;
    }
    // Full pull failed; try one step down (cheap, often enough to close a
    // gap of exactly one).
    if (trace.events[i].at_query > floor + 1) {
      candidate = trace;
      --candidate.events[i].at_query;
      ++probes;
      if (pred(sc, candidate)) {
        trace = std::move(candidate);
        changed = true;
      }
    }
  }
  return changed;
}

}  // namespace

TracePredicate violates_any() {
  return [](const ChaosScenario& sc, const faults::FaultTrace& trace) {
    return !replay_session(sc, trace).violations.empty();
  };
}

TracePredicate violates_false_yes() {
  return [](const ChaosScenario& sc, const faults::FaultTrace& trace) {
    return replay_session(sc, trace).false_yes();
  };
}

std::string ShrinkResult::replay_spec() const {
  return scenario.spec() + " trace=" + trace.to_spec();
}

std::string ShrinkResult::regression_stanza(
    std::string_view test_name) const {
  std::string s;
  s += "TEST(ChaosRegressions, " + std::string(test_name) + ") {\n";
  s += "  const auto sc = tcast::chaos::ChaosScenario::parse(\n";
  s += "      \"" + scenario.spec() + "\");\n";
  s += "  const auto trace = tcast::faults::FaultTrace::parse(\n";
  s += "      \"" + trace.to_spec() + "\");\n";
  s += "  ASSERT_TRUE(sc.has_value());\n";
  s += "  ASSERT_TRUE(trace.has_value());\n";
  s += "  const auto rep = tcast::chaos::replay_session(*sc, *trace);\n";
  s += "  EXPECT_FALSE(rep.violations.empty());\n";
  s += "}\n";
  return s;
}

ShrinkResult shrink(const ChaosScenario& scenario, faults::FaultTrace trace,
                    const TracePredicate& pred) {
  ShrinkResult result;
  result.scenario = scenario;
  result.original_events = trace.events.size();
  ++result.probes;
  TCAST_CHECK_MSG(pred(scenario, trace),
                  "shrink: predicate does not hold on the input trace");
  bool changed = true;
  while (changed) {
    changed = ddmin_events(scenario, trace, pred, result.probes);
    changed = compact_queries(scenario, trace, pred, result.probes) ||
              changed;
  }
  result.trace = std::move(trace);
  return result;
}

}  // namespace tcast::chaos
