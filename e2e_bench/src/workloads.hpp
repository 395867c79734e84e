// The benchmark's workloads and what they share.
//
// Every workload prints the same end-to-end metric names (the gate in
// BENCHMARK.json compares each metric per workload), so each one defines
// the generic names for its own unit of work — one "op":
//
//   metric        abstract_n128 / mote_testbed_n12   tcastd_open_loop            cellworld_10k
//   ops_per_s     decisions per CPU-second           answers per service CPU-s   simulated ms per CPU-second
//   cost_per_op   queries_per_decision               queries per answer          kernel events per sim ms
//   setup_s       median of several world builds (cellworld: build + teardown)
//   peak_rss_mb   peak resident set of the process
//
// Rates count CPU time, not wall time (a shared host deschedules vCPUs).
// The CPU-bound workloads normalise it to a reference host speed
// (calibrate.hpp); tcastd counts its service threads' CPU in a closed-loop
// phase pinned to one CPU, normalised the same way (workload_tcastd.cpp). CPU time cannot see parallel speedup:
// cellworld's and abstract's pooled rates read the same whether the work
// ran on one thread or four. The
// roadmap-named metrics (decisions_per_s,
// wrong_decision_rate, sim_ms_per_decision, rtt_*, max_rate_qps,
// failed_request_rate, sim_s_per_host_s, ...) are printed by name and unit
// in the report lines above the JSON result. Rates that are zero by design
// (wrong answers on the lossless exact tier, failed requests below
// capacity) live there and in the result's `failed` count; latencies,
// wall-clock rates and capacity live there because they spread across
// launches on a shared host by more than any bound the gate allows.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "group/query_channel.hpp"
#include "calibrate.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace e2e {

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the span CSV goes; empty = not written
  std::size_t threads = 4;  ///< fixed worker count, min(4, nproc)
};

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> report;  ///< human lines, roadmap-named metrics
  std::string digest;  ///< simulated statistics; identical for a fixed seed
  /// Peak RSS to report, when a workload must read it before phases that
  /// overload the program on purpose; 0 = read it when the workload ends.
  double peak_rss_mb = 0;
};

WorkloadResult run_abstract_n128(const RunArgs& args);
WorkloadResult run_mote_testbed_n12(const RunArgs& args);
WorkloadResult run_tcastd_open_loop(const RunArgs& args);
WorkloadResult run_cellworld_10k(const RunArgs& args);

/// The per-layer metric names every workload reports under --trace 1, in
/// order. A workload that never calls into a layer reports 0 for that
/// layer's metrics: the layer did no work there.
const std::vector<std::pair<std::string, std::string>>& per_layer_names();

/// Adds `value` under `name` (which must be in per_layer_names()).
void set_layer(WorkloadResult& r, const std::string& name, double value);

/// Fills every per-layer metric the workload did not set with 0.
void complete_per_layer(WorkloadResult& r);

std::string fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Forwarding QueryChannel owned by the benchmark: times announce(),
/// query_bin()/query_set() and the oracle hooks of the channel it wraps as
/// spans, and otherwise changes nothing (same answers, same RNG draws).
class TimedChannel final : public tcast::group::QueryChannel {
 public:
  TimedChannel(tcast::group::QueryChannel& inner, Tracer& tracer,
               std::uint64_t id, const char* query_span)
      : QueryChannel(inner.model()),
        inner_(&inner),
        tracer_(&tracer),
        id_(id),
        query_span_(query_span) {}

  bool lossy() const override { return inner_->lossy(); }
  std::optional<std::size_t> oracle_positive_count(
      std::span<const tcast::NodeId> nodes) const override {
    SpanScope s(tracer_, "group.oracle", id_);
    return inner_->oracle_positive_count(nodes);
  }
  std::optional<std::size_t> oracle_positive_count(
      const tcast::group::BinAssignment& a, std::size_t idx) const override {
    SpanScope s(tracer_, "group.oracle", id_);
    return inner_->oracle_positive_count(a, idx);
  }
  const std::uint32_t* oracle_bin_counts(
      const tcast::group::BinAssignment& a) const override {
    SpanScope s(tracer_, "group.oracle", id_);
    return inner_->oracle_bin_counts(a);
  }
  tcast::group::ChannelFaultControl* fault_control() override {
    return inner_->fault_control();
  }

 protected:
  void do_announce(const tcast::group::BinAssignment& a) override {
    SpanScope s(tracer_, "group.announce", id_);
    inner_->announce(a);
  }
  tcast::group::BinQueryResult do_query_bin(
      const tcast::group::BinAssignment& a, std::size_t idx) override {
    SpanScope s(tracer_, query_span_, id_);
    return inner_->query_bin(a, idx);
  }
  tcast::group::BinQueryResult do_query_set(
      std::span<const tcast::NodeId> nodes) override {
    SpanScope s(tracer_, query_span_, id_);
    return inner_->query_set(nodes);
  }

 private:
  tcast::group::QueryChannel* inner_;
  Tracer* tracer_;
  std::uint64_t id_;
  const char* query_span_;
};

/// Seconds since an arbitrary epoch (steady clock).
inline double wall_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Host speed measured around consecutive slices of work (see
/// calibrate.hpp): each slice is scaled by the mean of the samples taken
/// just before and just after it.
class SpeedTracker {
 public:
  /// Samples host_speed(calls, pool) (calibrate.hpp).
  SpeedTracker(std::size_t calls, tcast::ThreadPool* pool)
      : SpeedTracker([calls, pool] { return host_speed(calls, pool); }) {}
  /// Samples `measure`, a speed relative to the reference host.
  explicit SpeedTracker(std::function<double()> measure)
      : measure_(std::move(measure)), last_(measure_()) {}

  /// Call right after a slice; returns the factor for that slice.
  double after_slice() {
    const double now = measure_();
    const double factor = 0.5 * (last_ + now);
    last_ = now;
    return factor;
  }

 private:
  std::function<double()> measure_;
  double last_;
};

/// Median over `reps` builds of `build`, each build's wall time normalised
/// to the reference host speed.
template <typename Build>
double median_setup_s(std::size_t reps, SpeedTracker& speed, Build&& build) {
  std::vector<double> t;
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = wall_s();
    build();
    const double dt = wall_s() - t0;
    t.push_back(dt * speed.after_slice());
  }
  return median(std::move(t));
}

}  // namespace e2e
