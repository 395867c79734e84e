// abstract_n128: the exact tier at the paper's operating point.
//
// Each pass runs every (algorithm, model) pair as one Monte-Carlo batch
// through tcast::run_multi_trials on a fixed pool; a trial draws x from a
// grid weighted toward x ~ t, builds an ExactChannel with x random
// positives and runs the registry algorithm once. Every decision is
// checked against ground truth (x >= t). Pass 0 is the fixed unit of work
// whose query and round totals form the digest, so queries_per_decision
// repeats exactly for a fixed seed; later passes use fresh streams.
#include <atomic>
#include <memory>

#include "common/monte_carlo.hpp"
#include "common/parallel.hpp"
#include "core/registry.hpp"
#include "group/exact_channel.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using tcast::RngStream;
using tcast::group::CollisionModel;
using tcast::group::ExactChannel;

constexpr std::size_t kN = 128;
constexpr std::size_t kT = 16;
constexpr const char* kAlgorithms[] = {"2tbins", "expinc", "abns:t",
                                       "prob-abns"};
constexpr CollisionModel kModels[] = {CollisionModel::kOnePlus,
                                      CollisionModel::kTwoPlus};
constexpr std::size_t kTrialsPerGridEntry = 8;
constexpr std::size_t kLatencySamples = 1 << 18;
constexpr std::size_t kMaxSpans = 1 << 18;
constexpr std::size_t kSetupReps = 25;

/// x over 0..N, weighted toward the decision boundary: the paper's curves
/// peak at x ~ t, where the algorithms differ most.
std::vector<std::size_t> weighted_x_grid() {
  std::vector<std::size_t> xs;
  for (std::size_t x = 0; x <= kN; ++x) {
    const std::size_t d = x > kT ? x - kT : kT - x;
    const std::size_t weight = d <= 4 ? 8 : d <= 16 ? 2 : x % 8 == 0 ? 1 : 0;
    xs.insert(xs.end(), weight, x);
  }
  return xs;
}

struct PassTotals {
  std::uint64_t decisions = 0;
  std::uint64_t wrong = 0;
  double queries = 0;
  double rounds = 0;

  PassTotals& operator+=(const PassTotals& o) {
    decisions += o.decisions;
    wrong += o.wrong;
    queries += o.queries;
    rounds += o.rounds;
    return *this;
  }
};

struct Runner {
  const RunArgs& args;
  tcast::ThreadPool& pool;
  const std::vector<std::size_t>& xs;
  std::vector<const tcast::core::AlgorithmSpec*> specs;
  std::vector<float> latency_us;  ///< this pass's decisions, by slot
  std::atomic<std::size_t> latency_slot{0};
  std::atomic<std::uint64_t> next_id{1};

  /// One batch: `trials` decisions of one (algorithm, model) pair.
  PassTotals batch(std::size_t pass, std::size_t a, std::size_t m,
                   Tracer* tracer) {
    const auto* spec = specs[a];
    const CollisionModel model = kModels[m];
    tcast::MonteCarloConfig mc;
    mc.seed = args.seed;
    mc.experiment_id = pass * 100 + a * 10 + m;
    mc.trials = xs.size() * kTrialsPerGridEntry;
    mc.pool = &pool;
    const tcast::core::EngineOptions opts;
    SpanScope batch_span(tracer, "common.batch", 0);
    const auto stats = tcast::run_multi_trials(
        mc, 3, [&](RngStream& rng, std::span<double> out) {
          const std::uint64_t id =
              tracer ? next_id.fetch_add(1, std::memory_order_relaxed) : 0;
          SpanScope trial_span(tracer, "common.trial", id);
          const std::size_t x = xs[rng.uniform_below(xs.size())];
          ExactChannel::Config cfg;
          cfg.model = model;
          auto channel = ExactChannel::with_random_positives(kN, x, rng, cfg);
          tcast::core::ThresholdOutcome outcome;
          const std::int64_t t0 = now_ns();
          if (tracer) {
            TimedChannel timed(channel, *tracer, id, "group.query_bin");
            SpanScope run_span(tracer, "core.run", id);
            outcome = spec->run(timed, channel.all_nodes(), kT, rng, opts);
          } else {
            outcome = spec->run(channel, channel.all_nodes(), kT, rng, opts);
          }
          const std::int64_t t1 = now_ns();
          const std::size_t slot =
              latency_slot.fetch_add(1, std::memory_order_relaxed);
          if (!tracer && slot < latency_us.size())
            latency_us[slot] = static_cast<float>(t1 - t0) * 1e-3f;
          out[0] = static_cast<double>(outcome.queries);
          out[1] = static_cast<double>(outcome.rounds);
          out[2] = (outcome.cancelled || outcome.decision != (x >= kT)) ? 1.0
                                                                        : 0.0;
        });
    PassTotals t;
    t.decisions = stats[0].count();
    t.queries = stats[0].sum();
    t.rounds = stats[1].sum();
    t.wrong = static_cast<std::uint64_t>(stats[2].sum() + 0.5);
    return t;
  }

  PassTotals pass(std::size_t p, Tracer* tracer) {
    PassTotals total;
    for (std::size_t a = 0; a < specs.size(); ++a)
      for (std::size_t m = 0; m < std::size(kModels); ++m)
        total += batch(p, a, m, tracer);
    return total;
  }
};

}  // namespace

WorkloadResult run_abstract_n128(const RunArgs& args) {
  WorkloadResult r;
  const std::vector<std::size_t> xs = weighted_x_grid();
  // The pool's caller thread joins every batch, so threads-1 workers give
  // `threads` concurrent trials (a 1-worker pool runs inline).
  const std::size_t pool_workers = std::max<std::size_t>(1, args.threads - 1);
  const std::size_t trial_threads = pool_workers > 1 ? pool_workers + 1 : 1;

  // Set-up: start the pool and build one ground-truth world per x and
  // model — what a user pays before the first decision.
  std::vector<std::unique_ptr<tcast::ThreadPool>> pools;
  SpeedTracker setup_speed(3, nullptr);
  const double setup = median_setup_s(kSetupReps, setup_speed, [&] {
    pools.push_back(std::make_unique<tcast::ThreadPool>(pool_workers));
    RngStream rng(args.seed, 1);
    std::size_t positives = 0;
    for (const CollisionModel model : kModels)
      for (std::size_t x = 0; x <= kN; ++x) {
        ExactChannel::Config cfg;
        cfg.model = model;
        positives +=
            ExactChannel::with_random_positives(kN, x, rng, cfg).positive_count();
      }
    if (positives == 0) std::abort();
  });
  pools.erase(pools.begin(), pools.end() - 1);

  Runner run{args, *pools.back(), xs, {}, {}, {}, {}};
  for (const char* name : kAlgorithms) {
    const auto* spec = tcast::core::find_algorithm(name);
    if (spec == nullptr) std::abort();
    run.specs.push_back(spec);
  }
  run.latency_us.assign(xs.size() * kTrialsPerGridEntry * std::size(kAlgorithms) *
                            std::size(kModels),
                        0.0f);
  SampleReservoir latency(kLatencySamples);

  // Whole passes until the phase's time is spent; each pass's wall time
  // (and its decisions' latencies) normalised by the host speed around it.
  SpeedTracker speed(2 * trial_threads, &run.pool);
  struct Phase {
    PassTotals totals;
    double wall_s = 0;
    double cpu_s = 0;  ///< process CPU, normalised to the reference speed
  };
  std::size_t p = 0;
  PassTotals first;
  const auto run_phase = [&](double seconds, Tracer* tracer) {
    Phase ph;
    const double start = wall_s();
    while (ph.totals.decisions == 0 ||
           (wall_s() - start < seconds && !(tracer && tracer->full()))) {
      run.latency_slot = 0;
      const double t0 = wall_s();
      const double c0 = process_cpu_s();
      const PassTotals t = run.pass(p, tracer);
      const double dt = wall_s() - t0;
      // Read before the reference kernel runs: its CPU is not the pass's.
      const double dc = process_cpu_s() - c0;
      const double f = speed.after_slice();
      if (!tracer)
        for (std::size_t i = 0; i < run.latency_slot; ++i)
          latency.add(run.latency_us[i] * f);
      if (p == 0) first = t;
      ph.totals += t;
      ph.wall_s += dt;
      ph.cpu_s += dc * f;
      ++p;
    }
    return ph;
  };

  const Phase untraced = run_phase(args.trace ? args.seconds / 2 : args.seconds, nullptr);
  const double decisions_per_cpu_s =
      static_cast<double>(untraced.totals.decisions) / untraced.cpu_s;
  const double decisions_per_s =
      static_cast<double>(untraced.totals.decisions) / untraced.wall_s;
  const PercentileReport lr = report_percentiles(latency.kept());
  const double qpd = first.queries / static_cast<double>(first.decisions);
  const double rpd = first.rounds / static_cast<double>(first.decisions);
  std::uint64_t decisions = untraced.totals.decisions;
  std::uint64_t wrong = untraced.totals.wrong;

  std::vector<std::string> trace_lines;
  if (args.trace) {
    Tracer tracer(kMaxSpans);
    const Phase traced = run_phase(args.seconds / 2, &tracer);
    decisions += traced.totals.decisions;
    wrong += traced.totals.wrong;
    const double traced_per_cpu_s =
        static_cast<double>(traced.totals.decisions) / traced.cpu_s;
    double run_self = 0, runs = 0, ann = 0, anns = 0, q = 0, qs = 0;
    double trial_ns = 0, batch_ns = 0;
    for (const auto& n : tracer.totals()) {
      const std::string name = n.name;
      const auto count = static_cast<double>(n.count);
      if (name == "core.run") { run_self = n.self_ns; runs = count; }
      if (name == "group.announce") { ann = n.total_ns; anns = count; }
      if (name == "group.query_bin") { q = n.total_ns; qs = count; }
      if (name == "common.trial") trial_ns = n.total_ns;
      if (name == "common.batch") batch_ns = n.total_ns;
    }
    set_layer(r, "core.self_us_per_decision", runs > 0 ? run_self / runs * 1e-3 : 0);
    set_layer(r, "core.rounds_per_decision", rpd);
    set_layer(r, "group.announce_us_per_round", anns > 0 ? ann / anns * 1e-3 : 0);
    set_layer(r, "group.query_ns_per_query", qs > 0 ? q / qs : 0);
    set_layer(r, "common.pool_busy_frac",
              batch_ns > 0 ? trial_ns / (batch_ns * static_cast<double>(trial_threads)) : 0);
    set_layer(r, "trace.overhead_pct", (decisions_per_cpu_s / traced_per_cpu_s - 1.0) * 100.0);
    trace_lines.push_back(fmt(
        "traced: %llu decisions, %zu spans; %.0f decisions per CPU-s "
        "untraced vs %.0f traced (reference host speed)",
        static_cast<unsigned long long>(traced.totals.decisions),
        tracer.spans().size(), decisions_per_cpu_s, traced_per_cpu_s));
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/abstract_n128.csv";
      if (!tracer.write_csv(path)) trace_lines.push_back("could not write " + path);
    }
  }

  r.attempted = decisions;
  r.failed = wrong;
  r.correct = wrong == 0;
  r.end_to_end = {
      {"ops_per_s", "op/s", decisions_per_cpu_s},
      {"cost_per_op", "count", qpd},
      {"setup_s", "s", setup},
  };
  r.report = {
      fmt("decisions_per_s = %.1f decisions/host s (%zu passes of %llu "
          "decisions, %zu trial threads)",
          decisions_per_s, p, static_cast<unsigned long long>(first.decisions),
          trial_threads),
      fmt("decisions per CPU-second = %.1f at reference host speed (gated as "
          "ops_per_s)",
          decisions_per_cpu_s),
      fmt("queries_per_decision = %.6f queries (pass 0, %llu decisions)", qpd,
          static_cast<unsigned long long>(first.decisions)),
      fmt("wrong_decision_rate = %.6g wrong/attempted (%llu of %llu)",
          static_cast<double>(wrong) / static_cast<double>(decisions),
          static_cast<unsigned long long>(wrong),
          static_cast<unsigned long long>(decisions)),
      fmt("decision latency p50 = %.3f us, %s = %.3f us (n=%zu of %llu, "
          "reference host speed)",
          lr.p50, tail_label(lr).c_str(), lr.tail, lr.count,
          static_cast<unsigned long long>(latency.seen())),
      fmt("setup_s = %.6f s (median of %zu builds)", setup, kSetupReps),
  };
  r.report.insert(r.report.end(), trace_lines.begin(), trace_lines.end());
  r.digest = fmt("decisions=%llu queries=%.0f rounds=%.0f sim_ms=0",
                 static_cast<unsigned long long>(first.decisions),
                 first.queries, first.rounds);
  return r;
}

}  // namespace e2e
