// cellworld_10k: the 32 x 320-mote CellWorld ring on the parallel kernel.
//
// Each rep builds the world (timed), drives it to its horizon with run()
// (timed; process CPU over that wall time gives the drain overlap) and
// destroys it (timed). Every rep simulates the same seeded world, so every
// rep's WorldDigest must equal the first one's whatever the thread timing:
// that is this workload's correctness check.
#include <memory>

#include "common/parallel.hpp"
#include "sim/parallel/cell_world.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

namespace par = tcast::sim::parallel;

constexpr std::size_t kCells = 32;
constexpr std::size_t kMotesPerCell = 320;
constexpr tcast::SimTime kBeaconPeriod = 400 * tcast::kMillisecond;
constexpr tcast::SimTime kDuration = 96 * tcast::kMillisecond;

struct Rep {
  double build_s = 0;
  double run_s = 0;
  double teardown_s = 0;
  double cpu_s = 0;
  double speed = 1;  ///< host speed around the rep (calibrate.hpp)
  par::WorldDigest digest;
  par::KernelStats stats;
};

Rep one_rep(std::uint64_t seed, tcast::ThreadPool* pool, Tracer* tracer,
            std::uint64_t id) {
  par::CellWorldConfig cfg;
  cfg.cells = kCells;
  cfg.motes_per_cell = kMotesPerCell;
  cfg.seed = seed;
  cfg.beacon_period = kBeaconPeriod;
  cfg.duration = kDuration;
  cfg.pool = pool;
  Rep rep;
  double t0 = wall_s();
  std::unique_ptr<par::CellWorld> world;
  {
    SpanScope s(tracer, "parallel.construct", id);
    world = std::make_unique<par::CellWorld>(cfg);
  }
  rep.build_s = wall_s() - t0;
  const double cpu0 = process_cpu_s();
  t0 = wall_s();
  {
    SpanScope s(tracer, "parallel.run", id);
    world->run();
  }
  rep.run_s = wall_s() - t0;
  rep.cpu_s = process_cpu_s() - cpu0;
  rep.digest = world->digest();
  rep.stats = world->stats();
  t0 = wall_s();
  {
    SpanScope s(tracer, "parallel.teardown", id);
    world.reset();
  }
  rep.teardown_s = wall_s() - t0;
  return rep;
}

}  // namespace

WorkloadResult run_cellworld_10k(const RunArgs& args) {
  WorkloadResult r;
  // run_batch drains on the pool's workers plus the calling thread, so
  // threads-1 workers make `threads` draining threads (none: sequential).
  std::unique_ptr<tcast::ThreadPool> pool_owner;
  if (args.threads > 1) pool_owner = std::make_unique<tcast::ThreadPool>(args.threads - 1);
  tcast::ThreadPool* pool = pool_owner.get();
  const double sim_ms = static_cast<double>(kDuration) / tcast::kMillisecond;

  std::vector<Rep> reps;
  std::uint64_t mismatched = 0;
  SpeedTracker speed(2 * args.threads, pool);
  const auto loop = [&](double seconds, Tracer* tracer) {
    std::vector<Rep> out;
    const double start = wall_s();
    while (out.empty() || wall_s() - start < seconds) {
      out.push_back(one_rep(args.seed, pool, tracer, reps.size() + out.size() + 1));
      out.back().speed = speed.after_slice();
      const par::WorldDigest& ref = reps.empty() ? out.front().digest : reps.front().digest;
      if (!(out.back().digest == ref)) ++mismatched;
    }
    return out;
  };
  reps = loop(args.trace ? args.seconds / 2 : args.seconds, nullptr);

  // Times normalised to the reference host speed. The gated rate is
  // simulated time per CPU-second of run(): on a shared host a worker's
  // vCPU can be descheduled (steal), and one stalled worker stalls every
  // barrier of its run, so wall time follows the host's worst moments.
  std::vector<double> setup, run_us, teardown;
  double cpu = 0, wall = 0, norm_cpu = 0;
  for (const Rep& rep : reps) {
    setup.push_back((rep.build_s + rep.teardown_s) * rep.speed);
    run_us.push_back(rep.run_s * rep.speed * 1e6);
    teardown.push_back(rep.teardown_s * rep.speed);
    cpu += rep.cpu_s;
    wall += rep.run_s;
    norm_cpu += rep.cpu_s * rep.speed;
  }
  const PercentileReport lr = report_percentiles(run_us);
  const double n = static_cast<double>(reps.size());
  const double sim_ms_per_cpu_s = sim_ms * n / norm_cpu;
  const double sim_ms_per_host_s = sim_ms * n / wall;

  const Rep first = reps.front();  // a copy: the traced reps extend `reps`
  const double lps = static_cast<double>(kCells + 1);
  const double windows = static_cast<double>(first.stats.windows);

  std::vector<std::string> trace_lines;
  if (args.trace) {
    Tracer tracer(1 << 12);
    const std::vector<Rep> traced = loop(args.seconds / 2, &tracer);
    double traced_cpu = 0;
    for (const Rep& rep : traced) traced_cpu += rep.cpu_s * rep.speed;
    const double traced_rate =
        sim_ms * static_cast<double>(traced.size()) / traced_cpu;
    set_layer(r, "parallel.events_per_lp_window",
              static_cast<double>(first.stats.events) / (windows * lps));
    set_layer(r, "parallel.stalled_window_frac",
              static_cast<double>(first.stats.stalled_windows) / windows);
    set_layer(r, "parallel.cpu_per_wall", cpu / wall);
    set_layer(r, "parallel.teardown_s", median(teardown));
    set_layer(r, "trace.overhead_pct",
              (sim_ms_per_cpu_s / traced_rate - 1.0) * 100.0);
    trace_lines.push_back(fmt("traced: %zu reps, %zu spans", traced.size(),
                              tracer.spans().size()));
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/cellworld_10k.csv";
      if (!tracer.write_csv(path)) trace_lines.push_back("could not write " + path);
    }
    reps.insert(reps.end(), traced.begin(), traced.end());
  }

  r.attempted = reps.size();
  r.failed = mismatched;
  r.correct = mismatched == 0;
  const double events_per_sim_ms = static_cast<double>(first.stats.events) / sim_ms;
  r.end_to_end = {
      {"ops_per_s", "op/s", sim_ms_per_cpu_s},
      {"cost_per_op", "count", events_per_sim_ms},
      {"setup_s", "s", median(setup)},
  };
  r.report = {
      fmt("sim_s_per_host_s = %.6f simulated s per host s in run() (%zu "
          "reps, %zu draining threads)",
          sim_ms_per_host_s / 1000.0, reps.size(), args.threads),
      fmt("simulated ms per CPU-second of run() = %.3f at reference host "
          "speed (gated as ops_per_s)",
          sim_ms_per_cpu_s),
      fmt("run() host time p50 = %.0f us, %s = %.0f us (n=%zu, reference "
          "host speed)",
          lr.p50, tail_label(lr).c_str(), lr.tail, lr.count),
      fmt("setup_s = %.6f s (median build + teardown over %zu reps)",
          median(setup), reps.size()),
      fmt("kernel events per simulated ms = %.3f; windows %llu, stalled %llu, "
          "cross-LP messages %llu",
          events_per_sim_ms, static_cast<unsigned long long>(first.stats.windows),
          static_cast<unsigned long long>(first.stats.stalled_windows),
          static_cast<unsigned long long>(first.stats.messages)),
      fmt("digest mismatches across reps: %llu of %zu",
          static_cast<unsigned long long>(mismatched), reps.size()),
  };
  r.report.insert(r.report.end(), trace_lines.begin(), trace_lines.end());
  std::uint64_t frames = 0;
  for (const auto& c : first.digest.cells) frames += c.frames_sent;
  r.digest = fmt("events=%llu messages=%llu frames_sent=%llu sim_ms=%.0f",
                 static_cast<unsigned long long>(first.digest.events),
                 static_cast<unsigned long long>(first.digest.messages),
                 static_cast<unsigned long long>(frames), sim_ms);
  return r;
}

}  // namespace e2e
