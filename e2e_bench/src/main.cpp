// e2e_bench — one end-to-end benchmark of a threshold query.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// Prints report lines (every roadmap-named metric with its unit, the
// simulated-statistics digest) and, as the last line of stdout, one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when the
// correctness gate fails (a wrong exact-tier answer, an unresolved or
// ill-typed tcastd response), 2 on a usage error.
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace e2e {
namespace {

/// Each workload's definition: why it was chosen, which layers it should
/// move and which it should not. A later optimisation of one layer is
/// judged on the workload that exercises it and on the one that bypasses it.
struct WorkloadDef {
  const char* name;
  const char* why;
  const char* moves;
  const char* does_not_move;
  WorkloadResult (*run)(const RunArgs&);
};

const WorkloadDef kWorkloads[] = {
    {"abstract_n128",
     "the exact tier at the paper's operating point (N=128, t=16; Figs 1-3, "
     "5): 2tbins, expinc, abns:t, prob-abns under 1+ and 2+, x over 0..N "
     "weighted toward x~t, trials through the Monte-Carlo path on a fixed "
     "worker count",
     "core, group, common", "sim, radio, mac, rcd, testbed, service",
     run_abstract_n128},
    {"mote_testbed_n12",
     "the Fig. 4 bench: testbed::Testbed N=12, t in {2,4,6}, x in 0..12, "
     "reboot before every run, 2tBins over backcast; plus the same (t, x) "
     "grid on a 2+ PacketChannel (pollcast). The bypass side of every "
     "abstract-tier optimisation",
     "sim, radio, mac, rcd, testbed, group (packet_channel)",
     "core/group set algebra (negligible at N=12), common/parallel, service",
     run_mote_testbed_n12},
    {"tcastd_open_loop",
     "the real UnixServer + TcastService over a Unix socket, driven open "
     "loop by one generator thread at frozen rates lo and hi, then a "
     "closed-loop saturation phase and a fixed rate ladder; Zipf-hot N=128 "
     "populations, boundary-skewed t, ~5% load writes",
     "service (shard, plan_cache, protocol, server), transport",
     "sim, radio, mac, rcd, testbed, sim/parallel (core runs per query but "
     "is a small share)",
     run_tcastd_open_loop},
    {"cellworld_10k",
     "the 32x320-mote CellWorld ring at min(4, nproc) workers, construction "
     "and teardown timed: the only workload on sim/parallel and multi-cell "
     "radio::Channel (ROADMAP's make-it-pay-or-remove rule)",
     "sim/parallel, radio (channel receiver scans, detach), mac, sim",
     "core, group, rcd, testbed, service", run_cellworld_10k},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n",
               msg);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != nullptr && *end == '\0';
}

int run(int argc, char** argv) {
  RunArgs args;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (a == "--workload" && v) {
      workload = v;
    } else if (a == "--seed" && parse_u64(v, n)) {
      args.seed = n;
      have_seed = true;
    } else if (a == "--seconds" && parse_u64(v, n) && n >= 1 && n <= 600) {
      args.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (a == "--trace" && v && (!std::strcmp(v, "0") || !std::strcmp(v, "1"))) {
      args.trace = v[0] == '1';
      have_trace = true;
    } else if (a == "--trace-dir" && v) {
      args.trace_dir = v;
    } else {
      return usage(("bad argument: " + a).c_str());
    }
    ++i;
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");
  const WorkloadDef* def = nullptr;
  for (const auto& w : kWorkloads)
    if (workload == w.name) def = &w;
  if (def == nullptr) return usage(("unknown workload: " + workload).c_str());

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  args.threads = static_cast<std::size_t>(std::clamp<long>(nproc, 1, 4));

  std::printf("workload %s seed %llu seconds %g trace %d threads %zu\n",
              def->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.threads);
  std::printf("  why: %s\n  moves: %s\n  should not move: %s\n", def->why,
              def->moves, def->does_not_move);
  std::fflush(stdout);

  WorkloadResult r = def->run(args);
  if (r.peak_rss_mb == 0) r.peak_rss_mb = peak_rss_mb();
  r.end_to_end.push_back({"peak_rss_mb", "MB", r.peak_rss_mb});
  for (const std::string& line : r.report) std::printf("  %s\n", line.c_str());
  std::printf("  peak_rss_mb = %.1f MB\n", r.peak_rss_mb);
  std::printf("digest %s %s\n", def->name, r.digest.c_str());
  if (args.trace) {
    complete_per_layer(r);
    for (const Metric& m : r.per_layer)
      std::printf("  layer %-36s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  }
  std::printf("correctness %s: attempted %llu failed %llu\n",
              r.correct ? "pass" : "FAIL",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("%s\n", result_json(r.correct, std::max<std::uint64_t>(1, r.attempted),
                                  r.failed,
                                  args.trace ? r.per_layer : r.end_to_end)
                          .c_str());
  return r.correct ? 0 : 1;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      // abstract_n128
      {"core.self_us_per_decision", "us"},
      {"core.rounds_per_decision", "count"},
      {"group.announce_us_per_round", "us"},
      {"group.query_ns_per_query", "ns"},
      {"common.pool_busy_frac", "ratio"},
      // mote_testbed_n12
      {"testbed.reboot_us_per_run", "us"},
      {"testbed.query_us_per_decision", "us"},
      {"group.packet_query_us_per_query", "us"},
      {"sim.host_us_per_sim_ms", "us/ms"},
      {"rcd.hack_miss_rate.k1", "ratio"},
      {"rcd.bins_k1", "count"},
      // tcastd_open_loop
      {"transport.overhead_us_p50", "us"},
      {"service.queue_wait_us_p50", "us"},
      {"service.queue_wait_us_p99", "us"},
      {"service.exec_us_p50", "us"},
      {"service.plan_hit_ratio", "ratio"},
      {"service.plan_lookups", "count"},
      {"service.load_us_p50", "us"},
      {"service.rejected_frac", "ratio"},
      {"service.shed_frac", "ratio"},
      {"service.approx_frac", "ratio"},
      {"generator.lag_us_p99", "us"},
      // cellworld_10k
      {"parallel.events_per_lp_window", "count"},
      {"parallel.stalled_window_frac", "ratio"},
      {"parallel.cpu_per_wall", "ratio"},
      {"parallel.teardown_s", "s"},
      // every workload: the traced run against the untraced one
      {"trace.overhead_pct", "%"},
  };
  return kNames;
}

void set_layer(WorkloadResult& r, const std::string& name, double value) {
  for (const auto& [n, unit] : per_layer_names()) {
    if (n == name) {
      r.per_layer.push_back({n, unit, value});
      return;
    }
  }
  std::fprintf(stderr, "e2e_bench: unknown per-layer metric %s\n", name.c_str());
  std::abort();
}

void complete_per_layer(WorkloadResult& r) {
  std::vector<Metric> ordered;
  for (const auto& [n, unit] : per_layer_names()) {
    const auto it = std::find_if(r.per_layer.begin(), r.per_layer.end(),
                                 [&](const Metric& m) { return m.name == n; });
    ordered.push_back(it != r.per_layer.end() ? *it : Metric{n, unit, 0.0});
  }
  r.per_layer = std::move(ordered);
}

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

}  // namespace e2e

int main(int argc, char** argv) { return e2e::run(argc, argv); }
