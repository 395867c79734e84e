// Metric reporting for the end-to-end benchmark: the percentile rule, the
// metric-name grammar, and the one-line JSON result.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// A latency distribution reported as its median and the highest percentile
/// that still has at least kTailSamplesBeyond samples above it, with the
/// sample count stated. A p99 over 50 samples would be a max in disguise.
struct PercentileReport {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;       ///< value at `tail_pct`
  double tail_pct = 0.0;   ///< 0 when fewer than 20 samples exist
};

inline constexpr std::size_t kTailSamplesBeyond = 10;

/// Samples strictly above the nearest-rank `pct` percentile of `n` samples.
std::size_t samples_beyond(std::size_t n, double pct);

/// Highest of {99.9, 99, 90, 50} with >= kTailSamplesBeyond samples beyond
/// it among `n` samples; 0 when none qualifies.
double tail_percentile_for(std::size_t n);

/// Nearest-rank percentile of `sorted` (ascending); 0 for an empty set.
double nearest_rank(const std::vector<double>& sorted, double pct);

/// Sorts `samples` in place and reports them by the rule above.
PercentileReport report_percentiles(std::vector<double>& samples);

/// Bounded, evenly spaced sample of a long stream: keeps every stride-th
/// value, and when full drops every other kept value and doubles the
/// stride. Memory stays fixed however long a run is, so the benchmark's own
/// bookkeeping does not grow the peak RSS it reports.
class SampleReservoir {
 public:
  explicit SampleReservoir(std::size_t capacity);
  void add(double value);
  std::uint64_t seen() const { return seen_; }
  /// The kept values (unsorted; report_percentiles sorts them in place).
  std::vector<double>& kept() { return kept_; }

 private:
  std::size_t capacity_;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
  std::vector<double> kept_;
};

/// Human label for a report's tail, e.g. "p99" or "p99.9".
std::string tail_label(const PercentileReport& r);

/// The metric-name grammar: [A-Za-z0-9_.-]+, first character a letter or
/// digit, at most 64 characters.
bool valid_metric_name(std::string_view name);

/// Median of `v` (sorts a copy); 0 for an empty set.
double median(std::vector<double> v);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The final result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}. Aborts on an invalid name.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Peak resident set size of this process, in MB (VmHWM).
double peak_rss_mb();

/// CPU time (user + system) consumed by this process so far, in seconds.
double process_cpu_s();

}  // namespace e2e
