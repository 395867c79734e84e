#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace e2e {

std::size_t samples_beyond(std::size_t n, double pct) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

double tail_percentile_for(std::size_t n) {
  for (const double pct : {99.9, 99.0, 90.0, 50.0})
    if (samples_beyond(n, pct) >= kTailSamplesBeyond) return pct;
  return 0.0;
}

double nearest_rank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const std::size_t n = sorted.size();
  const std::size_t rank = n - samples_beyond(n, pct);
  return sorted[rank - 1];
}

PercentileReport report_percentiles(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  PercentileReport r;
  r.count = samples.size();
  r.p50 = nearest_rank(samples, 50.0);
  r.tail_pct = tail_percentile_for(samples.size());
  r.tail = r.tail_pct > 0.0 ? nearest_rank(samples, r.tail_pct) : r.p50;
  return r;
}

SampleReservoir::SampleReservoir(std::size_t capacity)
    : capacity_(std::max<std::size_t>(2, capacity)) {
  kept_.reserve(capacity_);
}

void SampleReservoir::add(double value) {
  const std::uint64_t index = seen_++;
  if (index % stride_ != 0) return;
  if (kept_.size() == capacity_) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < kept_.size(); i += 2) kept_[out++] = kept_[i];
    kept_.resize(out);
    stride_ *= 2;
    if (index % stride_ != 0) return;
  }
  kept_.push_back(value);
}

std::string tail_label(const PercentileReport& r) {
  if (r.tail_pct == 0.0) return "p50(n<20)";
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", r.tail_pct);
  return buf;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  char num[40];
  for (const Metric& m : metrics) {
    if (!valid_metric_name(m.name) || !std::isfinite(m.value)) {
      std::fprintf(stderr, "e2e_bench: bad metric %s=%g\n", m.name.c_str(),
                   m.value);
      std::abort();
    }
    std::snprintf(num, sizeof num, "%.17g", m.value);
    os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << num
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss survives execve, so a
  // process started from a larger parent (a Python driver) would report
  // the parent's footprint.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace e2e
