#include "ladder.hpp"

namespace e2e {

double slope(std::span<const double> y, double dx) {
  const std::size_t n = y.size();
  if (n < 2 || dx <= 0.0) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) * dx;
    sx += x;
    sy += y[i];
    sxx += x * x;
    sxy += x * y[i];
  }
  const double nn = static_cast<double>(n);
  const double den = nn * sxx - sx * sx;
  return den == 0.0 ? 0.0 : (nn * sxy - sx * sy) / den;
}

bool backlog_growing(const BacklogSamples& s, double rate_qps,
                     double max_growth_frac, double min_backlog) {
  if (s.outstanding.size() < 2) return false;
  return slope(s.outstanding, s.interval_s) > max_growth_frac * rate_qps &&
         s.outstanding.back() > min_backlog;
}

}  // namespace e2e
