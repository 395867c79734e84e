// Rate-ladder arithmetic for the open-loop tcastd workload.
#pragma once

#include <span>

namespace e2e {

/// Outstanding requests (sent, not yet answered) sampled at a fixed
/// interval during one ladder step.
struct BacklogSamples {
  std::span<const double> outstanding;
  double interval_s = 0.0;
};

/// True when the backlog grows through the step: the least-squares slope
/// of outstanding-vs-time exceeds `max_growth_frac` of the offered rate
/// AND the last sample holds more than `min_backlog` requests. A stable
/// queue jitters around a constant depth (slope ~ 0); an overloaded one
/// gains (offered - served) requests every second.
bool backlog_growing(const BacklogSamples& s, double rate_qps,
                     double max_growth_frac = 0.05,
                     double min_backlog = 16.0);

/// Least-squares slope of `y` against sample index times `dx`.
double slope(std::span<const double> y, double dx);

}  // namespace e2e
