// Zeller's delta debugging over a list: the one minimizer behind the
// fault-trace shrinker (chaos::shrink) and the service op-script shrinker
// (service::shrink_service_ops).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace tcast {

/// Drops complement chunks at doubling granularity while
/// `still_fails(candidate)` holds, until removing any single element makes
/// it fail to hold (1-minimal); a single survivor is tried against the
/// empty list once. The caller checks that `still_fails(items)` holds on
/// the input. Deterministic whenever `still_fails` is.
template <typename T, typename Pred>
std::vector<T> ddmin(std::vector<T> items, Pred&& still_fails) {
  std::size_t granularity = 2;
  while (items.size() >= 2) {
    const std::size_t n = items.size();
    const std::size_t chunk = (n + granularity - 1) / granularity;
    bool removed = false;
    for (std::size_t lo = 0; lo < n; lo += chunk) {
      const std::size_t hi = std::min(n, lo + chunk);
      std::vector<T> candidate;
      candidate.reserve(n - (hi - lo));
      candidate.insert(candidate.end(), items.begin(),
                       items.begin() + static_cast<std::ptrdiff_t>(lo));
      candidate.insert(candidate.end(),
                       items.begin() + static_cast<std::ptrdiff_t>(hi),
                       items.end());
      if (still_fails(std::as_const(candidate))) {
        items = std::move(candidate);
        removed = true;
        break;  // chunk boundaries shifted: restart at this granularity
      }
    }
    if (removed) {
      granularity = std::max<std::size_t>(2, granularity - 1);
      continue;
    }
    if (granularity >= n) break;  // 1-minimal
    granularity = std::min(n, granularity * 2);
  }
  if (items.size() == 1 && still_fails(std::vector<T>{}))
    items.clear();
  return items;
}

}  // namespace tcast
