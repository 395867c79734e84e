#include "calibrate.hpp"

#include <atomic>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace e2e {

double reference_kernel_s(std::uint64_t salt) {
  struct Event {
    std::int64_t time;
    std::uint32_t seq;
    std::function<void()> fn;
    bool operator<(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  const std::int64_t t0 = now_ns();
  std::priority_queue<Event> queue;
  std::unordered_map<std::uint32_t, std::uint64_t> table;
  std::uint64_t x = salt * 0x9E3779B97F4A7C15ULL + 1;
  std::uint64_t acc = 0;
  std::uint32_t seq = 0;
  std::int64_t now = 0;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 64; ++i)
    queue.push({static_cast<std::int64_t>(next() % 1000), seq++, nullptr});
  for (int i = 0; i < 6000; ++i) {
    Event e = queue.top();
    queue.pop();
    now = e.time;
    if (e.fn) e.fn();
    const auto box = std::make_unique<std::uint64_t>(next());
    const auto key = static_cast<std::uint32_t>(*box % 4096);
    if ((*box >> 20) % 3 == 0) {
      table[key] += static_cast<std::uint64_t>(now);
    } else {
      acc += table.count(key);
    }
    queue.push({now + 1 + static_cast<std::int64_t>(next() % 1000), seq++,
                [&acc, v = *box] { acc += v & 7; }});
  }
  // Keep the result observable so the work cannot be discarded.
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_add(acc, std::memory_order_relaxed);
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double host_speed(std::size_t calls, tcast::ThreadPool* pool) {
  std::vector<double> t(calls, 0.0);
  if (pool != nullptr) {
    tcast::parallel_for(
        calls, [&t](std::size_t i) { t[i] = reference_kernel_s(i); }, pool);
  } else {
    for (std::size_t i = 0; i < calls; ++i) t[i] = reference_kernel_s(i);
  }
  return kReferenceKernelS / median(std::move(t));
}

double spawn_speed() {
  std::vector<double> t;
  for (int round = 0; round < 3; ++round) {
    const std::int64_t t0 = now_ns();
    std::vector<std::thread> threads;
    for (int i = 0; i < 5; ++i) threads.emplace_back([] {});
    for (auto& th : threads) th.join();
    t.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return kReferenceSpawnS / median(std::move(t));
}

}  // namespace e2e
