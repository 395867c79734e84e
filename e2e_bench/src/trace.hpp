// Spans recorded by the benchmark around its calls into each layer.
//
// A span is (name, id, parent, start, end). All spans of one decision or
// one request share `id`; `parent` links a span to the span open on the
// same thread when it started. Spans live in per-thread in-memory buffers
// (bounded: once the tracer's cap is reached `full()` turns true and the
// workload stops its traced phase) and are written out once, by
// write_csv(), after the run. Nothing here runs in an untraced run: every
// hook is behind a null Tracer pointer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string: "layer.function"
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same thread's buffer
  std::uint32_t thread = 0;
};

struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Length of `[start, end)` minus the part that the union of `children`
/// covers inside it. Children may overlap one another, nest, or stick out
/// of the parent; each covered instant counts once.
std::int64_t self_time_ns(std::int64_t start, std::int64_t end,
                          std::vector<Interval> children);

class Tracer {
 public:
  explicit Tracer(std::size_t max_spans);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; returns its handle for end().
  std::int32_t begin(const char* name, std::uint64_t id);
  void end(std::int32_t handle);
  /// Records a span measured elsewhere (e.g. across threads) with explicit
  /// times and no parent; returns its handle as a parent for others.
  std::int32_t record(const char* name, std::uint64_t id,
                      std::int64_t start_ns, std::int64_t end_ns,
                      std::int32_t parent = -1);

  /// True once the span budget is spent (further spans are dropped).
  bool full() const { return recorded_.load(std::memory_order_relaxed) >= max_spans_; }

  /// Every recorded span, each thread's buffer in order.
  std::vector<Span> spans() const;

  /// Per span name: total duration and total self time (duration minus
  /// child coverage), in ns, and the number of spans.
  struct NameTotals {
    std::string name;
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::vector<NameTotals> totals() const;

  /// Writes name,id,parent,thread,start_ns,end_ns rows; false on I/O error.
  bool write_csv(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::int32_t> open;  ///< stack of open span indices
  };
  Buffer& local();

  const std::size_t max_spans_;
  const std::uint64_t generation_;
  std::atomic<std::size_t> recorded_{0};
  mutable std::mutex mu_;  ///< guards buffers_ (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a no-op when `tracer` is null.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, std::uint64_t id)
      : tracer_(tracer), handle_(tracer ? tracer->begin(name, id) : -1) {}
  ~SpanScope() {
    if (tracer_) tracer_->end(handle_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t handle_;
};

}  // namespace e2e
