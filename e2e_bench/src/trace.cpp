#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace e2e {

namespace {
std::atomic<std::uint64_t> g_generation{0};
}  // namespace

Tracer::Tracer(std::size_t max_spans)
    : max_spans_(max_spans), generation_(++g_generation) {}

std::int64_t self_time_ns(std::int64_t start, std::int64_t end,
                          std::vector<Interval> children) {
  if (end <= start) return 0;
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t cursor = start;  // everything before cursor is accounted for
  for (const Interval& c : children) {
    const std::int64_t lo = std::max(c.start, cursor);
    const std::int64_t hi = std::min(c.end, end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return (end - start) - covered;
}

Tracer::Buffer& Tracer::local() {
  // One buffer per (thread, tracer). The owner check compares a process-wide
  // generation, not an address, so a thread that outlives one tracer never
  // writes into a stale buffer of a later tracer allocated at that address.
  thread_local std::uint64_t owner = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    buffer->spans.reserve(1 << 12);
    owner = generation_;
  }
  return *buffer;
}

std::int32_t Tracer::begin(const char* name, std::uint64_t id) {
  if (full()) return -1;
  Buffer& b = local();
  Span s;
  s.name = name;
  s.id = id;
  s.thread = b.thread;
  s.parent = b.open.empty() ? -1 : b.open.back();
  const auto index = static_cast<std::int32_t>(b.spans.size());
  b.open.push_back(index);
  recorded_.fetch_add(1, std::memory_order_relaxed);
  s.start_ns = now_ns();
  b.spans.push_back(s);
  return index;
}

void Tracer::end(std::int32_t handle) {
  if (handle < 0) return;
  const std::int64_t t = now_ns();
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(handle)].end_ns = t;
  if (!b.open.empty() && b.open.back() == handle) b.open.pop_back();
}

std::int32_t Tracer::record(const char* name, std::uint64_t id,
                            std::int64_t start_ns, std::int64_t end_ns,
                            std::int32_t parent) {
  if (full()) return -1;
  Buffer& b = local();
  recorded_.fetch_add(1, std::memory_order_relaxed);
  b.spans.push_back({name, id, start_ns, end_ns, parent, b.thread});
  return static_cast<std::int32_t>(b.spans.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_)
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

std::vector<Tracer::NameTotals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, NameTotals> by_name;
  for (const auto& b : buffers_) {
    const auto& spans = b->spans;
    std::vector<std::vector<Interval>> children(spans.size());
    for (const Span& s : spans)
      if (s.parent >= 0 && s.end_ns > 0)
        children[static_cast<std::size_t>(s.parent)].push_back(
            {s.start_ns, s.end_ns});
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns == 0) continue;  // still open when the run stopped
      NameTotals& t = by_name[s.name];
      t.name = s.name;
      ++t.count;
      t.total_ns += static_cast<double>(s.end_ns - s.start_ns);
      t.self_ns += static_cast<double>(
          self_time_ns(s.start_ns, s.end_ns, std::move(children[i])));
    }
  }
  std::vector<NameTotals> out;
  for (auto& [name, t] : by_name) out.push_back(std::move(t));
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,id,parent,thread,start_ns,end_ns\n");
  for (const Span& s : spans())
    std::fprintf(f, "%s,%llu,%d,%u,%lld,%lld\n", s.name,
                 static_cast<unsigned long long>(s.id), s.parent, s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  return std::fclose(f) == 0;
}

}  // namespace e2e
