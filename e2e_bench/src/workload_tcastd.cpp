// tcastd_open_loop: the real UnixServer + TcastService over a Unix socket,
// driven open loop.
//
// One generator thread sends on a fixed schedule — request k of a phase is
// due at start + k / rate — whatever the server does, over min(4, nproc)
// pipelined connections; one receiver thread reads the in-order responses.
// Every latency is timed from the request's due time, so a stall also
// charges the requests queued behind it, and the generator's own lateness
// is reported (generator.lag_us_p99). Rates are frozen constants: the
// workload never derives its load from a capacity it just measured.
//
// Phases: lo and hi (latency from due, reported), a closed-loop
// saturation phase (service CPU per answer, gated), then the fixed rate
// ladder for max_rate_qps, stopped at the first step that twice misses the
// latency limit (a failed request misses it) or grows a backlog.
//
// Every population is owned by one connection, so its loads and queries
// reach its shard in send order and come back in that order: the receiver
// keeps the population's server-side x and checks every exact answer
// against it (decision == x >= t).
//
// The gated rate is answers per CPU-second of the service's own threads
// (socket server, pump, shard pool) in the closed-loop saturation phase:
// the process CPU minus the generator's and the receiver's. Below capacity
// the answered rate is just the offered rate, so only the CPU each answer
// costs shows a slower service. At lo and hi that CPU is mostly the pump's
// idle polling and thread wake-ups, whose cost swung ~1.7x from one launch
// to the next on a shared virtual host. Spread over every CPU, even the
// saturation phase's CPU per answer spread ~20% across launches: it
// tracked the throughput a launch happened to reach (fuller batches cost
// less per answer). So the phase runs with every thread of the process
// pinned to one CPU, in short slices, each drained and then scaled by the
// reference kernel's speed on that CPU (calibrate.hpp), as the CPU-bound
// workloads are. Parallel speedup is not part of this figure.
#include <dirent.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "common/rng.hpp"
#include "ladder.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using tcast::RngStream;
namespace svc = tcast::service;

constexpr std::size_t kN = 128;
constexpr std::size_t kPopulations = 8;
constexpr std::size_t kLoadPercent = 5;
// Long enough that a stall of the shared host does not shed requests at lo
// or hi; overload still shows on the ladder as latency far over its limit.
constexpr std::uint64_t kDeadlineMs = 1000;
// Frozen rates, never derived at run time. When the benchmark was written
// (4-vCPU KVM Xeon, GCC 12, Release) the open-loop ladder held ~50k
// requests/s when the host was quiet, and 20k already failed requests in
// its most contended phases (the closed-loop saturation phase served
// 93k-126k). lo is a tenth of the ~50k; hi is two thirds of the ~18k the
// service keeps under contention, so that hi never overloads it.
constexpr double kLoRate = 5000;
constexpr double kHiRate = 12000;
// The max_rate_qps ladder: fixed rates ~15% apart, from hi upward.
constexpr double kLadder[] = {12000, 14000, 16000, 18500, 21000,
                              24000, 28000, 32000, 37000, 42500,
                              49000, 56000, 64000, 74000, 85000};
// The closed-loop saturation phase keeps this many requests in flight:
// well under the shards' queue capacity, so nothing is refused.
constexpr std::size_t kSaturationWindow = 256;
// A ladder step passes when its tail latency from due stays under this
// limit (a failed request misses it) and no backlog grows. Scheduler
// hiccups of 5-10 ms show up at every rate on a shared host, so the limit
// sits above them: the ladder finds where the service starts refusing.
constexpr double kLatencyLimitUs = 20000;
constexpr double kBacklogSampleS = 0.02;
constexpr std::size_t kMaxSpans = 1 << 20;
constexpr std::size_t kBatchMax = 16;
constexpr std::size_t kSetupReps = 25;

/// Zipf(s~1) over k items, the hot-population skew of a deployed service.
std::size_t zipf_pick(RngStream& rng, std::size_t k) {
  for (;;) {
    const auto i = static_cast<std::size_t>(rng.uniform_below(k));
    if (rng.uniform01() < 1.0 / static_cast<double>(i + 1)) return i;
  }
}

/// Thresholds cluster at the decision boundary x, with a uniform tail.
std::size_t skewed_threshold(RngStream& rng, std::size_t x) {
  if (rng.uniform_below(10) < 7 && x > 0) {
    const std::size_t lo = x > 3 ? x - 3 : 1;
    return std::min(kN, lo + static_cast<std::size_t>(rng.uniform_below(7)));
  }
  return 1 + static_cast<std::size_t>(rng.uniform_below(kN));
}

/// Population p's x lies in its own 1/kPopulations slice of 0..N, so the
/// mix covers 0..N for every seed and the Zipf-hot population is always
/// the sparse one.
std::size_t stratified_x(RngStream& rng, std::size_t p) {
  const std::size_t width = kN / kPopulations;
  return p * width + static_cast<std::size_t>(rng.uniform_below(width + 1));
}

/// Sets the CPU affinity of every thread of the process (no thread starts
/// while it runs).
void set_all_affinity(const cpu_set_t& set) {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (const dirent* de = ::readdir(dir)) {
    const int tid = std::atoi(de->d_name);
    if (tid > 0) ::sched_setaffinity(tid, sizeof set, &set);
  }
  ::closedir(dir);
}

double clock_s(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Sample {
  double rtt_due_us = 0;    ///< receive - due
  double overhead_us = 0;   ///< receive - send - server latency
  double server_us = 0;     ///< response latency_us (admission to answer)
  double lag_us = 0;        ///< send - due
  std::uint64_t queries = 0;  ///< engine queries behind an ok answer
  bool load = false;
  bool ok = false;
  bool approx = false;
  svc::StatusCode status = svc::StatusCode::kOk;
};

struct PhaseRecord {
  double rate = 0;
  std::uint64_t sent = 0;
  double elapsed_s = 0;  ///< first due time to last answer
  bool keep_samples = true;  ///< false for the closed-loop saturation phase
  std::uint64_t ok = 0;      ///< ok responses
  std::uint64_t approx = 0;  ///< ok responses in approximate mode
  std::vector<Sample> samples;
  std::vector<double> outstanding;
};

struct Pending {
  std::uint64_t id = 0;
  std::size_t phase = 0;
  std::size_t population = 0;
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  bool load = false;
  std::size_t x = 0;  ///< load: the new x; query: unused
  std::size_t t = 0;
};

struct Connection {
  int fd = -1;
  tcast::service::FrameReader reader;
  std::mutex mu;  ///< guards pending
  std::deque<Pending> pending;
};

/// The service world: pool, service, socket server and client connections.
class World {
 public:
  World(const RunArgs& args, bool own_pump, std::string path)
      : path_(std::move(path)),
        pool_(std::max<std::size_t>(1, args.threads - 1)),
        service_(config(pool_)),
        server_(service_, path_),
        own_pump_(own_pump) {
    const std::size_t connections =
        std::min<std::size_t>(args.threads, kPopulations);
    std::string err;
    if (!server_.start(&err)) {
      std::fprintf(stderr, "e2e_bench: server start failed: %s\n", err.c_str());
      std::exit(1);
    }
    server_thread_ = std::thread([this] { server_.run(); });
    if (!own_pump_) service_.start_pump_thread();
    for (std::size_t i = 0; i < connections; ++i) {
      conns_.push_back(std::make_unique<Connection>());
      conns_.back()->fd = connect_fd();
    }
  }

  ~World() {
    for (auto& c : conns_)
      if (c->fd >= 0) ::close(c->fd);
    server_.stop();
    server_thread_.join();
    stop_pump();
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  static svc::ServiceConfig config(tcast::ThreadPool& pool) {
    svc::ServiceConfig cfg;
    cfg.shards = 4;
    // Queues deep enough to ride out a 10 ms scheduler stall at hi without
    // refusing work; sustained overload still fills them.
    cfg.queue_capacity = 512;
    cfg.degrade_enter = 256;
    cfg.degrade_exit = 64;
    cfg.batch_max = kBatchMax;
    cfg.pool = &pool;
    return cfg;
  }

  /// The daemon's pump loop (service.cpp's start_pump_thread: idle 200 us
  /// when every queue is empty), driven from here in the traced run so
  /// each TcastService::pump() call becomes a span.
  void start_traced_pump(Tracer& tracer, std::vector<double>& exec_us) {
    pump_stop_ = false;
    pump_thread_ = std::thread([this, &tracer, &exec_us] {
      const std::size_t shards = service_.shard_count();
      while (!pump_stop_.load(std::memory_order_acquire)) {
        std::size_t critical = 0;
        for (std::size_t i = 0; i < shards; ++i)
          critical = std::max(critical, std::min<std::size_t>(
                                            service_.shard(i).queue_depth(),
                                            kBatchMax));
        if (critical == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        const std::int64_t t0 = now_ns();
        service_.pump();
        const std::int64_t t1 = now_ns();
        tracer.record("service.pump", 0, t0, t1);
        // Shards drain in parallel, each serially: the pump lasts as long
        // as its most-loaded shard, so that shard's jobs share its time.
        exec_us.push_back(static_cast<double>(t1 - t0) * 1e-3 /
                          static_cast<double>(critical));
      }
    });
  }

  void stop_pump() {
    if (own_pump_) {
      pump_stop_ = true;
      if (pump_thread_.joinable()) pump_thread_.join();
    } else {
      service_.stop_pump_thread();
    }
  }

  /// Synchronous loads through the blocking client (the set-up path).
  void load_all(const std::vector<std::size_t>& xs, std::uint64_t seed,
                Tracer* tracer) {
    svc::UnixClient client(path_);
    std::string err;
    if (!client.connect(&err)) {
      std::fprintf(stderr, "e2e_bench: client connect failed: %s\n", err.c_str());
      std::exit(1);
    }
    for (std::size_t p = 0; p < xs.size(); ++p) {
      SpanScope s(tracer, "transport.client_call", p + 1);
      const auto resp = client.call(load_request(p, xs[p], seed + p));
      if (!resp || !resp->ok()) {
        std::fprintf(stderr, "e2e_bench: initial load failed\n");
        std::exit(1);
      }
    }
  }

  static svc::Request load_request(std::size_t p, std::size_t x,
                                   std::uint64_t seed) {
    svc::Request req;
    req.kind = svc::RequestKind::kLoad;
    req.population = "pop" + std::to_string(p);
    req.n = kN;
    req.x = x;
    req.seed = seed | 1;
    req.model = p % 2 == 0 ? tcast::group::CollisionModel::kOnePlus
                           : tcast::group::CollisionModel::kTwoPlus;
    req.tier = svc::BackendTier::kExact;
    return req;
  }

  std::vector<std::unique_ptr<Connection>>& conns() { return conns_; }
  svc::TcastService& service() { return service_; }

 private:
  int connect_fd() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      std::fprintf(stderr, "e2e_bench: connect %s: %s\n", path_.c_str(),
                   std::strerror(errno));
      std::exit(1);
    }
    return fd;
  }

  std::string path_;
  tcast::ThreadPool pool_;
  svc::TcastService service_;
  svc::UnixServer server_;
  bool own_pump_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::thread server_thread_;
  std::thread pump_thread_;
  std::atomic<bool> pump_stop_{false};
};

struct Totals {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t ill_typed = 0;
  std::uint64_t wrong_exact = 0;
  std::uint64_t checked_exact = 0;

  Totals& operator+=(const Totals& o) {
    sent += o.sent;
    received += o.received;
    ill_typed += o.ill_typed;
    wrong_exact += o.wrong_exact;
    checked_exact += o.checked_exact;
    return *this;
  }
};

struct PhaseStats {
  PercentileReport rtt;       ///< from due, ok answers; failures count as +inf
  PercentileReport overhead;  ///< transport: rtt from send - server latency
  PercentileReport server;    ///< server latency_us, queries
  PercentileReport load;      ///< server latency_us, loads
  PercentileReport lag;
  double goodput = 0;  ///< ok answers per second over the phase
  double service_cpu_s = 0;  ///< CPU of the service's threads
  std::uint64_t sent = 0, failed = 0, rejected = 0, shed = 0, approx = 0;
  std::uint64_t answers = 0, queries = 0;  ///< ok query answers, their cost
  bool backlog = false;
};

PhaseStats summarize(const PhaseRecord& rec) {
  PhaseStats st;
  std::vector<double> rtt, overhead, server, load, lag;
  for (const Sample& s : rec.samples) {
    // A refused or failed request misses any latency limit.
    rtt.push_back(s.ok ? s.rtt_due_us : 1e12);
    lag.push_back(s.lag_us);
    if (!s.ok) ++st.failed;
    if (s.status == svc::StatusCode::kOverloaded) ++st.rejected;
    if (s.status == svc::StatusCode::kDeadlineExceeded) ++st.shed;
    if (s.ok && s.approx) ++st.approx;
    if (!s.ok) continue;
    if (!s.load) {
      ++st.answers;
      st.queries += s.queries;
    }
    overhead.push_back(s.overhead_us);
    (s.load ? load : server).push_back(s.server_us);
  }
  st.sent = rec.sent;
  st.failed += rec.sent - rec.samples.size();  // unresolved
  st.goodput = static_cast<double>(st.sent - st.failed) / rec.elapsed_s;
  st.rtt = report_percentiles(rtt);
  st.overhead = report_percentiles(overhead);
  st.server = report_percentiles(server);
  st.load = report_percentiles(load);
  st.lag = report_percentiles(lag);
  st.backlog = backlog_growing({rec.outstanding, kBacklogSampleS}, rec.rate);
  return st;
}

/// Drives phases over a World: generator (calling thread) + receiver.
class Driver {
 public:
  Driver(World& world, std::uint64_t seed, std::vector<std::size_t> xs,
         Tracer* tracer)
      : world_(world), seed_(seed), gen_x_(xs), server_x_(std::move(xs)),
        tracer_(tracer) {
    receiver_ = std::thread([this] { receive_loop(); });
    if (::pthread_getcpuclockid(receiver_.native_handle(), &receiver_clock_) != 0) {
      std::fprintf(stderr, "e2e_bench: no CPU clock for the receiver thread\n");
      std::exit(1);
    }
  }

  ~Driver() {
    stop_ = true;
    receiver_.join();
  }

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Runs one open-loop phase and waits (bounded) for its answers.
  PhaseRecord& phase(double rate, double seconds) {
    const std::size_t index = phases_.size();
    {
      std::lock_guard<std::mutex> lock(record_mu_);
      phases_.push_back(std::make_unique<PhaseRecord>());
      phases_.back()->rate = rate;
    }
    PhaseRecord& rec = *phases_.back();
    RngStream rng(seed_, 0x7CA5D000 + index);
    const std::int64_t start = now_ns() + 1'000'000;
    const auto gap_ns = static_cast<std::int64_t>(1e9 / rate);
    const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t next_sample = start;
    std::string frame;
    for (std::uint64_t k = 0;; ++k) {
      const std::int64_t due = start + static_cast<std::int64_t>(k) * gap_ns;
      if (due >= end) break;
      std::int64_t now = now_ns();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      send_one(rng, index, due, frame);
      ++rec.sent;
      now = now_ns();
      while (now >= next_sample) {
        rec.outstanding.push_back(static_cast<double>(
            sent_.load() - received_.load()));
        next_sample += static_cast<std::int64_t>(kBacklogSampleS * 1e9);
      }
    }
    // Every request must resolve: wait for the phase's answers.
    const std::int64_t deadline = now_ns() + 10'000'000'000LL;
    while (received_.load() < sent_.load() && now_ns() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    rec.elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
    return rec;
  }

  /// What the closed-loop saturation phase measured.
  struct Saturation {
    double qps = 0;            ///< answered rate while the window was kept full
    std::uint64_t ok = 0;      ///< ok answers, the drain included
    std::uint64_t approx = 0;  ///< of which approximate
    double service_cpu_s = 0;  ///< service threads' CPU, the drain included
  };

  /// Closed-loop saturation: keeps `window` requests outstanding for
  /// `seconds`, then waits for the answers. Not an open-loop phase: it
  /// measures capacity and the service's CPU per answer, never latency.
  Saturation saturate(std::size_t window, double seconds) {
    const std::size_t index = phases_.size();
    {
      std::lock_guard<std::mutex> lock(record_mu_);
      phases_.push_back(std::make_unique<PhaseRecord>());
      phases_.back()->keep_samples = false;
    }
    PhaseRecord& rec = *phases_.back();
    RngStream rng(seed_, 0x7CA5D000 + index);
    std::string frame;
    const double cpu0 = service_cpu_s();
    const std::uint64_t received0 = received_.load();
    const std::int64_t start = now_ns();
    const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t now = start;
    while (now < end) {
      if (sent_.load() - received_.load() < window) {
        send_one(rng, index, now, frame);
        ++rec.sent;
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      now = now_ns();
    }
    Saturation sat;
    sat.qps = static_cast<double>(received_.load() - received0) /
              (static_cast<double>(now_ns() - start) * 1e-9);
    while (received_.load() < sent_.load() && now_ns() < end + 10'000'000'000LL)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    sat.service_cpu_s = service_cpu_s() - cpu0;
    std::lock_guard<std::mutex> lock(record_mu_);
    sat.ok = rec.ok;
    sat.approx = rec.approx;
    return sat;
  }

  /// Summarises a finished phase and frees its samples.
  PhaseStats finish(PhaseRecord& rec) {
    const PhaseStats st = summarize(rec);
    std::lock_guard<std::mutex> lock(record_mu_);
    std::vector<Sample>().swap(rec.samples);
    return st;
  }

  /// CPU the service's threads have used so far: the process's, minus the
  /// calling (generator) thread's and the receiver's.
  double service_cpu_s() const {
    return clock_s(CLOCK_PROCESS_CPUTIME_ID) - clock_s(CLOCK_THREAD_CPUTIME_ID) -
           clock_s(receiver_clock_);
  }

  Totals totals() const {
    Totals t = totals_;
    t.sent = sent_.load();
    t.received = received_.load();
    return t;
  }

 private:
  void send_one(RngStream& rng, std::size_t phase, std::int64_t due,
                std::string& frame) {
    Pending pend;
    pend.id = ++next_id_;
    pend.phase = phase;
    pend.due_ns = due;
    const std::size_t p = zipf_pick(rng, kPopulations);
    pend.population = p;
    svc::Request req;
    if (rng.uniform_below(100) < kLoadPercent) {
      // A write beside the reads: replace the population (rebuilds its
      // channel and invalidates plan-cache reuse for it).
      pend.load = true;
      pend.x = stratified_x(rng, p);
      req = World::load_request(p, pend.x, rng.bits());
      gen_x_[p] = pend.x;
    } else {
      req.kind = svc::RequestKind::kQuery;
      req.population = "pop" + std::to_string(p);
      pend.t = skewed_threshold(rng, gen_x_[p]);
      req.t = pend.t;
      req.algorithm = rng.uniform_below(2) == 0 ? "2tbins" : "abns:t";
      req.deadline_ms = kDeadlineMs;
      req.approx = svc::ApproxMode::kAllow;
    }
    frame.clear();
    svc::append_frame(frame, req.encode());
    Connection& c = *world_.conns()[p % world_.conns().size()];
    const std::int64_t s0 = now_ns();
    {
      std::lock_guard<std::mutex> lock(c.mu);
      pend.send_ns = s0;
      c.pending.push_back(pend);
    }
    sent_.fetch_add(1);
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n =
          ::send(c.fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // the receiver reports it unresolved
      off += static_cast<std::size_t>(n);
    }
    if (tracer_) tracer_->record("generator.send", pend.id, s0, now_ns());
  }

  void receive_loop() {
    auto& conns = world_.conns();
    std::vector<pollfd> fds;
    for (const auto& c : conns) fds.push_back(pollfd{c->fd, POLLIN, 0});
    char buf[16384];
    while (!stop_.load()) {
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & POLLIN) == 0) continue;
        const ssize_t n = ::recv(fds[i].fd, buf, sizeof buf, MSG_DONTWAIT);
        if (n <= 0) continue;
        const std::int64_t recv_ns = now_ns();
        Connection& c = *conns[i];
        c.reader.feed(buf, static_cast<std::size_t>(n));
        while (auto payload = c.reader.next()) on_response(c, *payload, recv_ns);
        if (c.reader.error()) {
          ++totals_.ill_typed;
          fds[i].fd = -1;
        }
      }
    }
  }

  void on_response(Connection& c, const std::string& payload,
                   std::int64_t recv_ns) {
    Pending pend;
    {
      std::lock_guard<std::mutex> lock(c.mu);
      if (c.pending.empty()) {
        ++totals_.ill_typed;  // an answer nobody asked for
        return;
      }
      pend = c.pending.front();
      c.pending.pop_front();
    }
    const auto resp = svc::Response::parse(payload);
    Sample s;
    s.rtt_due_us = static_cast<double>(recv_ns - pend.due_ns) * 1e-3;
    s.lag_us = static_cast<double>(pend.send_ns - pend.due_ns) * 1e-3;
    s.load = pend.load;
    if (!resp) {
      ++totals_.ill_typed;
    } else {
      s.status = resp->status;
      s.ok = resp->ok();
      s.server_us = static_cast<double>(resp->latency_us);
      s.overhead_us =
          static_cast<double>(recv_ns - pend.send_ns) * 1e-3 - s.server_us;
      s.approx = resp->mode == svc::AnswerMode::kApproximate;
      s.queries = resp->queries;
      if (pend.load) {
        if (s.ok) server_x_[pend.population] = pend.x;
      } else if (s.ok) {
        if (!s.approx) {
          ++totals_.checked_exact;
          if (resp->decision != (server_x_[pend.population] >= pend.t))
            ++totals_.wrong_exact;
        }
      }
    }
    if (tracer_) {
      const auto req = tracer_->record("client.request", pend.id, pend.due_ns, recv_ns);
      tracer_->record("generator.lag", pend.id, pend.due_ns, pend.send_ns, req);
      tracer_->record("transport.roundtrip", pend.id, pend.send_ns, recv_ns, req);
    }
    {
      std::lock_guard<std::mutex> lock(record_mu_);
      PhaseRecord& rec = *phases_[pend.phase];
      rec.ok += s.ok ? 1 : 0;
      rec.approx += s.ok && s.approx ? 1 : 0;
      if (rec.keep_samples) rec.samples.push_back(s);
    }
    received_.fetch_add(1);
  }

  World& world_;
  std::uint64_t seed_;
  std::vector<std::size_t> gen_x_;     ///< x as the generator last set it
  std::vector<std::size_t> server_x_;  ///< x as the server holds it (receiver)
  Tracer* tracer_;
  std::uint64_t next_id_ = 0;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> received_{0};
  std::atomic<bool> stop_{false};
  Totals totals_;  ///< receiver-owned; read after the phases end
  std::mutex record_mu_;  ///< guards phases_ growth and samples
  std::vector<std::unique_ptr<PhaseRecord>> phases_;
  std::thread receiver_;
  clockid_t receiver_clock_{};
};

std::vector<std::size_t> initial_x(std::uint64_t seed) {
  RngStream rng(seed, 0x10AD);
  std::vector<std::size_t> xs;
  for (std::size_t p = 0; p < kPopulations; ++p) xs.push_back(stratified_x(rng, p));
  return xs;
}

}  // namespace

WorkloadResult run_tcastd_open_loop(const RunArgs& args) {
  WorkloadResult r;
  const std::string path = fmt("tcastd-%d.sock", getpid());
  const std::vector<std::size_t> xs = initial_x(args.seed);

  // Set-up: the service, its socket server and the client connections,
  // timed without the initial loads (their wall time is mostly the pump's
  // 200 us idle sleep). It is mostly thread starts, so each build is scaled
  // by the thread-start speed measured around it (calibrate.hpp).
  std::unique_ptr<World> world;
  std::vector<double> setups;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    world.reset();  // the socket path admits one world at a time
    const double before = spawn_speed();  // also lets the teardown settle
    const double t0 = wall_s();
    world = std::make_unique<World>(args, false, path);
    const double dt = wall_s() - t0;
    setups.push_back(dt * 0.5 * (before + spawn_speed()));
  }
  const double setup = median(setups);
  world->load_all(xs, args.seed, nullptr);

  const double phase_s = args.seconds * (args.trace ? 0.125 : 0.15);
  const double step_s = args.seconds * 0.03;
  // The gated phase gets the most time: the host's slow spells last seconds.
  const double saturation_s = args.seconds * 0.3;
  constexpr double kSaturationSliceS = 0.25;
  Totals totals;
  PhaseStats lo, hi;
  std::vector<std::pair<double, PhaseStats>> ladder;
  double max_rate = 0;
  Driver::Saturation sat;
  {
    Driver d(*world, args.seed, xs, nullptr);
    const auto measured = [&](double rate) {
      const double c0 = d.service_cpu_s();
      PhaseRecord& rec = d.phase(rate, phase_s);
      const double cpu = d.service_cpu_s() - c0;
      PhaseStats st = d.finish(rec);
      st.service_cpu_s = cpu;
      return st;
    };
    lo = measured(kLoRate);
    hi = measured(kHiRate);
    // Memory as served at lo and hi: the saturation phase and the ladder
    // overload the service on purpose, and how far they get varies.
    r.peak_rss_mb = peak_rss_mb();
    if (!args.trace) {
      // Every thread on the first CPU the process may use; the reference
      // kernel runs there too, between slices, while the service is idle.
      cpu_set_t all, one;
      ::sched_getaffinity(0, sizeof all, &all);
      CPU_ZERO(&one);
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &all)) {
          CPU_SET(c, &one);
          break;
        }
      }
      set_all_affinity(one);
      SpeedTracker speed(3, nullptr);
      std::vector<double> slice_qps;
      const double sat_end = wall_s() + saturation_s;
      while (slice_qps.empty() || wall_s() < sat_end) {
        const Driver::Saturation slice = d.saturate(kSaturationWindow, kSaturationSliceS);
        sat.ok += slice.ok;
        sat.approx += slice.approx;
        sat.service_cpu_s += slice.service_cpu_s * speed.after_slice();
        slice_qps.push_back(slice.qps);
      }
      sat.qps = median(slice_qps);
      set_all_affinity(all);
      // Fixed ladder, upward, each step a fixed share of the run. A step
      // that misses is run once more before the ladder stops: one stall
      // of a shared host should not end it.
      const auto passes = [](const PhaseStats& st) {
        // Failed requests count as +inf in st.rtt, so they miss the limit.
        return !st.backlog && st.rtt.tail <= kLatencyLimitUs;
      };
      const double ladder_end = wall_s() + args.seconds * 0.3;
      for (const double rate : kLadder) {
        if (wall_s() > ladder_end) break;  // budget spent: a lower bound
        PhaseStats st = d.finish(d.phase(rate, step_s));
        if (!passes(st)) {
          ladder.emplace_back(rate, st);
          st = d.finish(d.phase(rate, step_s));
        }
        ladder.emplace_back(rate, st);
        if (!passes(st)) break;
        max_rate = rate;
      }
    }
    totals = d.totals();
  }

  std::vector<std::string> trace_lines;
  if (args.trace) {
    // The traced run: a fresh world whose pump loop is the benchmark's own,
    // so every TcastService::pump() is a span, then the same lo/hi phases.
    world.reset();
    Tracer tracer(kMaxSpans);
    std::vector<double> exec_us;
    world = std::make_unique<World>(args, true, path);
    world->start_traced_pump(tracer, exec_us);
    world->load_all(xs, args.seed, &tracer);
    const auto plan_before = world->service().stats();
    PhaseStats tlo, thi;
    {
      Driver d(*world, args.seed, xs, &tracer);
      tlo = d.finish(d.phase(kLoRate, phase_s));
      thi = d.finish(d.phase(kHiRate, phase_s));
      totals += d.totals();
    }
    world->stop_pump();
    double hits = 0, misses = 0;
    const auto plan_after = world->service().stats();
    for (std::size_t i = 0; i < plan_after.size(); ++i) {
      hits += static_cast<double>(plan_after[i].plan_hits - plan_before[i].plan_hits);
      misses += static_cast<double>(plan_after[i].plan_misses - plan_before[i].plan_misses);
    }
    const PercentileReport exec = report_percentiles(exec_us);
    // Queue wait: what a request's server latency holds beyond one job's
    // execution (the median pump share per job), at the hi rate.
    const double sent = static_cast<double>(tlo.sent + thi.sent);
    set_layer(r, "transport.overhead_us_p50", tlo.overhead.p50);
    set_layer(r, "service.exec_us_p50", exec.p50);
    set_layer(r, "service.queue_wait_us_p50", std::max(0.0, thi.server.p50 - exec.p50));
    set_layer(r, "service.queue_wait_us_p99", std::max(0.0, thi.server.tail - exec.p50));
    set_layer(r, "service.plan_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
    set_layer(r, "service.plan_lookups", hits + misses);
    set_layer(r, "service.load_us_p50", thi.load.p50);
    set_layer(r, "service.rejected_frac", static_cast<double>(tlo.rejected + thi.rejected) / sent);
    set_layer(r, "service.shed_frac", static_cast<double>(tlo.shed + thi.shed) / sent);
    set_layer(r, "service.approx_frac", static_cast<double>(tlo.approx + thi.approx) / sent);
    set_layer(r, "generator.lag_us_p99", std::max(tlo.lag.tail, thi.lag.tail));
    set_layer(r, "trace.overhead_pct", (tlo.rtt.p50 / lo.rtt.p50 - 1.0) * 100.0);
    trace_lines.push_back(fmt(
        "traced: rtt_p50_us.lo %.1f (untraced %.1f), %zu pump spans, exec n=%zu",
        tlo.rtt.p50, lo.rtt.p50, exec_us.size(), exec.count));
    if (!args.trace_dir.empty()) {
      const std::string out = args.trace_dir + "/tcastd_open_loop.csv";
      if (!tracer.write_csv(out)) trace_lines.push_back("could not write " + out);
    }
  }
  world.reset();

  const std::uint64_t unresolved = totals.sent - totals.received;
  const double failed_rate =
      static_cast<double>(lo.failed + hi.failed) / static_cast<double>(lo.sent + hi.sent);
  r.attempted = totals.sent;
  r.failed = lo.failed + hi.failed + unresolved + totals.ill_typed + totals.wrong_exact;
  r.correct = unresolved == 0 && totals.ill_typed == 0 && totals.wrong_exact == 0;
  // Engine queries per answer over the lo and hi phases (the ladder and
  // saturation phases run degraded at times, which changes the cost).
  const double qpa = static_cast<double>(lo.queries + hi.queries) /
                     static_cast<double>(std::max<std::uint64_t>(1, lo.answers + hi.answers));
  const double answers_per_cpu_s =
      sat.ok > 0 ? static_cast<double>(sat.ok) / sat.service_cpu_s : 0.0;
  r.end_to_end = {
      {"ops_per_s", "op/s", answers_per_cpu_s},
      {"cost_per_op", "count", qpa},
      {"setup_s", "s", setup},
  };
  const auto rtt_line = [](const char* name, const PhaseStats& st, bool tail) {
    return fmt("%s = %.1f us from due (%s, n=%zu)", name,
               tail ? st.rtt.tail : st.rtt.p50,
               tail ? tail_label(st.rtt).c_str() : "p50", st.rtt.count);
  };
  r.report = {
      rtt_line("rtt_p50_us.lo", lo, false),
      rtt_line("rtt_p99_us.lo", lo, true),
      rtt_line("rtt_p50_us.hi", hi, false),
      rtt_line("rtt_p99_us.hi", hi, true),
      fmt("lo = %.0f req/s, hi = %.0f req/s (frozen), %zu connections, "
          "%.2f s per phase",
          kLoRate, kHiRate, std::min<std::size_t>(args.threads, kPopulations),
          phase_s),
      fmt("failed_request_rate = %.6g (non-ok + unresolved)/sent over lo+hi "
          "(%llu of %llu)",
          failed_rate, static_cast<unsigned long long>(lo.failed + hi.failed),
          static_cast<unsigned long long>(lo.sent + hi.sent)),
      fmt("queries per answer = %.4f; exact answers checked %llu, wrong %llu, "
          "ill-typed %llu, unresolved %llu",
          qpa, static_cast<unsigned long long>(totals.checked_exact),
          static_cast<unsigned long long>(totals.wrong_exact),
          static_cast<unsigned long long>(totals.ill_typed),
          static_cast<unsigned long long>(unresolved)),
      fmt("generator lag %s = %.1f us (lo), %.1f us (hi)",
          tail_label(hi.lag).c_str(), lo.lag.tail, hi.lag.tail),
      fmt("service CPU per answer = %.2f us at lo, %.2f us at hi (server, "
          "pump and shard-pool threads, idle polling included)",
          lo.service_cpu_s * 1e6 / static_cast<double>(lo.sent - lo.failed),
          hi.service_cpu_s * 1e6 / static_cast<double>(hi.sent - hi.failed)),
      fmt("goodput = %.1f answers/s at lo, %.1f at hi", lo.goodput, hi.goodput),
      fmt("setup_s = %.6f s (median of %zu builds, thread-start scaled)",
          setup, kSetupReps),
  };
  for (const auto& [rate, st] : ladder)
    r.report.push_back(fmt(
        "ladder %.0f req/s: p50 %.0f %s = %.1f us, failed %llu of %llu, backlog %s, lag p50 %.0f",
        rate, st.rtt.p50, tail_label(st.rtt).c_str(), st.rtt.tail,
        static_cast<unsigned long long>(st.failed),
        static_cast<unsigned long long>(st.sent), st.backlog ? "growing" : "stable", st.lag.p50));
  if (!args.trace) {
    r.report.push_back(fmt("saturation_qps = %.1f answers/s with %zu requests "
                           "in flight on one CPU (closed loop, median of "
                           "%.2f s slices over %.2f s)",
                           sat.qps, kSaturationWindow, kSaturationSliceS,
                           saturation_s));
    r.report.push_back(fmt(
        "answers per service CPU-second = %.1f in the saturation phase at "
        "reference host speed (gated as ops_per_s; %.3f us per answer, %llu "
        "ok answers, %llu approximate)",
        answers_per_cpu_s, sat.service_cpu_s * 1e6 / static_cast<double>(sat.ok),
        static_cast<unsigned long long>(sat.ok),
        static_cast<unsigned long long>(sat.approx)));
    r.report.push_back(fmt("max_rate_qps = %.0f req/s (highest ladder rate "
                           "whose tail from due met %.0f us with no growing "
                           "backlog)",
                           max_rate, kLatencyLimitUs));
  }
  r.report.insert(r.report.end(), trace_lines.begin(), trace_lines.end());
  // Timing decides which requests a shard degrades or sheds, so only the
  // lo phase's request stream is fixed by the seed.
  r.digest = fmt("lo_sent=%llu lo_answers=%llu lo_queries=%llu",
                 static_cast<unsigned long long>(lo.sent),
                 static_cast<unsigned long long>(lo.answers),
                 static_cast<unsigned long long>(lo.queries));
  return r;
}

}  // namespace e2e
