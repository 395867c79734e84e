// tcastd — the threshold-query daemon.
//
//   tcastd --socket /tmp/tcastd.sock [--shards 4] [--queue-capacity 64]
//          [--degrade-enter 32] [--degrade-exit 8] [--batch-max 8]
//          [--estimator nz-geom] [--checked]
//
// Serves the wire protocol of src/service/protocol.hpp over a Unix domain
// socket. Populations are sharded by name; queries resolve to exact
// verdicts, honestly-tagged approximate answers (under overload
// degradation), or typed errors — never fabricated verdicts, never silent
// drops. `tcast_client <socket> shutdown` stops it cleanly.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/text_codec.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

namespace {

tcast::service::UnixServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

/// The value of a numeric flag; a missing or malformed one is a usage
/// error (exit 2).
std::size_t count_flag(const char* flag, const char* value) {
  const auto v = value != nullptr ? tcast::parse_uint<std::size_t>(value)
                                  : std::nullopt;
  if (!v) {
    std::fprintf(stderr,
                 "tcastd: %s expects an unsigned decimal integer, got '%s'\n",
                 flag, value != nullptr ? value : "");
    std::exit(2);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcast::service;

  std::string socket_path = "/tmp/tcastd.sock";
  ServiceConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      if (const char* v = next()) socket_path = v;
    } else if (arg == "--shards") {
      cfg.shards = count_flag("--shards", next());
    } else if (arg == "--queue-capacity") {
      cfg.queue_capacity = count_flag("--queue-capacity", next());
    } else if (arg == "--degrade-enter") {
      cfg.degrade_enter = count_flag("--degrade-enter", next());
    } else if (arg == "--degrade-exit") {
      cfg.degrade_exit = count_flag("--degrade-exit", next());
    } else if (arg == "--batch-max") {
      cfg.batch_max = count_flag("--batch-max", next());
    } else if (arg == "--estimator") {
      if (const char* v = next()) cfg.degrade_estimator = v;
    } else if (arg == "--checked") {
      cfg.checked = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  TcastService service(cfg);
  UnixServer server(service, socket_path);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "tcastd: cannot listen on %s: %s\n",
                 socket_path.c_str(), error.c_str());
    return 1;
  }

  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::printf("tcastd: listening on %s (%zu shards, queue %zu, degrade %zu/%zu%s)\n",
              socket_path.c_str(), cfg.shards, cfg.queue_capacity,
              cfg.degrade_enter, cfg.degrade_exit,
              cfg.checked ? ", checked" : "");
  std::fflush(stdout);

  service.start_pump_thread();
  server.run();
  service.stop_pump_thread();
  service.drain_all();

  std::printf("tcastd: stopped\n");
  return 0;
}
