// tcast_client — text CLI for a running tcastd.
//
//   tcast_client --socket /tmp/tcastd.sock [--deadline-ms MS]
//                [--max-retries N] [--seed S] <request words...>
//   tcast_client --socket /tmp/tcastd.sock            # requests on stdin
//
// Requests are protocol lines (see docs/SERVICE.md), e.g.:
//   load pop=fleet n=256 x=40 seed=7
//   query pop=fleet t=32 deadline-ms=50 approx=allow
//   stats | list | ping | shutdown
//
// Retryable responses (kOverloaded / kShardDown / kShuttingDown) are
// retried up to --max-retries times with jittered exponential backoff
// honoring the server's retry-after hints. Exit status: 0 on kOk, 1 on a
// typed error, 2 on usage/transport failure.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/text_codec.hpp"
#include "service/server.hpp"

namespace {

/// The value of a numeric flag; a missing or malformed one is a usage
/// error (exit 2).
std::uint64_t number_flag(const char* flag, const char* value) {
  const auto v = value != nullptr ? tcast::parse_uint<std::uint64_t>(value)
                                  : std::nullopt;
  if (!v) {
    std::fprintf(
        stderr,
        "tcast_client: %s expects an unsigned decimal integer, got '%s'\n",
        flag, value != nullptr ? value : "");
    std::exit(2);
  }
  return *v;
}

int run_one(tcast::service::UnixClient& client,
            const tcast::service::BackoffPolicy& policy,
            tcast::RngStream& rng, std::uint64_t default_deadline_ms,
            const std::string& line) {
  using namespace tcast::service;
  auto req = Request::parse(line);
  if (!req) {
    std::fprintf(stderr, "unparseable request: %s\n", line.c_str());
    return 2;
  }
  // --deadline-ms is a default: an explicit deadline-ms= token wins.
  if (req->kind == RequestKind::kQuery && req->deadline_ms == 0)
    req->deadline_ms = default_deadline_ms;
  std::size_t attempts = 0;
  const auto resp = client.call_with_retries(*req, policy, rng, &attempts);
  if (!resp) {
    std::fprintf(stderr, "transport failure talking to tcastd\n");
    return 2;
  }
  std::printf("%s%s\n", resp->encode().c_str(),
              attempts > 1
                  ? (" attempts=" + std::to_string(attempts)).c_str()
                  : "");
  if (!resp->message.empty() && resp->message.find('\n') != std::string::npos)
    std::printf("%s", resp->message.c_str());
  return resp->ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcast::service;

  std::string socket_path = "/tmp/tcastd.sock";
  BackoffPolicy policy;
  policy.max_retries = 0;
  std::uint64_t seed = 1;
  std::uint64_t deadline_ms = 0;
  std::string request_line;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      if (const char* v = next()) socket_path = v;
    } else if (arg == "--max-retries") {
      policy.max_retries = number_flag("--max-retries", next());
    } else if (arg == "--deadline-ms") {
      deadline_ms = number_flag("--deadline-ms", next());
    } else if (arg == "--seed") {
      seed = number_flag("--seed", next());
    } else {
      if (!request_line.empty()) request_line += ' ';
      request_line += arg;
    }
  }

  UnixClient client(socket_path);
  std::string error;
  if (!client.connect(&error)) {
    std::fprintf(stderr, "cannot connect to %s: %s\n", socket_path.c_str(),
                 error.c_str());
    return 2;
  }
  tcast::RngStream rng(seed, 0x9e11);

  if (!request_line.empty())
    return run_one(client, policy, rng, deadline_ms, request_line);

  int worst = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    worst = std::max(worst, run_one(client, policy, rng, deadline_ms, line));
  }
  return worst;
}
