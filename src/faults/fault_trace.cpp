#include "faults/fault_trace.hpp"

#include <algorithm>

#include "common/text_codec.hpp"

namespace tcast::faults {
namespace {

const char* kind_code(FaultEvent::Kind k) {
  switch (k) {
    case FaultEvent::Kind::kFalseEmpty: return "fe";
    case FaultEvent::Kind::kCaptureDowngrade: return "dg";
    case FaultEvent::Kind::kSpuriousActivity: return "sp";
    case FaultEvent::Kind::kCrash: return "cr";
    case FaultEvent::Kind::kReboot: return "rb";
  }
  return "?";
}

std::optional<FaultEvent::Kind> parse_kind(std::string_view code) {
  if (code == "fe") return FaultEvent::Kind::kFalseEmpty;
  if (code == "dg") return FaultEvent::Kind::kCaptureDowngrade;
  if (code == "sp") return FaultEvent::Kind::kSpuriousActivity;
  if (code == "cr") return FaultEvent::Kind::kCrash;
  if (code == "rb") return FaultEvent::Kind::kReboot;
  return std::nullopt;
}

}  // namespace

std::size_t FaultTrace::count(FaultEvent::Kind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [kind](const FaultEvent& e) { return e.kind == kind; }));
}

std::optional<FaultTrace> FaultTrace::parse(std::string_view text) {
  const auto tokens = split(text, ',');
  const auto header = split_kv(tokens[0]);
  if (!header || header->key != "lossy" ||
      (header->value != "0" && header->value != "1"))
    return std::nullopt;
  FaultTrace trace;
  trace.lossy = header->value == "1";
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const auto parts = split(tokens[i], ':');
    if (parts.size() < 2 || parts.size() > 3) return std::nullopt;
    const auto at = parse_uint<QueryCount>(parts[0]);
    const auto kind = parse_kind(parts[1]);
    if (!at || !kind) return std::nullopt;
    FaultEvent e;
    e.kind = *kind;
    e.at_query = *at;
    const bool wants_node = *kind == FaultEvent::Kind::kCrash ||
                            *kind == FaultEvent::Kind::kReboot;
    const bool allows_node =
        wants_node || *kind == FaultEvent::Kind::kCaptureDowngrade;
    if (parts.size() == 3) {
      if (!allows_node) return std::nullopt;
      const auto node = parse_uint<NodeId>(parts[2]);
      if (!node || *node == kNoNode) return std::nullopt;
      e.node = *node;
    } else if (wants_node) {
      return std::nullopt;
    }
    trace.events.push_back(e);
  }
  return trace;
}

std::string FaultTrace::to_spec() const {
  std::string s = lossy ? "lossy=1" : "lossy=0";
  for (const auto& e : events) {
    s += ',';
    s += std::to_string(e.at_query);
    s += ':';
    s += kind_code(e.kind);
    if (e.node != kNoNode) {
      s += ':';
      s += std::to_string(e.node);
    }
  }
  return s;
}

}  // namespace tcast::faults
