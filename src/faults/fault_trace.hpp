// FaultTrace: the one record of injected faults — an explicit,
// serializable per-query fault schedule.
//
// Where a FaultPlan is *generative* (probabilities + a seed), a FaultTrace
// is *extensional*: the literal list of fault events, each pinned to the
// query index at which it fires. A trace is
//
//   - what every FaultyChannel run records (`FaultyChannel::trace()`) —
//     fault injection is a pure function of (plan, query index, result),
//     so the injected events *are* the schedule;
//   - replayed verbatim by a FaultyChannel built from it, which consumes no
//     RNG and reproduces the exact same sequence of injected faults on any
//     inner channel — the replay half of the chaos engine's record/replay
//     loop;
//   - round-tripped through a compact one-line spec (`to_spec`/`parse`),
//     which is how the delta-debugging shrinker emits minimal reproducers,
//     how regression tests pin them down, and what tcast_cli --verbose
//     prints per trial.
//
// Spec grammar (comma-separated):
//
//   trace      := "lossy=" ("0"|"1") ("," event)*
//   event      := at ":" kind [":" node]
//   kind       := "fe" | "dg" | "sp" | "cr" | "rb"
//
// e.g. "lossy=1,3:fe,10:cr:2,15:rb:2". `cr`/`rb` require a node; `fe`/`sp`
// forbid one; `dg` takes an optional node (the capture that was downgraded
// when recorded — ignored on replay, where the actual captured node is
// recorded). The `lossy` bit preserves the recording channel's lossy()
// claim so the engine's soundness gate behaves identically under replay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace tcast::faults {

struct FaultEvent {
  enum class Kind : std::uint8_t {
    kFalseEmpty,       ///< non-empty bin reported as silence
    kCaptureDowngrade, ///< capture decoded as mere activity
    kSpuriousActivity, ///< empty bin reported as activity
    kCrash,            ///< node stopped replying
    kReboot,           ///< crashed node rejoined
  };

  Kind kind = Kind::kFalseEmpty;
  /// Query index (0-based, in the faulty channel's own accounting) at which
  /// the fault fired. Crash/reboot events use the index of the query whose
  /// pre-processing triggered them.
  QueryCount at_query = 0;
  /// The node involved, when the fault names one (crash, reboot, downgraded
  /// capture); kNoNode otherwise.
  NodeId node = kNoNode;

  bool operator==(const FaultEvent&) const = default;
};

struct FaultTrace {
  std::vector<FaultEvent> events;
  /// Whether the recording fault layer declared itself lossy(); a replaying
  /// FaultyChannel reports at least this.
  bool lossy = false;

  /// Events of one kind.
  std::size_t count(FaultEvent::Kind kind) const;

  /// Parses the spec grammar above; nullopt on any malformed token,
  /// missing/forbidden node, or unknown kind.
  static std::optional<FaultTrace> parse(std::string_view text);

  /// Canonical one-line spec; `parse(to_spec(t)) == t` for every trace.
  std::string to_spec() const;

  bool operator==(const FaultTrace&) const = default;
};

}  // namespace tcast::faults
