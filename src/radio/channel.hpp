// Broadcast channel with receiver-centric collision resolution.
//
// Reception is resolved per receiver over its *busy period*: the maximal
// interval of continuous audible energy at that radio. When a busy period
// drains, the audible frames it accumulated are adjudicated:
//
//   1 frame                → clean delivery (subject to i.i.d. link loss;
//                            a lone HACK passes the HACK-miss model)
//   k identical HACKs      → non-destructive superposition; decoded with
//                            probability 1 − miss(k) (HackReceptionModel)
//   k distinct frames      → destructive collision; CaptureModel may hand
//                            one frame to the receiver (the 2+ model's
//                            capture effect), otherwise only energy is seen
//
// Every busy period also raises an *activity* indication — the CCA/RSSI
// signal pollcast's receiver-side collision detection is built on. A radio
// that transmitted during the period senses energy but decodes nothing
// (half-duplex).
//
// With the default infinite range all radios share every busy period — the
// paper's singlehop model. A finite unit-disk `range` makes audibility,
// CCA and collisions local, which is what produces hidden terminals and
// neighbouring-region interference in multihop topologies (the paper's
// future-work setting). Positions must not change while frames are on the
// air.
//
// Cost model. Each frame is appended once to a channel-wide air log. Each
// radio owns a fixed-size receiver slot (indexed from the Radio) holding
// its open busy period: start, log seq of the first frame, audible frames
// still on the air, and whether it transmitted meanwhile. Starting or
// ending a frame is one pass of O(1) counter updates over the slots —
// O(radios) per frame, no per-receiver frame lists — and a drained period
// gathers its frames from the log once: O(radios·k) per busy period of k
// frames. CCA is one indexed read. The log is trimmed when the channel
// idles, and, amortised, while it stays busy. A detached radio leaves a
// tombstone; a stable compaction (attach order, hence RNG draw order, is
// kept) reclaims them once they outnumber live slots.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "radio/capture.hpp"
#include "radio/frame.hpp"
#include "radio/hack_model.hpp"
#include "sim/simulator.hpp"

namespace tcast::radio {

class Radio;

/// PHY timing constants (802.15.4 @ 250 kbps; 1 symbol = 16 µs).
struct PhyParams {
  SimTime byte_time = 32 * kMicrosecond;     ///< 2 symbols per byte
  SimTime turnaround = 192 * kMicrosecond;   ///< aTurnaroundTime (12 symbols)
  SimTime sifs = 192 * kMicrosecond;
  SimTime backoff_slot = 320 * kMicrosecond; ///< aUnitBackoffPeriod
  SimTime cca_time = 128 * kMicrosecond;     ///< 8 symbols
};

struct ChannelConfig {
  PhyParams phy;
  double clean_loss = 0.0;  ///< i.i.d. per-receiver loss for lone frames
  HackReceptionModel hack = HackReceptionModel::ideal();
  std::shared_ptr<CaptureModel> capture;  ///< nullptr = NoCaptureModel
  /// Unit-disk reception range in metres; 0 = infinite (every radio hears
  /// every other — the paper's singlehop model). A finite range makes
  /// reception, CCA and collisions *per-receiver*, which is what produces
  /// hidden terminals and neighbouring-region interference in multihop
  /// topologies (the paper's future-work setting).
  double range = 0.0;
};

/// Reception metadata handed to radios alongside a delivered frame.
struct RxInfo {
  std::size_t superposed = 1;  ///< HACK superposition multiplicity
  std::size_t contenders = 1;  ///< overlapping frames in the cluster
  bool captured = false;       ///< true when won via capture effect
  SimTime start = 0;           ///< cluster start
  SimTime end = 0;             ///< cluster end (delivery time)
};

class Channel {
 public:
  /// Observes every *local* transmission as it starts — the LP-addressable
  /// delivery hook: an LP-sharded world (sim/parallel) taps its cell's
  /// channel and mirrors the frame into neighbouring cells as timestamped
  /// cross-LP events instead of closing over one global queue. Ghost
  /// (injected) transmissions are not re-tapped, so mirroring cannot echo.
  using TxTap = std::function<void(const Frame& f, const Radio& sender,
                                   SimTime start, SimTime end)>;

  Channel(sim::Simulator& simulator, ChannelConfig cfg);

  sim::Simulator& simulator() { return *sim_; }
  const PhyParams& phy() const { return cfg_.phy; }

  /// Starts a transmission; the frame occupies the medium for airtime(f).
  /// Called by Radio::transmit.
  void begin_transmission(Radio& sender, Frame f);

  /// Injects a foreign transmission with no local sender radio: the frame
  /// occupies the medium from now for airtime(f), raises CCA/activity,
  /// collides with local frames and is delivered under the same reception
  /// rules, as if transmitted by an unseen radio at (x, y). This is how a
  /// neighbouring logical process's broadcast lands in this LP's world.
  void inject_transmission(Frame f, double x, double y);

  void set_tx_tap(TxTap tap) { tx_tap_ = std::move(tap); }

  /// True while any transmission is on the air anywhere (global view).
  bool busy() const { return active_ > 0; }

  /// True while a transmission audible at `listener` is on the air — the
  /// CCA signal a real radio samples. Equals busy() for infinite range.
  bool busy_near(const Radio& listener) const;

  SimTime airtime(const Frame& f) const {
    return static_cast<SimTime>(f.air_bytes()) * cfg_.phy.byte_time;
  }

  /// Lifetime count of global busy periods (diagnostics / tests).
  std::uint64_t clusters_resolved() const { return clusters_resolved_; }

  /// Frames currently held in the air log (diagnostics / tests).
  std::size_t air_log_size() const { return log_.size(); }

 private:
  friend class Radio;  // attach/detach/set_transmitting

  struct Tx {
    Radio* sender = nullptr;  ///< nullptr: ghost, or sender detached
    Frame frame;
    double x = 0.0;  ///< transmit position, latched when the frame starts
    double y = 0.0;
    SimTime start = 0;
    SimTime end = 0;
    std::uint64_t seq = 0;  ///< position in the air log
  };

  /// One attached radio (radio == nullptr: a detached tombstone) and its
  /// busy period.
  struct Slot {
    Radio* radio = nullptr;
    SimTime start = 0;
    std::uint64_t first = 0;   ///< log seq of the period's first frame
    std::uint32_t on_air = 0;  ///< audible foreign frames still on the air
    bool sent_own = false;     ///< this radio transmitted during the period
    bool transmitting = false; ///< mirrors Radio::transmitting()
  };

  std::size_t attach(Radio& r);
  void detach(Radio& r);
  /// Mirrors Radio's kTx state into its slot, so launch reads no Radio.
  void set_transmitting(std::size_t slot, bool on) {
    slots_[slot].transmitting = on;
  }
  Tx* acquire_tx();
  /// Appends a prepared Tx (sender/frame/position set) to the air log,
  /// folds it into every audible busy period and schedules its end. Shared
  /// by local and ghost paths.
  void launch(Tx* tx);
  bool tx_audible(const Tx& tx, const Radio& r) const;
  void on_transmission_end(Tx* tx);
  void resolve_reception(Radio& r, SimTime start, std::uint64_t first,
                         bool sent_own);
  /// Returns ended frames no open busy period reads to the pool.
  void trim_log();
  std::uint64_t log_end() const { return log_base_ + log_.size(); }

  sim::Simulator* sim_;
  ChannelConfig cfg_;
  TxTap tx_tap_;
  std::vector<Slot> slots_;  ///< attach order
  std::size_t dead_slots_ = 0;
  std::size_t active_ = 0;  ///< transmissions on the air anywhere
  std::uint64_t clusters_resolved_ = 0;

  // Transmission pool: Tx objects (and their frames' payload capacity) are
  // recycled through a free list instead of allocated per transmission;
  // the air log, its trim and the resolution scratch reuse their capacity.
  // Together with the event queue's slot pool this keeps steady-state
  // traffic heap-silent — audited by tests/perf/alloc_audit_test.cpp.
  std::vector<std::unique_ptr<Tx>> tx_pool_;
  std::vector<Tx*> tx_free_;
  std::vector<Tx*> log_;        ///< air log, launch order
  std::uint64_t log_base_ = 0;  ///< seq of log_.front()
  std::size_t trim_at_ = 0;     ///< log size that triggers a busy trim
  std::vector<const Tx*> heard_;  ///< resolution scratch
};

}  // namespace tcast::radio
