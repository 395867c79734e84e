#include "radio/channel.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "radio/radio.hpp"

namespace tcast::radio {

Channel::Channel(sim::Simulator& simulator, ChannelConfig cfg)
    : sim_(&simulator), cfg_(std::move(cfg)) {
  if (!cfg_.capture) cfg_.capture = std::make_shared<NoCaptureModel>();
}

std::size_t Channel::attach(Radio& r) {
  // A slot attached mid-frame must not count frames launched before it.
  slots_.push_back(Slot{.radio = &r, .first = log_end()});
  return slots_.size() - 1;
}

void Channel::detach(Radio& r) {
  // Its frames still on the air end without a sender to notify.
  for (Tx* t : log_)
    if (t->sender == &r) t->sender = nullptr;
  slots_[r.slot_] = Slot{};
  ++dead_slots_;
  while (!slots_.empty() && slots_.back().radio == nullptr) {
    slots_.pop_back();
    --dead_slots_;
  }
  if (2 * dead_slots_ <= slots_.size()) return;
  // Stable compaction: attach order (and so RNG draw order) is kept.
  std::erase_if(slots_, [](const Slot& s) { return s.radio == nullptr; });
  dead_slots_ = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) slots_[i].radio->slot_ = i;
}

Channel::Tx* Channel::acquire_tx() {
  if (tx_free_.empty())
    tx_free_.push_back(tx_pool_.emplace_back(std::make_unique<Tx>()).get());
  Tx* tx = tx_free_.back();
  tx_free_.pop_back();
  return tx;
}

bool Channel::busy_near(const Radio& listener) const {
  return slots_[listener.slot_].on_air > 0;
}

bool Channel::tx_audible(const Tx& tx, const Radio& r) const {
  if (cfg_.range <= 0.0) return true;
  const double dx = tx.x - r.pos_x();
  const double dy = tx.y - r.pos_y();
  return dx * dx + dy * dy <= cfg_.range * cfg_.range;
}

void Channel::begin_transmission(Radio& sender, Frame f) {
  Tx* tx = acquire_tx();
  tx->sender = &sender;
  tx->frame = std::move(f);
  tx->x = sender.pos_x();
  tx->y = sender.pos_y();
  launch(tx);
  if (tx_tap_) tx_tap_(tx->frame, sender, tx->start, tx->end);
}

void Channel::inject_transmission(Frame f, double x, double y) {
  Tx* tx = acquire_tx();
  tx->sender = nullptr;
  tx->frame = std::move(f);
  tx->x = x;
  tx->y = y;
  launch(tx);  // no tap: mirrored frames must not be re-mirrored
}

void Channel::launch(Tx* tx) {
  const SimTime now = sim_->now();
  tx->start = now;
  tx->end = now + airtime(tx->frame);
  tx->seq = log_end();
  log_.push_back(tx);
  ++active_;
  // Fold the frame into the busy period of every radio that can hear it.
  for (Slot& s : slots_) {
    if (s.radio == nullptr) continue;
    if (s.radio == tx->sender) {
      // A transmitter talking into its own open period corrupts it.
      if (s.on_air > 0) s.sent_own = true;
      continue;
    }
    if (!tx_audible(*tx, *s.radio)) continue;
    if (s.on_air == 0) {
      s.start = now;
      s.first = tx->seq;
      s.sent_own = s.transmitting;
    } else if (s.transmitting) {
      s.sent_own = true;
    }
    ++s.on_air;
  }
  // [this, tx] fits std::function's inline buffer — a by-value Tx (or a
  // shared_ptr) would cost one heap closure per transmission.
  sim_->schedule_at(tx->end, [this, tx] { on_transmission_end(tx); });
}

void Channel::on_transmission_end(Tx* tx) {
  TCAST_CHECK(active_ > 0);
  --active_;
  if (active_ == 0) ++clusters_resolved_;  // a global busy period drained
  if (tx->sender != nullptr) tx->sender->channel_tx_done();
  // Indexed: delivery handlers may attach radios (growing slots_).
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (s.radio == nullptr || s.radio == tx->sender || tx->seq < s.first ||
        !tx_audible(*tx, *s.radio))
      continue;
    TCAST_CHECK(s.on_air > 0);
    if (--s.on_air > 0) continue;
    // Snapshot and reset the drained period before resolving: delivery
    // handlers may transmit and open a fresh period on this very radio.
    const bool sent_own = s.sent_own;
    s.sent_own = false;
    resolve_reception(*s.radio, s.start, s.first, sent_own);
  }
  if (active_ == 0 || log_.size() >= trim_at_) trim_log();
}

void Channel::trim_log() {
  std::uint64_t keep = log_end();
  if (active_ > 0) {
    for (const Slot& s : slots_)
      if (s.radio != nullptr && s.on_air > 0) keep = std::min(keep, s.first);
    const SimTime now = sim_->now();
    for (const Tx* t : log_)
      if (t->end >= now) {  // possibly still on the air
        keep = std::min(keep, t->seq);
        break;
      }
  }
  const auto done = static_cast<std::ptrdiff_t>(keep - log_base_);
  tx_free_.insert(tx_free_.end(), log_.begin(), log_.begin() + done);
  log_.erase(log_.begin(), log_.begin() + done);
  log_base_ = keep;
  trim_at_ = std::max<std::size_t>(64, 2 * log_.size());
}

void Channel::resolve_reception(Radio& r, SimTime start, std::uint64_t first,
                                bool sent_own) {
  if (r.state() != RadioState::kRx) return;  // off or mid-transmission
  const std::uint64_t last = log_end();  // handlers below may transmit
  const SimTime end = sim_->now();
  r.channel_activity(start, end);
  if (sent_own) return;  // half-duplex: sensed energy, decoded nothing

  heard_.clear();
  for (std::uint64_t seq = first; seq < last; ++seq) {
    const Tx* tx = log_[seq - log_base_];
    if (tx->sender != &r && tx_audible(*tx, r)) heard_.push_back(tx);
  }
  const std::size_t k = heard_.size();
  RngStream& rng = sim_->rng();
  const bool all_identical_hacks =
      std::all_of(heard_.begin(), heard_.end(), [&](const Tx* tx) {
        return hacks_identical(tx->frame, heard_.front()->frame);
      });
  if (all_identical_hacks && k > 1) {
    if (cfg_.hack.decodes(k, rng)) {
      RxInfo info{.superposed = k, .contenders = k, .captured = false,
                  .start = start, .end = end};
      r.channel_deliver(heard_.front()->frame, info);
    }
  } else if (k == 1) {
    const Frame& frame = heard_.front()->frame;
    const bool is_hack = frame.type == FrameType::kHack;
    const bool lost = is_hack ? !cfg_.hack.decodes(1, rng)
                              : rng.bernoulli(cfg_.clean_loss);
    if (!lost) {
      RxInfo info{.superposed = 1, .contenders = 1, .captured = false,
                  .start = start, .end = end};
      r.channel_deliver(frame, info);
    }
  } else {
    // Destructive collision of distinct frames: capture effect may hand the
    // receiver one of them.
    if (const auto idx = cfg_.capture->captured_index(k, rng)) {
      RxInfo info{.superposed = 1, .contenders = k, .captured = true,
                  .start = start, .end = end};
      r.channel_deliver(heard_[*idx]->frame, info);
    }
  }
}

}  // namespace tcast::radio
