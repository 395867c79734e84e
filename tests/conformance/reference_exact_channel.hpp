// ReferenceExactChannel — the test-only oracle for group::ExactChannel.
//
// It is the exact tier written the plain way: ground truth in a
// std::vector<bool>, and every query a bounds-checked walk over the queried
// span that collects the bin's positives into a heap vector. It shares no
// set-algebra code with ExactChannel (no NodeSet, no word images, no
// announce-time count cache), so the differential suites that compare the
// two check ExactChannel's word path against an independent implementation.
//
// Draw contract: construction consumes exactly rng.sample_subset(n, x), and
// a 2+ query over k > 0 positives consumes exactly
// capture->captured_index(k, rng) — the draws ExactChannel makes. Equal
// seeds must therefore give equal outcomes, query counts and RNG states.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "group/exact_channel.hpp"
#include "group/query_channel.hpp"
#include "radio/capture.hpp"

namespace tcast::conformance {

class ReferenceExactChannel final : public group::QueryChannel {
 public:
  /// n nodes with a random x-subset positive; `rng` is borrowed for the
  /// capture draws and must outlive the channel. Takes ExactChannel's
  /// Config so both channels are built from one description.
  ReferenceExactChannel(std::size_t n, std::size_t x, RngStream& rng,
                        const group::ExactChannel::Config& cfg)
      : QueryChannel(cfg.model),
        positive_(n, false),
        nodes_(n),
        rng_(&rng),
        capture_(cfg.capture
                     ? cfg.capture
                     : std::make_shared<radio::GeometricCaptureModel>()) {
    for (const NodeId id : rng.sample_subset(n, x))
      positive_.at(static_cast<std::size_t>(id)) = true;
    for (std::size_t i = 0; i < n; ++i) nodes_[i] = static_cast<NodeId>(i);
  }

  std::span<const NodeId> all_nodes() const { return nodes_; }

  std::optional<std::size_t> oracle_positive_count(
      std::span<const NodeId> nodes) const override {
    return positives_in(nodes).size();
  }

 protected:
  group::BinQueryResult do_query_set(std::span<const NodeId> nodes) override {
    const std::vector<NodeId> positives = positives_in(nodes);
    if (positives.empty()) return group::BinQueryResult::empty();
    if (model() == group::CollisionModel::kOnePlus)
      return group::BinQueryResult::activity();
    const auto idx = capture_->captured_index(positives.size(), *rng_);
    if (idx) return group::BinQueryResult::captured_node(positives.at(*idx));
    return group::BinQueryResult::activity();
  }

 private:
  std::vector<NodeId> positives_in(std::span<const NodeId> nodes) const {
    std::vector<NodeId> out;
    for (const NodeId id : nodes)
      if (positive_.at(static_cast<std::size_t>(id))) out.push_back(id);
    return out;
  }

  std::vector<bool> positive_;
  std::vector<NodeId> nodes_;
  RngStream* rng_;
  std::shared_ptr<radio::CaptureModel> capture_;
};

}  // namespace tcast::conformance
