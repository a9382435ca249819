#pragma once

// Test oracle for the medium's receiver culling. The decorator forwards
// every loss evaluation to the wrapped model but reports a trivial 0 dB
// lower bound from `min_loss_db`, so the Medium cannot bound a hearing
// radius and visits every attached radio (the full fan-out path). Outcomes
// must then match the culled run of the undecorated model bit for bit.
//
// Shared by medium_equivalence_test and bench_dense_fleet's unculled lane.

#include <memory>
#include <utility>

#include "rst/dot11p/channel.hpp"

namespace rst::dot11p {

class UnculledPathLoss final : public PathLossModel {
 public:
  explicit UnculledPathLoss(std::shared_ptr<const PathLossModel> inner)
      : inner_{std::move(inner)} {}
  [[nodiscard]] double loss_db(geo::Vec2 tx, geo::Vec2 rx) const override {
    return inner_->loss_db(tx, rx);
  }
  [[nodiscard]] double min_loss_db(double /*distance_m*/) const override { return 0.0; }

 private:
  std::shared_ptr<const PathLossModel> inner_;
};

}  // namespace rst::dot11p
