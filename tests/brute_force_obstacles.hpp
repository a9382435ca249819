#pragma once

// Test oracle for the obstacle ray index. Scans every wall in ascending
// index order with the exact `geo::segments_intersect` test and sums the
// obstruction losses on top of the base model's loss — the O(walls)
// definition that `ObstacleShadowingModel`'s indexed walk must reproduce
// bit for bit (same crossings, same floating-point accumulation order).
//
// Shared by obstacle_index_test and bench_city_corridor's brute lane.

#include <vector>

#include "rst/dot11p/channel.hpp"
#include "rst/geo/obstacle_grid.hpp"

namespace rst::dot11p {

[[nodiscard]] inline ObstacleShadowingModel::LossDepth brute_force_loss_and_depth(
    const PathLossModel& base, const std::vector<Wall>& walls, geo::Vec2 tx, geo::Vec2 rx) {
  ObstacleShadowingModel::LossDepth out;
  out.loss_db = base.loss_db(tx, rx);
  for (const Wall& w : walls) {
    if (!geo::segments_intersect(tx, rx, w.a, w.b)) continue;
    out.loss_db += w.obstruction_loss_db;
    ++out.depth;
  }
  return out;
}

}  // namespace rst::dot11p
