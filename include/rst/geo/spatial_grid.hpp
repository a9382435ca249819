#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rst/geo/vec2.hpp"

namespace rst::geo {

/// Uniform spatial hash grid over 2-D points, keyed by opaque 32-bit ids.
///
/// The grid is the culling structure behind the scalable radio medium: ids
/// are radio slots, cells are square bins of `cell_size_m`, and a disc query
/// visits only the bins overlapping the disc instead of every id. The caller
/// owns the id -> position mapping and passes the recorded position back in
/// (`move`, `remove`), so the grid itself stores nothing but bins.
///
/// Queries never allocate; `insert`/`move` allocate only while a bin grows
/// past its high-water capacity, so a warmed-up grid with bounded occupancy
/// churn is allocation-free in steady state.
class SpatialGrid {
 public:
  struct Cell {
    std::int32_t x{0};
    std::int32_t y{0};
    [[nodiscard]] friend bool operator==(Cell a, Cell b) { return a.x == b.x && a.y == b.y; }
  };

  explicit SpatialGrid(double cell_size_m) : cell_size_m_{cell_size_m} {}

  [[nodiscard]] double cell_size_m() const { return cell_size_m_; }

  [[nodiscard]] Cell cell_of(Vec2 p) const {
    return Cell{static_cast<std::int32_t>(std::floor(p.x / cell_size_m_)),
                static_cast<std::int32_t>(std::floor(p.y / cell_size_m_))};
  }

  void insert(std::uint32_t id, Vec2 p) { bin_of(cell_of(p)).push_back(id); }

  void remove(std::uint32_t id, Vec2 recorded_p) { erase_from(cell_of(recorded_p), id); }

  /// Re-bins `id` after a position change; `from` must be the position the
  /// id was inserted/last moved with. Returns true when the id crossed a
  /// cell boundary (the signal that cached link budgets keyed on this id's
  /// epoch must be recomputed).
  bool move(std::uint32_t id, Vec2 from, Vec2 to) {
    const Cell a = cell_of(from);
    const Cell b = cell_of(to);
    if (a == b) return false;
    erase_from(a, id);
    bin_of(b).push_back(id);
    return true;
  }

  /// Visits every id whose cell overlaps the disc (center, radius). The
  /// visit set is a superset of the ids within `radius` of `center`: ids in
  /// overlapping cells but outside the disc are visited too, so callers must
  /// re-check exact distances when it matters.
  template <typename Visit>
  void for_each_in_disc(Vec2 center, double radius, Visit&& visit) const {
    const Cell lo = cell_of({center.x - radius, center.y - radius});
    const Cell hi = cell_of({center.x + radius, center.y + radius});
    for (std::int32_t cy = lo.y; cy <= hi.y; ++cy) {
      for (std::int32_t cx = lo.x; cx <= hi.x; ++cx) {
        const auto it = bins_.find(key(Cell{cx, cy}));
        if (it == bins_.end()) continue;
        for (const std::uint32_t id : it->second) visit(id);
      }
    }
  }

  [[nodiscard]] std::size_t occupied_cells() const {
    std::size_t n = 0;
    for (const auto& [k, bin] : bins_) n += bin.empty() ? 0 : 1;
    return n;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& [k, bin] : bins_) n += bin.size();
    return n;
  }

 private:
  [[nodiscard]] static std::uint64_t key(Cell c) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.x)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.y));
  }

  [[nodiscard]] std::vector<std::uint32_t>& bin_of(Cell c) { return bins_[key(c)]; }

  void erase_from(Cell c, std::uint32_t id) {
    auto& bin = bins_[key(c)];
    for (auto& slot : bin) {
      if (slot == id) {
        slot = bin.back();  // order within a bin is irrelevant
        bin.pop_back();
        return;
      }
    }
  }

  double cell_size_m_;
  /// Bins keep their capacity when emptied, so cell churn stops allocating
  /// once every bin has seen its peak occupancy.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> bins_;
};

}  // namespace rst::geo
