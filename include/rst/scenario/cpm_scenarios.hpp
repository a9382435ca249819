#pragma once

#include <cstdint>

#include "rst/sim/time.hpp"

namespace rst::scenario {

// --- CPM scenario 1: occluded pedestrian (network-aided NLOS sensing) -------

/// One run of the occluded-pedestrian scenario: the protagonist drives
/// north along a wall that blocks its (and its LiDAR's) line of sight to a
/// pedestrian approaching the track from the east. The RSU's camera sits
/// past the wall end with a clear view; with CPM enabled its percepts reach
/// the OBU, the on-board collision predictor flags the conflict and the
/// vehicle brakes long before line of sight ever opens.
struct OccludedPedestrianReport {
  bool cpm_enabled{false};
  /// Vehicle commanded a power cut (emergency stop).
  bool braked{false};
  sim::SimTime t_brake{};
  /// First instant the vehicle <-> pedestrian segment cleared the wall.
  bool los_seen{false};
  sim::SimTime t_los{};
  /// First remote percept fused into the OBU's LDM.
  bool fused{false};
  sim::SimTime t_first_fusion{};
  double min_separation_m{0};
  std::uint64_t objects_published{0};
  std::uint64_t objects_fused{0};
  std::uint64_t cpms_sent{0};
  std::uint64_t cpms_received{0};

  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Runs the scenario for 10 simulated seconds.
[[nodiscard]] OccludedPedestrianReport run_occluded_pedestrian(std::uint64_t seed, bool cpm_enable);

// --- CPM scenario 2: blind intersection (station-to-station percepts) -------

/// One run of the blind-intersection scenario: two L-shaped building walls
/// hide an eastbound cyclist from a northbound ITS vehicle. A parked
/// observer station sees the cyclist, publishes it over CPM, and the
/// vehicle's collision predictor fires on the fused percept while the
/// cyclist is still deep behind the corner.
struct BlindIntersectionReport {
  bool cpm_enabled{false};
  /// The vehicle's predictor flagged a conflict on a fused percept.
  bool threat_flagged{false};
  sim::SimTime t_threat{};
  /// Provenance of the percept that raised the threat (the observer's
  /// station id) — proves the hazard came over the air, not local sensing.
  std::uint32_t threat_source{0};
  bool b_braked{false};
  double min_gap_m{0};
  std::uint64_t cpms_sent{0};
  std::uint64_t cpms_received{0};
  std::uint64_t objects_fused{0};

  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Runs the scenario for 6 simulated seconds on a serial medium.
[[nodiscard]] BlindIntersectionReport run_blind_intersection(std::uint64_t seed, bool cpm_enable);

}  // namespace rst::scenario
