// City-scale experiment 4: multi-hop GBC DENM delivery across a coverage
// gap. A single RSU at the west end of a long corridor triggers a
// geo-broadcast DENM scoped to the whole corridor. A parked relay chain
// under its coverage must receive it through GN forwarding; a parked
// cluster across a real radio gap must only be reachable once a crossing
// vehicle carries the DENM over and keep-alive-forwards it (the
// store-carry-forward substrate).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "rst/scenario/city.hpp"

namespace rst {
namespace {

using scenario::CitySpec;
using sim::SimTime;

CitySpec gap_corridor() {
  CitySpec spec;
  spec.seed = 31;
  spec.blocks_x = 6;
  spec.blocks_y = 2;
  spec.block_m = 120.0;  // 720 m corridor
  spec.path_loss_exponent = 3.5;  // street canyon: ~131 m link budget range
  spec.vehicle_speed_mps = 8.0;
  return spec;
}

// The mover crosses 720 m at 8 m/s (90 s) and must linger in the far
// cluster long enough for keep-alive retransmissions.
constexpr auto kDuration = SimTime::seconds(100);

TEST(CityDelivery, CoverageGapIsReal) {
  const auto report = scenario::run_delivery_experiment(gap_corridor(), SimTime::seconds(1));
  // Deterministic precondition: the best direct RSU -> far-cluster link
  // budget must sit far below receiver sensitivity, otherwise the
  // experiment would not prove anything about forwarding.
  EXPECT_LT(report.best_direct_far_budget_dbm, -100.0);
}

TEST(CityDelivery, ForwardingAndCarryDeliverAcrossTheGap) {
  const auto report = scenario::run_delivery_experiment(gap_corridor(), kDuration);

  ASSERT_GT(report.near_targets, 0);
  ASSERT_GT(report.far_targets, 0);

  // Inside coverage the relay chain must be fully served, quickly.
  EXPECT_EQ(report.near_delivered, report.near_targets);
  EXPECT_GT(report.first_near_delivery, SimTime::zero());
  EXPECT_LT(report.first_near_delivery, SimTime::seconds(5));

  // Across the gap only the carrier can deliver: everyone in the far
  // cluster eventually gets the DENM, but only after the mover has
  // physically crossed — tens of seconds after the near chain.
  EXPECT_EQ(report.far_delivered, report.far_targets);
  EXPECT_GT(report.first_far_delivery, report.first_near_delivery + SimTime::seconds(10));

  // Both mechanisms must actually have fired.
  EXPECT_GT(report.gn_forwarded, 0u) << "multi-hop GN forwarding never happened";
  EXPECT_GT(report.kaf_retransmissions, 0u) << "keep-alive forwarding never happened";
}

TEST(CityDelivery, ShortRunDeliversNearButNotFar) {
  // Before the mover can possibly reach the far cluster, the gap must
  // still be unbridged — delivery there must come from carry, not leakage.
  const auto report = scenario::run_delivery_experiment(gap_corridor(), SimTime::seconds(20));
  EXPECT_EQ(report.near_delivered, report.near_targets);
  EXPECT_EQ(report.far_delivered, 0);
}

TEST(CityDelivery, ReportIsBitStableAcrossReruns) {
  const auto a = scenario::run_delivery_experiment(gap_corridor(), kDuration);
  const auto b = scenario::run_delivery_experiment(gap_corridor(), kDuration);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.first_far_delivery, b.first_far_delivery);
  EXPECT_EQ(a.kaf_retransmissions, b.kaf_retransmissions);
}

// --- The city spec format (shared by every city experiment) ---------------

TEST(CitySpecFormat, FormatParseRoundTrips) {
  CitySpec spec = gap_corridor();
  spec.seed = 0xDEADBEEFCAFEull;
  spec.shadowing_sigma_db = 3.25;
  spec.rsu_cam_interval = SimTime::milliseconds(80);
  spec.enable_kaf = true;

  const CitySpec back = scenario::parse_city_spec(scenario::format_city_spec(spec));
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.blocks_x, spec.blocks_x);
  EXPECT_EQ(back.block_m, spec.block_m);
  EXPECT_EQ(back.shadowing_sigma_db, spec.shadowing_sigma_db);
  EXPECT_EQ(back.rsu_cam_interval, spec.rsu_cam_interval);
  EXPECT_EQ(back.enable_kaf, spec.enable_kaf);
  EXPECT_EQ(back.path_loss_exponent, spec.path_loss_exponent);
  // Idempotence: formatting the round-tripped spec reproduces the text.
  EXPECT_EQ(scenario::format_city_spec(back), scenario::format_city_spec(spec));
}

TEST(CitySpecFormat, RemovedMediumKeysAreUnknown) {
  // The partition count, the grid cell override, the culling switch and
  // the obstacle-index switch no longer exist: a spec still naming them
  // (with a value the old key accepted) must fail loud instead of running
  // without them.
  const std::pair<std::string, std::string> removed[] = {{"partitions", "4"},
                                                         {"grid_cell_m", "4"},
                                                         {"spatial_index", "true"},
                                                         {"obstacle_index", "false"}};
  for (const auto& [key, value] : removed) {
    EXPECT_THROW((void)scenario::parse_city_spec(key + " = " + value + "\n"),
                 std::invalid_argument)
        << key;
    for (const auto& [known, help] : scenario::city_spec_keys()) EXPECT_NE(known, key);
  }
}

}  // namespace
}  // namespace rst
