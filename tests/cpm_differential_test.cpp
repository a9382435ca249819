// Differential harness for the Collective Perception service.
//
// Two contracts, proven side by side:
//  * CPM OFF is free: with the feature disabled (default, or explicitly via
//    config/spec keys) every default-path artifact — the pinned Table II /
//    Table III renderings and the city experiment fingerprints — stays byte
//    identical to the seed repo. Building the CPM machinery must not move a
//    single stochastic draw.
//  * CPM ON is deterministic: the fused-hazard scenarios and a CPM-enabled
//    campaign are bit-reproducible across reruns and trial-pool thread
//    counts.

#include <gtest/gtest.h>

#include <string>

#include "rst/core/config_io.hpp"
#include "rst/core/experiment.hpp"
#include "rst/scenario/city.hpp"
#include "rst/scenario/cpm_scenarios.hpp"

namespace rst {
namespace {

using scenario::CitySpec;
using sim::SimTime;

// Pinned seed renderings, duplicated from golden_output_test.cpp on
// purpose: if a CPM change regenerates one copy without the other, the
// disagreement itself is the review flag.
const std::string kGoldenTable2 =
    "Table II: Time interval measurements (ms)\n"
    "  Interval                         run#1  run#2  run#3  run#4  run#5    Avg\n"
    "  #2->#3 Detection -> RSU DENM     31.8   23.2   22.0   28.8   19.7   25.1\n"
    "  #3->#4 RSU DENM -> OBU recv       1.1    0.8    0.9    0.8    1.0    0.9\n"
    "  #4->#5 OBU recv -> actuators     25.3   50.4   34.5   29.7   50.2   38.0\n"
    "  Total delay (#2->#5)             58.2   74.4   57.4   59.3   70.9   64.1\n"
    "  paper: 27.6 / 1.6 / 29.2 / 58.4 ms avg over 5 runs; all totals < 100 ms\n";

const std::string kGoldenTable3 =
    "Table III: Distance travelled from detection to halt (m)\n"
    "  run#1: 0.33  run#2: 0.35  run#3: 0.38  run#4: 0.37  run#5: 0.36  \n"
    "  avg 0.359 m, variance 0.0004 (paper: avg 0.36 m, var 0.0022)\n";

CitySpec small_city() {
  CitySpec spec;
  spec.seed = 11;
  spec.blocks_x = 2;
  spec.blocks_y = 2;
  spec.block_m = 120.0;
  spec.vehicles = 0;
  spec.rsu_corridor_only = true;
  spec.rsu_every = 2;
  spec.vehicle_speed_mps = 12.0;
  return spec;
}

constexpr auto kDriveTime = SimTime::seconds(20);

// --- CPM off: byte identity with the seed -----------------------------------

TEST(CpmDifferential, ExplicitCpmOffMatchesTheGoldenTables) {
  core::TestbedConfig config;
  config.seed = 42;
  // The cpm_* knobs must be inert while cpm_enable is off: no construction,
  // no draws, no schedule changes.
  core::apply_config_overrides(config,
                               "cpm_enable = false\n"
                               "cpm_interval_ms = 100\n"
                               "cpm_object_lifetime_ms = 900\n"
                               "cpm_redundancy_window_ms = 250\n");
  const auto summary = core::run_emergency_brake_experiment(config, 5, 1);
  EXPECT_EQ(core::format_table2(summary), kGoldenTable2);
  EXPECT_EQ(core::format_table3(summary), kGoldenTable3);
}

TEST(CpmDifferential, SpecRoundTripWithCpmKeysPreservesCityFingerprints) {
  const CitySpec base = small_city();
  const CitySpec parsed = scenario::parse_city_spec(scenario::format_city_spec(base));
  EXPECT_FALSE(parsed.cpm_enable);

  const auto fp_base = scenario::run_handover_experiment(base, kDriveTime).fingerprint();
  const auto fp_parsed = scenario::run_handover_experiment(parsed, kDriveTime).fingerprint();
  EXPECT_EQ(fp_base, fp_parsed);
}

TEST(CpmDifferential, CpmConstructionDrawsNothingFromTheCityStack) {
  // Coverage is measured without running services: the fingerprint can only
  // differ if merely *constructing* the CPM services moved an RNG stream.
  CitySpec with_cpm = small_city();
  with_cpm.cpm_enable = true;
  scenario::CityScenario off{small_city()};
  scenario::CityScenario on{with_cpm};
  EXPECT_EQ(scenario::measure_coverage(off, 0, 10.0).fingerprint(),
            scenario::measure_coverage(on, 0, 10.0).fingerprint());
}

// --- CPM on: bit reproducibility --------------------------------------------

TEST(CpmDifferential, OccludedPedestrianIsBitReproducible) {
  const auto on_a = scenario::run_occluded_pedestrian(42, true);
  const auto on_b = scenario::run_occluded_pedestrian(42, true);
  EXPECT_EQ(on_a.fingerprint(), on_b.fingerprint());

  const auto off_a = scenario::run_occluded_pedestrian(42, false);
  const auto off_b = scenario::run_occluded_pedestrian(42, false);
  EXPECT_EQ(off_a.fingerprint(), off_b.fingerprint());
  EXPECT_NE(on_a.fingerprint(), off_a.fingerprint());
}

TEST(CpmDifferential, BlindIntersectionIsBitReproducible) {
  const auto on_a = scenario::run_blind_intersection(7, true);
  const auto on_b = scenario::run_blind_intersection(7, true);
  EXPECT_EQ(on_a.fingerprint(), on_b.fingerprint());

  const auto off_a = scenario::run_blind_intersection(7, false);
  const auto off_b = scenario::run_blind_intersection(7, false);
  EXPECT_EQ(off_a.fingerprint(), off_b.fingerprint());
  EXPECT_NE(on_a.fingerprint(), off_a.fingerprint());
}

TEST(CpmDifferential, CpmOnCampaignIsThreadCountInvariant) {
  core::TestbedConfig config;
  config.seed = 42;
  core::apply_config_overrides(config, "cpm_enable = true\ncpm_interval_ms = 100\n");
  const auto serial = core::run_emergency_brake_experiment(config, 5, 1);
  const auto pooled = core::run_emergency_brake_experiment(config, 5, 8);
  EXPECT_EQ(core::format_table2(serial), core::format_table2(pooled));
  EXPECT_EQ(core::format_table3(serial), core::format_table3(pooled));
  // The CPM traffic shares the medium with the DENM chain, so the CPM-on
  // rendering must differ from the pinned CPM-off tables — if it didn't,
  // the feature flag would not actually be reaching the stack.
  EXPECT_NE(core::format_table2(serial), kGoldenTable2);
}

}  // namespace
}  // namespace rst
