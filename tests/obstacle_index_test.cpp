// The geo::ObstacleGrid ray index is a pure accelerator. Three layers of
// proof:
//
//  1. The exact segments_intersect contract is pinned (collinear overlap,
//     shared endpoints, T-touches, zero-length degenerate segments) before
//     anything relies on it.
//  2. Property equivalence: ObstacleShadowingModel answers — is_nlos,
//     walls_crossed and bitwise loss_db — match the brute-force oracle
//     (brute_force_obstacles.hpp) on ~200 random wall soups and a battery of
//     adversarial rays (collinear with a wall, endpoint-touching,
//     axis-aligned along a cell boundary, zero-length), across cell sizes
//     including the derived default.
//  3. End-to-end: every RSU/vehicle link of a small city at several
//     simulated times, its coverage raster and the walled testbed's
//     camera/RSU/OBU links match the oracle bit for bit, the index
//     engagement counter proves the fast path actually ran, and the city
//     experiments and testbed tables reproduce the brute-force runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "brute_force_obstacles.hpp"
#include "rst/core/experiment.hpp"
#include "rst/core/testbed.hpp"
#include "rst/dot11p/channel.hpp"
#include "rst/dot11p/medium.hpp"
#include "rst/dot11p/radio.hpp"
#include "rst/geo/obstacle_grid.hpp"
#include "rst/scenario/city.hpp"

namespace rst {
namespace {

using dot11p::ObstacleShadowingModel;
using dot11p::Wall;
using geo::Vec2;

// --- 1. segments_intersect contract ----------------------------------------

TEST(ObstacleIndex, SegmentsIntersectProperCrossing) {
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 10}, {0, 10}, {10, 0}));
  EXPECT_FALSE(geo::segments_intersect({0, 0}, {10, 10}, {20, 0}, {30, 10}));
}

TEST(ObstacleIndex, SegmentsIntersectSharedEndpointCounts) {
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 0}, {10, 0}, {20, 5}));
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 0}, {0, 0}, {-5, -5}));
}

TEST(ObstacleIndex, SegmentsIntersectTTouchCounts) {
  // Endpoint of cd lies in the interior of ab.
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 0}, {5, 0}, {5, 7}));
  // Endpoint of ab lies in the interior of cd.
  EXPECT_TRUE(geo::segments_intersect({5, 0}, {5, 7}, {0, 7}, {10, 7}));
}

TEST(ObstacleIndex, SegmentsIntersectCollinearOverlapCounts) {
  // Proper overlap.
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 0}, {5, 0}, {15, 0}));
  // Containment.
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 0}, {2, 0}, {8, 0}));
  // Single shared point, collinear.
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 0}, {10, 0}, {20, 0}));
  // Collinear but disjoint.
  EXPECT_FALSE(geo::segments_intersect({0, 0}, {10, 0}, {11, 0}, {20, 0}));
  // Parallel, not collinear.
  EXPECT_FALSE(geo::segments_intersect({0, 0}, {10, 0}, {0, 1}, {10, 1}));
}

TEST(ObstacleIndex, SegmentsIntersectZeroLengthDegeneratesToPoint) {
  // Point on the segment interior / endpoint.
  EXPECT_TRUE(geo::segments_intersect({5, 0}, {5, 0}, {0, 0}, {10, 0}));
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 0}, {10, 0}, {10, 0}));
  // Point off the segment.
  EXPECT_FALSE(geo::segments_intersect({5, 1}, {5, 1}, {0, 0}, {10, 0}));
  // Two coincident points / two distinct points.
  EXPECT_TRUE(geo::segments_intersect({3, 3}, {3, 3}, {3, 3}, {3, 3}));
  EXPECT_FALSE(geo::segments_intersect({3, 3}, {3, 3}, {4, 4}, {4, 4}));
}

// --- 2. indexed model vs brute-force oracle --------------------------------

dot11p::LogDistanceModel soup_base() { return dot11p::LogDistanceModel::its_g5(2.5); }

std::unique_ptr<ObstacleShadowingModel> make_model(const std::vector<Wall>& walls,
                                                   double cell_m = 0.0) {
  return std::make_unique<ObstacleShadowingModel>(
      std::make_unique<dot11p::LogDistanceModel>(soup_base()), walls, cell_m);
}

/// One wall soup: `n` random segments in a [-extent, extent] square, with a
/// sprinkle of axis-aligned and cell-boundary-aligned walls.
std::vector<Wall> random_soup(std::mt19937_64& rng, int n, double extent, double cell_m) {
  std::uniform_real_distribution<double> pos{-extent, extent};
  std::uniform_real_distribution<double> len{0.0, extent / 2};
  std::uniform_real_distribution<double> loss{1.0, 40.0};
  std::vector<Wall> walls;
  walls.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Wall w;
    w.a = {pos(rng), pos(rng)};
    switch (i % 4) {
      case 0:  // free segment
        w.b = {pos(rng), pos(rng)};
        break;
      case 1:  // horizontal
        w.b = {w.a.x + len(rng), w.a.y};
        break;
      case 2:  // vertical
        w.b = {w.a.x, w.a.y + len(rng)};
        break;
      default:  // sitting exactly on a grid-cell boundary line
        w.a.y = std::floor(w.a.y / cell_m) * cell_m;
        w.b = {w.a.x + len(rng), w.a.y};
        break;
    }
    w.obstruction_loss_db = loss(rng);
    walls.push_back(w);
  }
  return walls;
}

/// Rays that historically break grid walkers: collinear with walls,
/// touching endpoints, axis-aligned on cell boundaries, zero-length.
std::vector<std::pair<Vec2, Vec2>> adversarial_rays(const std::vector<Wall>& walls,
                                                    std::mt19937_64& rng, double extent,
                                                    double cell_m) {
  std::uniform_real_distribution<double> pos{-extent, extent};
  std::uniform_int_distribution<std::size_t> pick{0, walls.size() - 1};
  std::vector<std::pair<Vec2, Vec2>> rays;
  for (int i = 0; i < 8; ++i) rays.emplace_back(Vec2{pos(rng), pos(rng)}, Vec2{pos(rng), pos(rng)});
  const Wall& w = walls[pick(rng)];
  // Collinear with a wall (extends beyond both ends).
  const Vec2 d{w.b.x - w.a.x, w.b.y - w.a.y};
  rays.emplace_back(Vec2{w.a.x - d.x, w.a.y - d.y}, Vec2{w.b.x + d.x, w.b.y + d.y});
  // Exactly the wall.
  rays.emplace_back(w.a, w.b);
  // Endpoint-touching: ray ends exactly on a wall endpoint.
  rays.emplace_back(Vec2{pos(rng), pos(rng)}, w.a);
  rays.emplace_back(w.b, Vec2{pos(rng), pos(rng)});
  // Axis-aligned along a cell boundary.
  const double boundary = std::floor(pos(rng) / cell_m) * cell_m;
  rays.emplace_back(Vec2{-extent, boundary}, Vec2{extent, boundary});
  rays.emplace_back(Vec2{boundary, -extent}, Vec2{boundary, extent});
  // Zero-length rays, one of them on a wall endpoint.
  rays.emplace_back(Vec2{pos(rng), pos(rng)}, rays.back().first);
  const Vec2 p{pos(rng), pos(rng)};
  rays.emplace_back(p, p);
  rays.emplace_back(w.a, w.a);
  return rays;
}

TEST(ObstacleIndex, IndexedMatchesBruteForceOnRandomSoups) {
  std::mt19937_64 rng{0xc0ffee};
  const double cell_sizes[] = {0.0, 7.0, 25.0, 250.0};  // 0 = derived
  const dot11p::LogDistanceModel base = soup_base();
  int soups = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const int n = 1 + static_cast<int>(rng() % 64);
    const double extent = 50.0 + static_cast<double>(rng() % 400);
    const double cell_m = cell_sizes[rep % 4];
    const double boundary_cell = cell_m > 0.0 ? cell_m : 64.0;
    const std::vector<Wall> walls = random_soup(rng, n, extent, boundary_cell);
    const auto indexed = make_model(walls, cell_m);
    ASSERT_NE(indexed->index(), nullptr);
    ++soups;
    for (const auto& [a, b] : adversarial_rays(walls, rng, extent, boundary_cell)) {
      const auto oracle = dot11p::brute_force_loss_and_depth(base, walls, a, b);
      ASSERT_EQ(indexed->walls_crossed(a, b), oracle.depth)
          << "soup " << rep << " cell " << cell_m << " ray (" << a.x << "," << a.y << ")->("
          << b.x << "," << b.y << ")";
      ASSERT_EQ(indexed->is_nlos(a, b), oracle.depth > 0);
      // Bitwise: the indexed walk must reproduce the exact accumulation.
      ASSERT_EQ(indexed->loss_db(a, b), oracle.loss_db)
          << "soup " << rep << " cell " << cell_m << " crossed " << oracle.depth;
      const auto ld = indexed->loss_and_depth(a, b);
      ASSERT_EQ(ld.loss_db, oracle.loss_db);
      ASSERT_EQ(ld.depth, oracle.depth);
    }
  }
  ASSERT_EQ(soups, 200);
}

TEST(ObstacleIndex, GridCandidatesSupersetCrossings) {
  // The grid may over-report candidates but never miss a crossing, and
  // candidates arrive deduplicated in ascending id order.
  std::mt19937_64 rng{42};
  const std::vector<Wall> walls = random_soup(rng, 48, 200.0, 16.0);
  std::vector<geo::Segment> segments;
  for (const Wall& w : walls) segments.push_back({w.a, w.b});
  const geo::ObstacleGrid grid{segments, 16.0};
  const dot11p::LogDistanceModel base = soup_base();
  std::uniform_real_distribution<double> pos{-220.0, 220.0};
  for (int rep = 0; rep < 500; ++rep) {
    const Vec2 a{pos(rng), pos(rng)};
    const Vec2 b{pos(rng), pos(rng)};
    std::vector<std::uint32_t> candidates;
    grid.for_each_candidate(a, b, [&](std::uint32_t id) { candidates.push_back(id); });
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      ASSERT_LT(candidates[i - 1], candidates[i]) << "not ascending/deduplicated";
    }
    // Candidates are distinct, so a crossing missing from them would leave
    // fewer crossing candidates than the oracle counts crossing walls.
    const auto crossing_candidates =
        std::count_if(candidates.begin(), candidates.end(), [&](std::uint32_t id) {
          return geo::segments_intersect(a, b, segments[id].a, segments[id].b);
        });
    const std::uint32_t oracle_crossings =
        dot11p::brute_force_loss_and_depth(base, walls, a, b).depth;
    ASSERT_EQ(static_cast<std::uint32_t>(crossing_candidates), oracle_crossings)
        << "a crossing wall is missing from the candidate set";
    ASSERT_EQ(grid.crossings(a, b), oracle_crossings);
  }
}

TEST(ObstacleIndex, DerivedCellSizeAndCounters) {
  std::vector<Wall> walls;
  walls.push_back({{0, 0}, {30, 0}, 20.0});
  walls.push_back({{0, 10}, {0, 40}, 20.0});
  const auto indexed = make_model(walls);
  ASSERT_NE(indexed->index(), nullptr);
  EXPECT_DOUBLE_EQ(indexed->index()->cell_size_m(), 30.0);  // mean dominant extent
  EXPECT_EQ(indexed->index()->segment_count(), 2u);
  EXPECT_EQ(indexed->index_queries(), 0u);
  (void)indexed->walls_crossed({-5, 5}, {50, 5});
  (void)indexed->loss_db({-5, 5}, {50, 5});
  EXPECT_EQ(indexed->index_queries(), 2u);

  // No walls: nothing to index, nothing crossed, no query counted.
  const auto empty = make_model({});
  EXPECT_EQ(empty->index(), nullptr);
  EXPECT_EQ(empty->walls_crossed({0, 0}, {1, 1}), 0u);
  EXPECT_EQ(empty->index_queries(), 0u);
}

// --- 3. end-to-end: indexed runs reproduce the brute-force runs -------------
//
// Each experiment below used to run twice, index on and off, and compare.
// The brute-force scan now lives only in the oracle, so each test checks the
// links its experiment measures against the oracle bit for bit, and pins the
// result the index-off run produced (equal to the index-on result) before the
// scan left the library.

constexpr std::uint64_t kBruteForceCoverageFingerprint = 0x3cc58736eab94448ULL;
constexpr std::uint64_t kBruteForceHandoverFingerprint = 0x91d3059ca8fda6adULL;
constexpr std::uint64_t kBruteForceCbrSweepFingerprint = 0x4e46d4373501aa85ULL;
constexpr std::uint64_t kBruteForceDeliveryFingerprint = 0x2a7c68709143ddb3ULL;

scenario::CitySpec small_city() {
  scenario::CitySpec spec;
  spec.seed = 11;
  spec.blocks_x = 3;
  spec.blocks_y = 3;
  spec.block_m = 100.0;
  spec.vehicles = 8;
  spec.rsu_every = 3;
  return spec;
}

/// Compares one link against the oracle, bit for bit, through
/// `loss_and_depth` and through the `loss_db`/`walls_crossed` entry points
/// the medium and the coverage raster call; counts NLOS links so the caller
/// can prove the sample is not all line-of-sight.
::testing::AssertionResult matches_oracle(const ObstacleShadowingModel& model,
                                          const dot11p::PathLossModel& base, Vec2 tx, Vec2 rx,
                                          std::size_t& nlos) {
  const auto got = model.loss_and_depth(tx, rx);
  const auto want = dot11p::brute_force_loss_and_depth(base, model.walls(), tx, rx);
  if (want.depth > 0) ++nlos;
  if (got.loss_db == want.loss_db && got.depth == want.depth &&
      model.loss_db(tx, rx) == want.loss_db && model.walls_crossed(tx, rx) == want.depth) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "link (" << tx.x << "," << tx.y << ")->(" << rx.x << "," << rx.y << "): indexed "
         << got.loss_db << " dB / " << got.depth << " walls, oracle " << want.loss_db << " dB / "
         << want.depth << " walls";
}

/// The map `measure_coverage` returns when every link goes through the
/// oracle: the same raster, with receive power and wall count recomputed
/// from the brute-force scan the way the medium and the raster compute them.
scenario::CoverageMap oracle_coverage(scenario::CityScenario& city,
                                      const scenario::CoverageMap& indexed,
                                      const dot11p::PathLossModel& base) {
  scenario::CoverageMap map = indexed;
  const dot11p::RadioConfig& rsu = city.rsu(map.rsu_index).radio().config();
  const dot11p::RadioConfig probe;
  std::size_t covered = 0;
  for (auto& s : map.samples) {
    const auto want =
        dot11p::brute_force_loss_and_depth(base, city.obstacles()->walls(), map.rsu_pos, s.pos);
    s.rssi_dbm = rsu.tx_power_dbm + rsu.antenna_gain_dbi + probe.antenna_gain_dbi - want.loss_db;
    s.walls_crossed = want.depth;
    if (s.rssi_dbm >= map.sensitivity_dbm) ++covered;
  }
  map.covered_fraction =
      map.samples.empty() ? 0.0 : static_cast<double>(covered) / map.samples.size();
  return map;
}

TEST(ObstacleIndex, CoverageFingerprintIdenticalIndexOnOff) {
  scenario::CityScenario city{small_city()};
  const ObstacleShadowingModel* model = city.obstacles();
  ASSERT_NE(model, nullptr);
  ASSERT_NE(model->index(), nullptr);
  const auto base = dot11p::LogDistanceModel::its_g5(city.spec().path_loss_exponent);
  std::size_t links = 0;
  std::size_t nlos = 0;
  for (std::size_t r = 0; r < city.rsu_count(); ++r) {
    const auto map = scenario::measure_coverage(city, r, 15.0);
    for (const auto& sample : map.samples) {
      ++links;
      ASSERT_TRUE(matches_oracle(*model, base, map.rsu_pos, sample.pos, nlos));
    }
    EXPECT_EQ(map.fingerprint(), oracle_coverage(city, map, base).fingerprint()) << "RSU " << r;
    if (r == 0) {
      EXPECT_EQ(map.fingerprint(), kBruteForceCoverageFingerprint);
    }
  }
  EXPECT_GT(model->index_queries(), 0u);
  // Not a vacuous sample: both line-of-sight and walled links occur.
  EXPECT_GT(nlos, 0u);
  EXPECT_LT(nlos, links);
}

TEST(ObstacleIndex, HandoverFingerprintIdenticalIndexOnOff) {
  const auto report = scenario::run_handover_experiment(small_city(), sim::SimTime::seconds(5));
  EXPECT_EQ(report.fingerprint(), kBruteForceHandoverFingerprint);

  // Every RSU/vehicle pair, both directions, while the city runs.
  scenario::CityScenario city{small_city()};
  const ObstacleShadowingModel* model = city.obstacles();
  ASSERT_NE(model, nullptr);
  const auto base = dot11p::LogDistanceModel::its_g5(city.spec().path_loss_exponent);
  std::size_t links = 0;
  std::size_t nlos = 0;
  city.start();
  for (const std::int64_t ms : {0, 1500, 3000, 4500}) {
    city.scheduler().run_until(sim::SimTime::milliseconds(ms));
    for (std::size_t r = 0; r < city.rsu_count(); ++r) {
      for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
        links += 2;
        const Vec2 rsu = city.rsu_position(r);
        const Vec2 vehicle = city.vehicle_position(v);
        ASSERT_TRUE(matches_oracle(*model, base, rsu, vehicle, nlos)) << "at " << ms << " ms";
        ASSERT_TRUE(matches_oracle(*model, base, vehicle, rsu, nlos)) << "at " << ms << " ms";
      }
    }
  }
  EXPECT_GT(model->index_queries(), 0u);
  EXPECT_GT(nlos, 0u);
  EXPECT_LT(nlos, links);
}

TEST(ObstacleIndex, CbrSweepFingerprintIdenticalIndexOnOff) {
  const std::vector<int> densities{4, 8};
  const auto curve = scenario::run_cbr_sweep(small_city(), densities, sim::SimTime::seconds(2));
  EXPECT_EQ(scenario::cbr_sweep_fingerprint(curve), kBruteForceCbrSweepFingerprint);
}

TEST(ObstacleIndex, DeliveryFingerprintIdenticalIndexOnOff) {
  // Every station of this run sits on the corridor street, so its links are
  // line of sight; the pin guards the NLOS-free path through the index.
  const auto report = scenario::run_delivery_experiment(small_city(), sim::SimTime::seconds(5));
  EXPECT_EQ(report.fingerprint(), kBruteForceDeliveryFingerprint);
}

TEST(ObstacleIndex, EmergencyBrakeTablesIdenticalIndexOnOff) {
  // The lab testbed with walls between the OBU's track and the roadside
  // (y = 4 m) and between the camera and the RSU (x = 0.25 m).
  core::TestbedConfig cfg;
  cfg.walls = {{{-2.0, 4.0}, {2.0, 4.0}, 8.0}, {{0.25, 7.0}, {0.25, 9.0}, 6.0}};

  // Tables of the brute-force run with these walls.
  const std::string brute_table2 =
      "Table II: Time interval measurements (ms)\n"
      "  Interval                         run#1  run#2  run#3    Avg\n"
      "  #2->#3 Detection -> RSU DENM     28.3   25.6   27.9   27.3\n"
      "  #3->#4 RSU DENM -> OBU recv       0.9    0.7    0.9    0.8\n"
      "  #4->#5 OBU recv -> actuators     26.2   43.8   26.0   32.0\n"
      "  Total delay (#2->#5)             55.4   70.2   54.8   60.1\n"
      "  paper: 27.6 / 1.6 / 29.2 / 58.4 ms avg over 5 runs; all totals < 100 ms\n";
  const std::string brute_table3 =
      "Table III: Distance travelled from detection to halt (m)\n"
      "  run#1: 0.32  run#2: 0.34  run#3: 0.37  \n"
      "  avg 0.344 m, variance 0.0005 (paper: avg 0.36 m, var 0.0022)\n";
  const auto walled = core::run_emergency_brake_experiment(cfg, 3, 1);
  EXPECT_EQ(core::format_table2(walled), brute_table2);
  EXPECT_EQ(core::format_table3(walled), brute_table3);
  // The walls shape the trial (they also occlude the camera and lidar):
  // without them the tables differ.
  const auto open = core::run_emergency_brake_experiment(core::TestbedConfig{}, 3, 1);
  EXPECT_NE(core::format_table2(open), brute_table2);

  // The camera/RSU/OBU links of a walled trial, against the oracle.
  core::TestbedScenario testbed{cfg};
  const auto* model =
      dynamic_cast<const ObstacleShadowingModel*>(testbed.medium().channel().path_loss.get());
  ASSERT_NE(model, nullptr);
  const auto base = dot11p::LogDistanceModel::its_g5(cfg.path_loss_exponent);
  std::size_t links = 1;
  std::size_t nlos = 0;
  ASSERT_TRUE(matches_oracle(*model, base, cfg.camera_position, cfg.rsu_position, nlos));
  testbed.start_services();
  for (std::int64_t ms = 0; ms <= 6000; ms += 250) {
    testbed.scheduler().run_until(sim::SimTime::milliseconds(ms));
    const Vec2 obu = testbed.dynamics().position();
    for (const Vec2 roadside : {cfg.camera_position, cfg.rsu_position}) {
      links += 2;
      ASSERT_TRUE(matches_oracle(*model, base, roadside, obu, nlos)) << "at " << ms << " ms";
      ASSERT_TRUE(matches_oracle(*model, base, obu, roadside, nlos)) << "at " << ms << " ms";
    }
  }
  EXPECT_GT(model->index_queries(), 0u);
  EXPECT_GT(nlos, 0u);
  EXPECT_LT(nlos, links);
}

TEST(Medium, BudgetCacheServesStaticPairsAndInvalidatesOnMotion) {
  // The (tx, rx) budget cache memoizes the full loss, wall walk included,
  // and must drop exactly the pairs whose endpoint moved.
  sim::Scheduler sched;
  sim::RandomStream rng{7, "budget_cache"};
  dot11p::ChannelModel channel;
  std::vector<Wall> walls{{{50.0, -20.0}, {50.0, 20.0}, 15.0}};
  channel.path_loss = std::make_shared<ObstacleShadowingModel>(
      std::make_unique<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(2.2)), walls);
  dot11p::Medium medium{sched, rng.child("medium"), channel};

  geo::Vec2 mover{100.0, 50.0};
  std::vector<std::unique_ptr<dot11p::Radio>> radios;
  radios.push_back(std::make_unique<dot11p::Radio>(
      medium, dot11p::RadioConfig{}, [] { return geo::Vec2{0.0, 0.0}; }, rng.child("r0"), "r0"));
  radios.push_back(std::make_unique<dot11p::Radio>(
      medium, dot11p::RadioConfig{}, [] { return geo::Vec2{200.0, 0.0}; }, rng.child("r1"), "r1"));
  radios.push_back(std::make_unique<dot11p::Radio>(
      medium, dot11p::RadioConfig{}, [&mover] { return mover; }, rng.child("r2"), "r2"));

  const auto beacon_round = [&] {
    for (std::size_t i = 0; i < radios.size(); ++i) {
      sched.post_in(sim::SimTime::microseconds(static_cast<std::int64_t>(1 + i * 700)),
                    [&medium, &radios, i] {
                      dot11p::Frame f;
                      f.ac = dot11p::AccessCategory::BestEffort;
                      medium.begin_transmission(radios[i].get(), std::move(f), 300);
                    });
    }
    sched.run();
  };

  // Every link clears the power floor, so no pair is culled before its
  // budget lookup.
  beacon_round();  // 3 tx x 2 rx: six distinct pairs, all cold
  EXPECT_EQ(medium.stats().culled_below_floor, 0u);
  EXPECT_EQ(medium.stats().budget_cache_misses, 6u);
  EXPECT_EQ(medium.stats().budget_cache_hits, 0u);

  beacon_round();  // nobody moved: every budget (and wall walk) is cached
  EXPECT_EQ(medium.stats().budget_cache_misses, 6u);
  EXPECT_EQ(medium.stats().budget_cache_hits, 6u);

  mover = {120.0, 50.0};  // motion bumps the slot epoch on next refresh
  beacon_round();  // the four mover pairs recompute, the static pair hits
  EXPECT_EQ(medium.stats().budget_cache_misses, 10u);
  EXPECT_EQ(medium.stats().budget_cache_hits, 8u);
  EXPECT_EQ(medium.stats().culled_below_floor, 0u);
}

}  // namespace
}  // namespace rst
