// Counts heap allocations to prove the spatial medium's steady-state
// transmit path — grid query, cached link budget, pooled transmission
// record, per-receiver interference accumulators — is allocation-free
// once the pools and bins have reached their high-water capacity.
//
// Like scheduler_alloc_test, it links the counting allocator and so lives
// in its own binary.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rst/dot11p/medium.hpp"
#include "rst/dot11p/radio.hpp"

#include "counting_allocator.hpp"

namespace rst::dot11p {
namespace {

using test_support::CountScope;

TEST(MediumAlloc, SpatialTransmitPathIsAllocationFreeInSteadyState) {
  sim::Scheduler sched;
  sim::RandomStream rng{2024, "medium_alloc"};
  ChannelModel channel;
  channel.path_loss = std::make_shared<LogDistanceModel>(LogDistanceModel::its_g5(2.8));
  channel.shadowing_sigma_db = 3.0;
  channel.power_floor_dbm = -95.0;
  Medium medium{sched, rng.child("medium"), channel};

  // A 6x6 lattice at 150 m pitch: each station hears a neighbourhood, not
  // the whole fleet, so the grid query and the floor cull both exercise.
  std::vector<std::unique_ptr<Radio>> radios;
  for (int gy = 0; gy < 6; ++gy) {
    for (int gx = 0; gx < 6; ++gx) {
      const geo::Vec2 pos{gx * 150.0, gy * 150.0};
      const auto idx = radios.size();
      radios.push_back(std::make_unique<Radio>(
          medium, RadioConfig{}, [pos] { return pos; },
          rng.child("radio" + std::to_string(idx)), "radio" + std::to_string(idx)));
    }
  }

  // The steady-state workload bypasses the MAC queue (Radio::send copies a
  // payload by design) and drives the medium directly with header-only
  // frames, the way the MAC hands them over after channel access.
  const auto beacon_round = [&] {
    for (std::size_t i = 0; i < radios.size(); ++i) {
      const auto at = sim::SimTime::microseconds(static_cast<std::int64_t>(1 + i * 700));
      sched.post_in(at, [&medium, &radios, i] {
        Frame f;
        f.ac = AccessCategory::BestEffort;
        medium.begin_transmission(radios[i].get(), std::move(f), 300);
      });
    }
    sched.run();
  };

  // Warm-up: pools, grid bins, budget cache, per-slot active lists and the
  // scheduler's event heap all reach their working-set capacity.
  for (int round = 0; round < 4; ++round) beacon_round();
  ASSERT_GT(medium.stats().budget_cache_hits, 0u);
  ASSERT_GT(medium.stats().culled_below_floor, 0u);

  {
    CountScope scope;
    for (int round = 0; round < 8; ++round) beacon_round();
    EXPECT_EQ(scope.count(), 0u)
        << "spatial transmit path allocated in steady state";
  }
  EXPECT_GT(medium.stats().deliveries, 0u);
}

}  // namespace
}  // namespace rst::dot11p
