// Dense-fleet medium scaling and culling gate: N stations CAM-beaconing at
// 10 Hz for 10 simulated seconds, once through the medium with its grid
// culling (the spatial lane) and once with the same channel behind
// UnculledPathLoss, which forces the full O(N) fan-out per frame (the
// linear lane). Prints wall-clock per lane and the speedup, plus delivery
// stats as a sanity check that the run still simulates a loaded channel
// rather than a silent one.
//
// Culling may only skip links already below the power floor, so the two
// lanes must agree on every outcome counter; the bench exits non-zero when
// they do not. The linear lane is O(N^2) and is skipped above
// kMaxLinearFleet stations.
//
// Usage: bench_dense_fleet [N ...]   (default sizes: 64 256 1024)

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "rst/dot11p/medium.hpp"
#include "rst/dot11p/radio.hpp"
#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"
#include "../tests/unculled_path_loss.hpp"

namespace {

using namespace rst;

constexpr double kBeaconHz = 10.0;
constexpr std::int64_t kSimSeconds = 10;
constexpr std::size_t kCamBytes = 300;
/// Largest fleet the O(N^2) linear lane runs.
constexpr std::size_t kMaxLinearFleet = 1024;

struct RunStats {
  double wall_ms{0.0};
  dot11p::Medium::Stats medium;
  std::uint64_t rx_total{0};
};

struct OutcomeCounter {
  const char* name;
  std::uint64_t dot11p::Medium::Stats::*field;
};
/// Outcome counters the two lanes must agree on.
constexpr OutcomeCounter kOutcomeCounters[] = {
    {"frames_transmitted", &dot11p::Medium::Stats::frames_transmitted},
    {"deliveries", &dot11p::Medium::Stats::deliveries},
    {"dropped_half_duplex", &dot11p::Medium::Stats::dropped_half_duplex},
    {"dropped_below_sensitivity", &dot11p::Medium::Stats::dropped_below_sensitivity},
    {"dropped_error", &dot11p::Medium::Stats::dropped_error},
    {"culled_below_floor", &dot11p::Medium::Stats::culled_below_floor},
};

bool same_outcomes(const dot11p::Medium::Stats& a, const dot11p::Medium::Stats& b) {
  for (const OutcomeCounter& c : kOutcomeCounters) {
    if (a.*c.field != b.*c.field) return false;
  }
  return true;
}

RunStats run_fleet(std::size_t n, bool spatial) {
  sim::Scheduler sched;
  sim::RandomStream rng{987654321, "dense_fleet"};

  // Dense-urban propagation (exponent 3.2): the hearing radius at the
  // -95 dBm floor is ~200 m, so a station's neighbourhood is a few dozen
  // stations while the fleet spans kilometres — the regime grid culling is
  // built for. Flatter exponents inflate the radius until nearly every link
  // is physically relevant and no culling can help. Shadowing
  // keeps a per-link Gaussian draw in every admitted link.
  dot11p::ChannelModel channel;
  auto model = std::make_shared<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(3.2));
  if (spatial) {
    channel.path_loss = std::move(model);
  } else {
    channel.path_loss = std::make_shared<dot11p::UnculledPathLoss>(std::move(model));
  }
  channel.shadowing_sigma_db = 3.0;
  channel.power_floor_dbm = -95.0;
  dot11p::Medium medium{sched, rng.child("medium"), channel};

  // Square lattice at 50 m pitch: the geometry of a saturated urban
  // corridor. Each station hears a neighbourhood; the fleet as a whole is
  // far wider than one hearing radius, so culling has real work to do.
  const auto side = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<std::unique_ptr<dot11p::Radio>> radios;
  std::uint64_t rx_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec2 pos{static_cast<double>(i % side) * 50.0,
                        static_cast<double>(i / side) * 50.0};
    radios.push_back(std::make_unique<dot11p::Radio>(
        medium, dot11p::RadioConfig{}, [pos] { return pos; },
        rng.child("radio" + std::to_string(i)), "radio" + std::to_string(i)));
    radios.back()->set_receive_callback(
        [&rx_total](const dot11p::Frame&, const dot11p::RxInfo&) { ++rx_total; });
  }

  // 10 Hz CAM cadence, transmission phases spread across the period the
  // way ETSI CAM generation decorrelates stations.
  const auto period = sim::SimTime::from_seconds(1.0 / kBeaconHz);
  for (std::size_t i = 0; i < n; ++i) {
    const auto phase = sim::SimTime::microseconds(
        static_cast<std::int64_t>(i) * 100'000 / static_cast<std::int64_t>(n));
    for (std::int64_t k = 0; k < kSimSeconds * static_cast<std::int64_t>(kBeaconHz); ++k) {
      sched.post_at(phase + period * k, [&radios, i] {
        dot11p::Frame f;
        f.payload.assign(kCamBytes, 0xCA);
        f.ac = dot11p::AccessCategory::BestEffort;
        radios[i]->send(std::move(f));
      });
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  sched.run_until(sim::SimTime::seconds(kSimSeconds));
  const auto t1 = std::chrono::steady_clock::now();

  RunStats out;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.medium = medium.stats();
  out.rx_total = rx_total;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> fleet_sizes;
  for (int i = 1; i < argc; ++i) {
    fleet_sizes.push_back(static_cast<std::size_t>(std::strtoul(argv[i], nullptr, 10)));
  }
  if (fleet_sizes.empty()) fleet_sizes = {64, 256, 1024};

  std::printf("dense-fleet medium scaling: %lld s simulated, %.0f Hz CAM, %zu-byte PSDU\n\n",
              static_cast<long long>(kSimSeconds), kBeaconHz, kCamBytes);
  std::printf("%6s  %12s  %12s  %8s  %14s  %14s  %12s\n", "N", "linear (ms)", "spatial (ms)",
              "speedup", "tx frames", "deliveries", "culled");

  for (const std::size_t n : fleet_sizes) {
    const bool linear_lane = n <= kMaxLinearFleet;
    const RunStats linear = linear_lane ? run_fleet(n, /*spatial=*/false) : RunStats{};
    const RunStats spatial = run_fleet(n, /*spatial=*/true);
    if (linear_lane) {
      std::printf("%6zu  %12.1f  %12.1f  %7.2fx", n, linear.wall_ms, spatial.wall_ms,
                  linear.wall_ms / spatial.wall_ms);
    } else {
      std::printf("%6zu  %12s  %12.1f  %8s", n, "skipped", spatial.wall_ms, "-");
    }
    std::printf("  %14llu  %14llu  %12llu\n",
                static_cast<unsigned long long>(spatial.medium.frames_transmitted),
                static_cast<unsigned long long>(spatial.medium.deliveries),
                static_cast<unsigned long long>(spatial.medium.culled_below_floor));
    if (linear_lane && !same_outcomes(linear.medium, spatial.medium)) {
      std::printf("  !! culled and unculled lanes disagree:\n");
      for (const OutcomeCounter& c : kOutcomeCounters) {
        const std::uint64_t unculled = linear.medium.*c.field;
        const std::uint64_t culled = spatial.medium.*c.field;
        std::printf("     %-26s unculled %14llu  culled %14llu%s\n", c.name,
                    static_cast<unsigned long long>(unculled),
                    static_cast<unsigned long long>(culled), unculled != culled ? "  differs" : "");
      }
      return 1;
    }
    if (spatial.rx_total != spatial.medium.deliveries) {
      std::printf("  !! rx callback count %llu disagrees with medium deliveries\n",
                  static_cast<unsigned long long>(spatial.rx_total));
      return 1;
    }
  }
  return 0;
}
