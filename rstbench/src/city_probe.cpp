// City probe of the traced paper_trials run: the medium, geo, ITS and CAM
// codec layers measured on an 8x8-block CityScenario with buildings (256
// walls), 25 RSUs and 200 moving vehicles beaconing 10 Hz CAMs through
// reactive DCC on the spatial medium. No partition knob is set. The city is
// not a workload of its own: its host time moved by about 27% between host
// regimes on shared hosts, beyond the benchmark's bounds (see README.md).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>

#include "bench.hpp"
#include "rst/its/messages/cam.hpp"
#include "rst/scenario/city.hpp"

namespace rstbench {
namespace {

using namespace rst;

/// Simulated time run after start() before the counters are read: the
/// first CAM period, in which the stations come up at their phase offsets.
const sim::SimTime kPreRoll = sim::SimTime::milliseconds(100);
/// Simulated time the probe city runs between its two counter readings.
const sim::SimTime kProbeRun = sim::SimTime::milliseconds(500);
/// Simulated interval of the pinned-fingerprint runs.
const sim::SimTime kReferenceRun = sim::SimTime::milliseconds(400);

scenario::CitySpec city_spec(std::uint64_t seed) {
  scenario::CitySpec spec;
  spec.seed = seed;
  spec.blocks_x = 8;
  spec.blocks_y = 8;
  spec.buildings = true;
  spec.rsu_every = 2;
  spec.vehicles = 200;
  spec.enable_dcc = true;
  return spec;
}

std::unique_ptr<scenario::CityScenario> make_city(std::uint64_t seed) {
  auto city = std::make_unique<scenario::CityScenario>(city_spec(seed));
  city->start();
  return city;
}

/// Stack counters summed over every station.
struct Counters {
  dot11p::Medium::Stats medium{};
  std::uint64_t index_queries{0};
  std::uint64_t gn_delivered{0};
  std::uint64_t cam_tx{0}, cam_rx{0}, cam_decode_errors{0};
  std::uint64_t dcc_passed{0}, dcc_queued{0};
};

Counters read_counters(scenario::CityScenario& city) {
  Counters c;
  c.medium = city.medium().stats();
  c.index_queries = city.obstacles() ? city.obstacles()->index_queries() : 0;
  auto add = [&c](core::ItsStation& s) {
    c.gn_delivered += s.router().stats().delivered_up;
    const auto& ca = s.ca().stats();
    c.cam_tx += ca.cams_sent;
    c.cam_rx += ca.cams_received;
    c.cam_decode_errors += ca.decode_errors;
    if (auto* dcc = s.dcc()) {
      c.dcc_passed += dcc->stats().passed;
      c.dcc_queued += dcc->stats().queued;
    }
  };
  for (std::size_t i = 0; i < city.rsu_count(); ++i) add(city.rsu(i));
  for (std::size_t i = 0; i < city.vehicle_count(); ++i) add(city.vehicle(i));
  return c;
}

/// Fingerprint of what the simulation produced: medium outcomes and the
/// per-station GN, CA and DCC counters in station order. Cache and index
/// counters are left out: they measure how the work was done, not its result.
std::uint64_t fingerprint(scenario::CityScenario& city) {
  std::uint64_t h = fnv1a("city_mobile");
  const auto& m = city.medium().stats();
  for (const std::uint64_t v : {m.frames_transmitted, m.deliveries, m.dropped_half_duplex,
                                m.dropped_below_sensitivity, m.dropped_error}) {
    h = fnv1a_u64(v, h);
  }
  auto add = [&h](core::ItsStation& s) {
    const auto& gn = s.router().stats();
    const auto& ca = s.ca().stats();
    for (const std::uint64_t v : {gn.originated, gn.delivered_up, gn.forwarded,
                                  gn.duplicates_dropped, ca.cams_sent, ca.cams_received}) {
      h = fnv1a_u64(v, h);
    }
    if (auto* dcc = s.dcc()) {
      const auto& d = dcc->stats();
      for (const std::uint64_t v : {d.passed, d.queued, d.dropped_queue_full, d.dropped_expired}) {
        h = fnv1a_u64(v, h);
      }
    }
  };
  for (std::size_t i = 0; i < city.rsu_count(); ++i) add(city.rsu(i));
  for (std::size_t i = 0; i < city.vehicle_count(); ++i) add(city.vehicle(i));
  return h;
}

void reference_check(const Options& opt, Report& report, std::uint64_t seed) {
  auto city = make_city(seed);
  city->scheduler().run_until(kReferenceRun);
  const std::uint64_t got = fingerprint(*city);
  const std::uint64_t want = expected_fingerprint(opt, "city_seed" + std::to_string(seed));
  char detail[200];
  std::snprintf(detail, sizeof detail,
                "city probe: seed-%llu counters fingerprint after %.0f ms is %016llx (pinned "
                "%016llx)",
                static_cast<unsigned long long>(seed), kReferenceRun.to_milliseconds(),
                static_cast<unsigned long long>(got), static_cast<unsigned long long>(want));
  report.check(got == want, detail);
}

/// Per-layer probes on the city's current state.
void probes(const Options& opt, scenario::CityScenario& city, Report& report, Spans& spans) {
  // Sampled station pairs (RSUs and vehicles alike), drawn from the seed.
  struct Node {
    dot11p::Radio* radio;
    geo::Vec2 pos;
  };
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < city.rsu_count(); ++i) {
    nodes.push_back({&city.rsu(i).radio(), city.rsu_position(i)});
  }
  for (std::size_t i = 0; i < city.vehicle_count(); ++i) {
    nodes.push_back({&city.vehicle(i).radio(), city.vehicle_position(i)});
  }
  std::mt19937_64 rng{opt.seed ^ 0x5eedc17ULL};
  std::uniform_int_distribution<std::size_t> pick{0, nodes.size() - 1};
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  while (pairs.size() < 4000) {
    const auto a = pick(rng);
    const auto b = pick(rng);
    if (a != b) pairs.emplace_back(a, b);
  }
  double sink = 0;
  {
    SpanScope s{spans, "dot11p.mean_rx_power", 0};
    report.metric("dot11p.link_budget_ns", ns_per_call(pairs.size(), [&] {
                    for (auto [a, b] : pairs) {
                      sink += city.medium().mean_rx_power_dbm(*nodes[a].radio, *nodes[b].radio);
                    }
                  }),
                  "ns", "Medium::mean_rx_power_dbm on 4000 sampled station pairs");
  }
  const auto* obstacles = city.obstacles();
  double nlos = 0;
  {
    SpanScope s{spans, "geo.loss_db", 0};
    report.metric("geo.loss_db_ns", ns_per_call(pairs.size(), [&] {
                    for (auto [a, b] : pairs) sink += obstacles->loss_db(nodes[a].pos, nodes[b].pos);
                  }),
                  "ns", "ObstacleShadowingModel::loss_db on the same pairs");
    for (auto [a, b] : pairs) nlos += obstacles->is_nlos(nodes[a].pos, nodes[b].pos) ? 1 : 0;
  }
  report.ratio("geo.nlos_link_ratio", nlos, static_cast<double>(pairs.size()));
  {
    SpanScope s{spans, "geo.road_network", 0};
    std::vector<double> ms;
    for (int k = 0; k < 5; ++k) {
      const auto t0 = Clock::now();
      const auto net = scenario::generate_road_network(city.spec());
      ms.push_back(ms_between(t0, Clock::now()));
      sink += static_cast<double>(net.building_walls.size());
    }
    report.metric("geo.road_network_ms", median(ms), "ms", "generate_road_network, median of 5");
  }

  // CAMs built from the vehicles' current states.
  std::vector<its::Cam> cams;
  const sim::SimTime now = city.scheduler().now();
  for (std::size_t i = 0; i < city.vehicle_count(); ++i) {
    const auto& flow = city.network().flows[i];
    const auto geo_pos = city.frame().to_geo(city.vehicle_position(i));
    its::Cam cam;
    cam.header.station_id = city.vehicle(i).id();
    cam.generation_delta_time = static_cast<std::uint16_t>(now.to_milliseconds());
    cam.basic.station_type = its::StationType::PassengerCar;
    cam.basic.reference_position.latitude = geo::to_its_tenth_microdegree(geo_pos.latitude_deg);
    cam.basic.reference_position.longitude = geo::to_its_tenth_microdegree(geo_pos.longitude_deg);
    const double heading_deg = scenario::flow_heading_rad(flow, now) * 180.0 / 3.14159265358979;
    cam.high_frequency.heading.value_01deg =
        static_cast<std::uint16_t>(std::clamp(heading_deg * 10.0, 0.0, 3599.0));
    cam.high_frequency.heading.confidence_01deg = 10;
    cam.high_frequency.speed = its::Speed::from_mps(flow.speed_mps);
    cams.push_back(cam);
  }
  std::vector<std::vector<std::uint8_t>> encoded(cams.size());
  constexpr int kRounds = 50;
  {
    SpanScope s{spans, "asn1.cam_codec", 0};
    report.metric("asn1.cam_encode_ns", ns_per_call(kRounds * cams.size(), [&] {
                    for (int r = 0; r < kRounds; ++r) {
                      for (std::size_t i = 0; i < cams.size(); ++i) encoded[i] = cams[i].encode();
                    }
                  }),
                  "ns", "Cam::encode on CAMs of the 200 vehicles' states");
    std::size_t matches = 0;
    report.metric("asn1.cam_decode_ns", ns_per_call(kRounds * cams.size(), [&] {
                    for (int r = 0; r < kRounds; ++r) {
                      for (std::size_t i = 0; i < cams.size(); ++i) {
                        matches += its::Cam::decode(encoded[i]) == cams[i] ? 1 : 0;
                      }
                    }
                  }),
                  "ns");
    report.check(matches == kRounds * cams.size(), "city probe: every CAM decodes to itself");
  }
  if (sink == 0) report.line("(probe sink is zero)");
}

}  // namespace

void run_city_probe(const Options& opt, Report& report, Spans& spans) {
  reference_check(opt, report, 1);
  reference_check(opt, report, 2);  // held-out seed

  const auto city = make_city(opt.seed);
  const auto walls = city->obstacles() ? city->obstacles()->walls().size() : 0;
  report.check(city->rsu_count() == 25 && city->vehicle_count() == 200 && walls == 256 &&
                   city->partition_engine() == nullptr,
               "city probe: topology is 25 RSUs, 200 vehicles, 256 walls, serial medium");
  city->scheduler().run_until(kPreRoll);
  const Counters b = read_counters(*city);
  {
    SpanScope s{spans, "sim.city_run_until", 0};
    city->scheduler().run_until(kPreRoll + kProbeRun);
  }
  const Counters a = read_counters(*city);
  report.check(a.medium.frames_transmitted > b.medium.frames_transmitted &&
                   a.medium.deliveries > b.medium.deliveries && a.cam_rx > b.cam_rx &&
                   a.cam_decode_errors == b.cam_decode_errors,
               "city probe: the city transmitted, delivered and decoded CAMs");

  const double sim_s = kProbeRun.to_seconds();
  const double frames = static_cast<double>(a.medium.frames_transmitted - b.medium.frames_transmitted);
  const double hits = static_cast<double>(a.medium.budget_cache_hits - b.medium.budget_cache_hits);
  const double misses =
      static_cast<double>(a.medium.budget_cache_misses - b.medium.budget_cache_misses);
  const auto considered = [](const dot11p::Medium::Stats& m) {
    return static_cast<double>(m.deliveries + m.dropped_half_duplex + m.dropped_below_sensitivity +
                               m.dropped_error);
  };
  report.metric("dot11p.frames_per_sim_s", frames / sim_s, "1/s");
  report.ratio("dot11p.links_evaluated_per_frame", hits + misses, frames);
  report.ratio("dot11p.budget_hit_ratio", hits, hits + misses);
  report.ratio("dot11p.culled_ratio",
               static_cast<double>(a.medium.culled_below_floor - b.medium.culled_below_floor),
               considered(a.medium) - considered(b.medium));
  report.metric("geo.index_queries_per_sim_s",
                static_cast<double>(a.index_queries - b.index_queries) / sim_s, "1/s");
  report.metric("its.cam_tx_per_sim_s", static_cast<double>(a.cam_tx - b.cam_tx) / sim_s, "1/s");
  report.metric("its.cam_rx_per_sim_s", static_cast<double>(a.cam_rx - b.cam_rx) / sim_s, "1/s");
  report.metric("its.gn_delivered_per_sim_s",
                static_cast<double>(a.gn_delivered - b.gn_delivered) / sim_s, "1/s");
  report.ratio("its.dcc_queued_ratio", static_cast<double>(a.dcc_queued - b.dcc_queued),
               static_cast<double>((a.dcc_passed - b.dcc_passed) + (a.dcc_queued - b.dcc_queued)));
  probes(opt, *city, report, spans);
}

}  // namespace rstbench
