// Quickstart: assemble the default scale testbed, run one emergency-braking
// trial, list its typed trace events and print the step-by-step latency
// breakdown (the measurement chain of the paper's Fig. 4).
//
// Build & run:  ./examples/quickstart [seed]

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "rst/core/testbed.hpp"

int main(int argc, char** argv) {
  rst::core::TestbedConfig config;
  config.seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;

  rst::core::TestbedScenario scenario{config};

  std::printf("=== Emergency-braking trial (seed %llu) ===\n",
              static_cast<unsigned long long>(config.seed));
  const rst::core::TrialResult r = scenario.run_emergency_brake_trial();

  // The chain as it unfolded: every typed trace event in recording order
  // (b/e = span begin/end, i = instant; payload fields per Stage).
  const auto& events = scenario.trace().events();
  std::printf("--- Trace: %zu typed events ---\n", events.size());
  for (const rst::sim::TraceEvent& ev : events) {
    const std::string_view stage = rst::sim::stage_name(ev.stage);
    const char phase = ev.phase == rst::sim::Phase::Begin ? 'b'
                       : ev.phase == rst::sim::Phase::End ? 'e'
                                                          : 'i';
    std::printf("[%12.3f ms] %c %-18.*s station=%-4u a=%llu value=%g detail=%u\n",
                ev.when.to_milliseconds(), phase, static_cast<int>(stage.size()), stage.data(),
                static_cast<unsigned>(ev.station), static_cast<unsigned long long>(ev.a),
                ev.value, static_cast<unsigned>(ev.detail));
  }

  if (!r.stopped_by_denm) {
    std::printf("Trial failed: the vehicle did not stop via DENM.\n");
    return 1;
  }

  std::printf("\n--- Step instants (simulation clock) ---\n");
  std::printf("  step 1  action point crossed       %s\n", r.t_cross_actual.to_string().c_str());
  std::printf("  step 2  YOLO detection output      %s\n", r.t_detection.to_string().c_str());
  std::printf("  step 3  RSU sends DENM             %s\n", r.t_rsu_send.to_string().c_str());
  std::printf("  step 4  OBU receives DENM          %s\n", r.t_obu_receive.to_string().c_str());
  std::printf("  step 5  power-cut commanded        %s\n", r.t_power_cut.to_string().c_str());
  std::printf("  step 6  vehicle at standstill      %s\n", r.t_halt.to_string().c_str());

  std::printf("\n--- NTP-measured intervals (what the paper's Table II reports) ---\n");
  std::printf("  detection -> RSU DENM     %6.1f ms   (paper avg 27.6)\n", r.meas_detection_to_rsu_ms);
  std::printf("  RSU DENM  -> OBU          %6.1f ms   (paper avg  1.6)\n", r.meas_rsu_to_obu_ms);
  std::printf("  OBU       -> actuators    %6.1f ms   (paper avg 29.2)\n", r.meas_obu_to_actuator_ms);
  std::printf("  total detection->action   %6.1f ms   (paper avg 58.4, always < 100)\n",
              r.meas_total_ms);

  std::printf("\n--- Braking (paper Table III) ---\n");
  std::printf("  braking distance          %6.2f m    (paper avg 0.36)\n", r.braking_distance_m);
  std::printf("  final distance to camera  %6.2f m\n", r.stop_distance_to_camera_m);
  return 0;
}
