#include "rst/core/experiment.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "rst/sim/trial_pool.hpp"

namespace rst::core {

std::vector<double> ExperimentSummary::total_samples_ms() const {
  std::vector<double> out;
  for (const auto& t : trials) {
    if (t.stopped_by_denm) out.push_back(t.meas_total_ms);
  }
  return out;
}

std::vector<double> ExperimentSummary::braking_samples_m() const {
  std::vector<double> out;
  for (const auto& t : trials) {
    if (t.stopped_by_denm) out.push_back(t.braking_distance_m);
  }
  return out;
}

unsigned resolve_experiment_threads(unsigned threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned experiment_threads_from_env(unsigned fallback) {
  const char* raw = std::getenv("RST_THREADS");
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long value = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return static_cast<unsigned>(value);
}

ExperimentSummary run_emergency_brake_experiment(const TestbedConfig& base_config, int n_trials,
                                                 unsigned threads) {
  if (n_trials <= 0) return ExperimentSummary{};
  std::vector<TrialResult> trials(static_cast<std::size_t>(n_trials));
  // Trial i is fully determined by seed+i and owns every piece of simulation
  // state, so it can run on any worker; slot i keeps the seed order.
  const auto run_one = [&](std::size_t i) {
    TestbedConfig config = base_config;
    config.seed = base_config.seed + static_cast<std::uint64_t>(i);
    TestbedScenario scenario{config};
    trials[i] = scenario.run_emergency_brake_trial();
  };
  const unsigned resolved = resolve_experiment_threads(threads);
  if (resolved <= 1) {
    for (std::size_t i = 0; i < trials.size(); ++i) run_one(i);
  } else {
    sim::TrialPool pool{static_cast<unsigned>(
        std::min<std::size_t>(resolved, trials.size()))};
    pool.run_indexed(trials.size(), run_one);
  }
  return aggregate_experiment_summary(std::move(trials));
}

ExperimentSummary aggregate_experiment_summary(std::vector<TrialResult> trials) {
  ExperimentSummary summary;
  summary.trials = std::move(trials);
  // Stats accumulate from the seed-ordered vector, never in completion
  // order, so the aggregate is bit-identical at any thread count.
  auto& trials_done = summary.metrics.counter("trials");
  auto& trials_failed = summary.metrics.counter("trials_failed");
  auto& h_det_rsu = summary.metrics.histogram("stage.detection_to_rsu_ms");
  auto& h_rsu_obu = summary.metrics.histogram("stage.rsu_to_obu_ms");
  auto& h_obu_act = summary.metrics.histogram("stage.obu_to_actuator_ms");
  auto& h_total = summary.metrics.histogram("stage.total_ms");
  for (const auto& r : summary.trials) {
    trials_done.add();
    if (r.stopped_by_denm) {
      summary.detection_to_rsu_ms.add(r.meas_detection_to_rsu_ms);
      summary.rsu_to_obu_ms.add(r.meas_rsu_to_obu_ms);
      summary.obu_to_actuator_ms.add(r.meas_obu_to_actuator_ms);
      summary.total_ms.add(r.meas_total_ms);
      summary.braking_distance_m.add(r.braking_distance_m);
      h_det_rsu.observe(r.meas_detection_to_rsu_ms);
      h_rsu_obu.observe(r.meas_rsu_to_obu_ms);
      h_obu_act.observe(r.meas_obu_to_actuator_ms);
      h_total.observe(r.meas_total_ms);
    } else {
      ++summary.failures;
      trials_failed.add();
    }
  }
  return summary;
}

namespace {

/// Appends `v` as printf's "%<width>.<precision>f" does: the standard
/// defines to_chars' fixed output as printf's in the C locale.
void append_fixed(std::string& out, double v, int precision, std::size_t width = 0) {
  char buf[330];  // -DBL_MAX at 4 decimals is 315 bytes
  const auto len = static_cast<std::size_t>(
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, precision).ptr - buf);
  if (len < width) out.append(width - len, ' ');
  out.append(buf, len);
}

void append_int(std::string& out, int v) {
  char buf[16];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Stopped trials shown as table columns.
int shown_columns(const ExperimentSummary& summary, int max_rows) {
  int n = 0;
  for (const auto& t : summary.trials) n += t.stopped_by_denm ? 1 : 0;
  return std::max(0, std::min(n, max_rows));
}

}  // namespace

std::string format_table2(const ExperimentSummary& summary, int max_rows) {
  const int columns = shown_columns(summary, max_rows);
  std::string out;
  // Header and four rows of 7-byte cells, plus labels and the paper line.
  out.reserve(5 * 7 * static_cast<std::size_t>(columns) + 320);
  out += "Table II: Time interval measurements (ms)\n";
  out += "  Interval                       ";
  for (int shown = 1; shown <= columns; ++shown) {
    out += "  run#";
    append_int(out, shown);
  }
  out += "    Avg\n";

  const auto row = [&](std::string_view label, auto getter, const sim::RunningStats& stats) {
    out += "  ";
    out += label;
    if (label.size() < 30) out.append(30 - label.size(), ' ');
    int n = 0;
    for (const auto& t : summary.trials) {
      if (!t.stopped_by_denm || n >= columns) continue;
      ++n;
      out += ' ';
      append_fixed(out, getter(t), 1, 6);
    }
    out += ' ';
    append_fixed(out, stats.mean(), 1, 6);
    out += '\n';
  };
  row("#2->#3 Detection -> RSU DENM", [](const TrialResult& t) { return t.meas_detection_to_rsu_ms; },
      summary.detection_to_rsu_ms);
  row("#3->#4 RSU DENM -> OBU recv", [](const TrialResult& t) { return t.meas_rsu_to_obu_ms; },
      summary.rsu_to_obu_ms);
  row("#4->#5 OBU recv -> actuators", [](const TrialResult& t) { return t.meas_obu_to_actuator_ms; },
      summary.obu_to_actuator_ms);
  row("Total delay (#2->#5)", [](const TrialResult& t) { return t.meas_total_ms; },
      summary.total_ms);
  out += "  paper: 27.6 / 1.6 / 29.2 / 58.4 ms avg over 5 runs; all totals < 100 ms\n";
  return out;
}

std::string format_table3(const ExperimentSummary& summary, int max_rows) {
  const int columns = shown_columns(summary, max_rows);
  std::string out;
  out.reserve(16 * static_cast<std::size_t>(columns) + 160);
  out += "Table III: Distance travelled from detection to halt (m)\n  ";
  int n = 0;
  for (const auto& t : summary.trials) {
    if (!t.stopped_by_denm || n >= columns) continue;
    out += "run#";
    append_int(out, ++n);
    out += ": ";
    append_fixed(out, t.braking_distance_m, 2);
    out += "  ";
  }
  out += "\n  avg ";
  append_fixed(out, summary.braking_distance_m.mean(), 3);
  out += " m, variance ";
  append_fixed(out, summary.braking_distance_m.population_variance(), 4);
  out += " (paper: avg 0.36 m, var 0.0022)\n";
  return out;
}

}  // namespace rst::core
