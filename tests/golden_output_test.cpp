// Golden-output regression guard for the default single-RSU experiment
// path. The canonical Table II / Table III renderings of the seed-42
// 5-trial campaign are pinned byte for byte: any change to the default
// testbed configuration, the stochastic draw order, the latency pipeline
// or the table formatting shows up here as a readable string diff. The
// city-scale scenario work rides on the same stack, so this is the
// guarantee that it left the default path untouched.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "rst/core/experiment.hpp"

namespace rst {
namespace {

// Exact output of format_table2/format_table3 for the paper-protocol
// campaign (TestbedConfig defaults, seed 42, 5 trials). Regenerate only
// when a deliberate behavior change is being made, and say so in the PR.
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

core::ExperimentSummary paper_campaign(unsigned threads) {
  core::TestbedConfig config;
  config.seed = 42;
  return core::run_emergency_brake_experiment(config, 5, threads);
}

TEST(GoldenOutput, Table2IsByteIdenticalToTheSeedRendering) {
  const auto summary = paper_campaign(1);
  EXPECT_EQ(core::format_table2(summary), kGoldenTable2);
}

TEST(GoldenOutput, Table3IsByteIdenticalToTheSeedRendering) {
  const auto summary = paper_campaign(1);
  EXPECT_EQ(core::format_table3(summary), kGoldenTable3);
}

TEST(GoldenOutput, RenderingIsThreadCountInvariant) {
  const auto pooled = paper_campaign(4);
  EXPECT_EQ(core::format_table2(pooled), kGoldenTable2);
  EXPECT_EQ(core::format_table3(pooled), kGoldenTable3);
}

// --- Cell formatting oracle -------------------------------------------------
//
// format_table2/3 write each cell with std::to_chars; this reference renders
// the same tables with one snprintf per cell ("%6.1f", "%.2f"), so the two
// must agree byte for byte on any value printf can print. The buffer is
// large enough for -DBL_MAX in fixed notation.

std::string reference_table2(const core::ExperimentSummary& summary, int max_rows) {
  std::string out;
  char line[512];
  out += "Table II: Time interval measurements (ms)\n";
  out += "  Interval                       ";
  int shown = 0;
  for (const auto& t : summary.trials) {
    if (!t.stopped_by_denm || shown >= max_rows) continue;
    std::snprintf(line, sizeof line, "  run#%d", ++shown);
    out += line;
  }
  out += "    Avg\n";
  const auto row = [&](const char* label, auto getter, const sim::RunningStats& stats) {
    std::snprintf(line, sizeof line, "  %-30s", label);
    out += line;
    int n = 0;
    for (const auto& t : summary.trials) {
      if (!t.stopped_by_denm || n >= max_rows) continue;
      ++n;
      std::snprintf(line, sizeof line, " %6.1f", getter(t));
      out += line;
    }
    std::snprintf(line, sizeof line, " %6.1f\n", stats.mean());
    out += line;
  };
  using core::TrialResult;
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

std::string reference_table3(const core::ExperimentSummary& summary, int max_rows) {
  std::string out;
  char line[512];
  out += "Table III: Distance travelled from detection to halt (m)\n  ";
  int n = 0;
  for (const auto& t : summary.trials) {
    if (!t.stopped_by_denm || n >= max_rows) continue;
    ++n;
    std::snprintf(line, sizeof line, "run#%d: %.2f  ", n, t.braking_distance_m);
    out += line;
  }
  std::snprintf(line, sizeof line, "\n  avg %.3f m, variance %.4f (paper: avg 0.36 m, var 0.0022)\n",
                summary.braking_distance_m.mean(), summary.braking_distance_m.population_variance());
  out += line;
  return out;
}

/// 200 trials whose cells hit printf's corner cases: exact .x5 and .xx5
/// ties (binary fractions, so the tie is real), decimal near-ties, negative
/// values and -0.0, values wider than the 6-character field, and NaN.
core::ExperimentSummary corner_case_summary(bool with_nan) {
  const std::vector<double> specials = {
      0.25,   0.75,     2.5,       -2.5,    0.125,   0.375,       1.05,    0.15,
      0.35,   -0.05,    -0.0,      0.0,     -0.04,   99999.95,    -999.95, 123456789.25,
      1e15,   -1e15,    1e300,     -DBL_MAX, DBL_MIN, 4.9e-324,   0.005,   0.015,
      0.045,  2.675,    1.005,     58.449999999999996, 58.45, 29.25, 27.55, -0.125};
  std::vector<core::TrialResult> trials;
  for (int i = 0; i < 200; ++i) {
    core::TrialResult t;
    t.stopped_by_denm = i % 9 != 4;  // some columns are skipped
    const auto pick = [&](int salt) {
      const std::size_t k = static_cast<std::size_t>(i * 7 + salt) % (specials.size() + 5);
      if (k < specials.size()) return specials[k];
      return (i - 100) * 0.137 + salt * 0.01;  // ordinary values, both signs
    };
    t.meas_detection_to_rsu_ms = pick(0);
    t.meas_rsu_to_obu_ms = pick(1);
    t.meas_obu_to_actuator_ms = pick(2);
    t.meas_total_ms = pick(3);
    t.braking_distance_m = pick(5);
    if (with_nan && i == 37) t.meas_rsu_to_obu_ms = std::numeric_limits<double>::quiet_NaN();
    if (with_nan && i == 38) t.braking_distance_m = -std::numeric_limits<double>::quiet_NaN();
    trials.push_back(t);
  }
  return core::aggregate_experiment_summary(std::move(trials));
}

TEST(TableFormat, CellsMatchTheSnprintfReference) {
  for (const bool with_nan : {false, true}) {
    const auto summary = corner_case_summary(with_nan);
    for (const int max_rows : {200, 50, 5, 0}) {
      EXPECT_EQ(core::format_table2(summary, max_rows), reference_table2(summary, max_rows))
          << "max_rows " << max_rows << (with_nan ? " with NaN" : "");
      EXPECT_EQ(core::format_table3(summary, max_rows), reference_table3(summary, max_rows))
          << "max_rows " << max_rows << (with_nan ? " with NaN" : "");
    }
  }
}

TEST(TableFormat, PaperCampaignMatchesTheSnprintfReference) {
  const auto summary = paper_campaign(1);
  EXPECT_EQ(core::format_table2(summary, 5), reference_table2(summary, 5));
  EXPECT_EQ(core::format_table3(summary, 5), reference_table3(summary, 5));
}

}  // namespace
}  // namespace rst
