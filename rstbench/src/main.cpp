// Repository benchmark program. Usage:
//
//   rstbench --workload <paper_trials|campaign_mix> --seed <n>
//            --seconds <s> --trace <0|1> [--scratch-dir <dir>]
//            [--trace-out <file.json>] [--expected-dir <dir>]
//   rstbench --self-check
//
// Prints one line per metric and, as the last stdout line, the JSON result.
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage or environment error (non-Release build, RST_* variables set).
// rstbench/run.py builds this binary and is the entry point to use.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

using namespace rstbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (rstbench/run.py checks the names).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"latency_ms_p50", "ms"}, {"latency_ms_tail", "ms"},
    {"throughput_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.harness_self_ms", "ms"},
    {"core.harness_split_valid", "bool"},
    {"core.testbed_ctor_us", "us"},
    {"core.aggregate_ms", "ms"},
    {"core.format_tables_us", "us"},
    {"sim.events_per_trial", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.find_event_us", "us"},
    {"sim.trace_events_per_trial", "count"},
    {"sim.trace_dropped", "count"},
    {"middleware.http_requests_per_trial", "count"},
    {"middleware.bus_publish_ns", "ns"},
    {"roadside.frames_per_trial", "count"},
    {"dot11p.frames_per_sim_s", "1/s"},
    {"dot11p.links_evaluated_per_frame", "ratio"},
    {"dot11p.budget_hit_ratio", "ratio"},
    {"dot11p.culled_ratio", "ratio"},
    {"dot11p.link_budget_ns", "ns"},
    {"geo.loss_db_ns", "ns"},
    {"geo.nlos_link_ratio", "ratio"},
    {"geo.road_network_ms", "ms"},
    {"geo.index_queries_per_sim_s", "1/s"},
    {"its.cam_tx_per_sim_s", "1/s"},
    {"its.cam_rx_per_sim_s", "1/s"},
    {"its.gn_delivered_per_sim_s", "1/s"},
    {"its.dcc_queued_ratio", "ratio"},
    {"asn1.cam_encode_ns", "ns"},
    {"asn1.cam_decode_ns", "ns"},
    {"asn1.denm_encode_ns", "ns"},
    {"asn1.denm_decode_ns", "ns"},
    {"asn1.cpm_encode_ns", "ns"},
    {"asn1.cpm_decode_ns", "ns"},
    {"server.canonicalize_us", "us"},
    {"server.store_get_ns", "ns"},
    {"server.store_put_us", "us"},
    {"server.store_reopen_ms", "ms"},
    {"server.engine_reopen_ms", "ms"},
    {"server.record_parse_us", "us"},
    {"server.record_serialize_us", "us"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.trials_executed", "count"},
    {"model.table2_total_mean_ms", "ms"},
    {"trace.overhead_latency_ms_p50", "ms"},
    {"trace.overhead_throughput_per_s", "1/s"},
    {"span.bench.self_ms_per_op", "ms"},
    {"span.core.self_ms_per_op", "ms"},
    {"span.sim.self_ms_per_op", "ms"},
    {"span.scenario.self_ms_per_op", "ms"},
    {"span.server.self_ms_per_op", "ms"},
    {"span.dot11p.self_ms_per_op", "ms"},
    {"span.geo.self_ms_per_op", "ms"},
    {"span.its.self_ms_per_op", "ms"},
    {"span.asn1.self_ms_per_op", "ms"},
    {"span.middleware.self_ms_per_op", "ms"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "rstbench: %s\nusage: rstbench --workload <paper_trials|campaign_mix> "
               "--seed <n> --seconds <s> --trace <0|1> [--scratch-dir d] [--trace-out f] "
               "[--expected-dir d]\n       rstbench --self-check\n",
               why.c_str());
  std::exit(2);
}

/// The result restricted to, and ordered by, `defs`. Metrics a workload does
/// not exercise read 0 and are named on stdout; a unit that disagrees with
/// the definition is a benchmark bug and fails the run.
template <std::size_t N>
Report select(const Report& report, const MetricDef (&defs)[N], bool allow_absent) {
  std::map<std::string, Report::Metric> by_name;
  for (const auto& m : report.metrics()) by_name[m.name] = m;
  Report out;
  out.set_counts(report.attempted(), report.failed());
  std::string absent;
  std::printf("--- result metrics\n");
  for (const auto& d : defs) {
    const auto it = by_name.find(d.name);
    if (it == by_name.end()) {
      if (!allow_absent) out.check(false, std::string{"metric not measured: "} + d.name);
      absent += absent.empty() ? d.name : std::string{", "} + d.name;
      out.metric(d.name, 0.0, d.unit, "not exercised by this workload");
      continue;
    }
    if (it->second.unit != d.unit) {
      out.check(false, std::string{"metric "} + d.name + " reported in " + it->second.unit);
    }
    out.metric(d.name, it->second.value, d.unit);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool self_check = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-check") {
      self_check = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = opt.seconds > 0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
        have_trace = true;
      } else if (arg == "--scratch-dir") {
        opt.scratch_dir = value;
      } else if (arg == "--trace-out") {
        opt.trace_out = value;
      } else if (arg == "--expected-dir") {
        opt.expected_dir = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }

  if (!release_build()) {
    std::fprintf(stderr, "rstbench: refusing to measure a %s build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n", RSTBENCH_BUILD_TYPE);
    return 2;
  }
  if (self_check) {
    const int failures = run_self_check();
    std::printf("self-check: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  if (!have_seed || !have_seconds || !have_trace) usage("--seed, --seconds and --trace are required");
  if (const auto vars = rst_env_vars_set(); !vars.empty()) {
    std::fprintf(stderr, "rstbench: %s is set; the benchmark measures the default serial path "
                         "with every RST_* variable unset\n", vars.front().c_str());
    return 2;
  }

  const bool campaign = opt.workload == "campaign_mix";
  const std::string env = environment_json(opt, campaign ? campaign_threads() : 0);
  std::printf("env: %s\n", env.c_str());

  Report report;
  Spans spans;
  try {
    if (opt.workload == "paper_trials") {
      run_paper_trials(opt, report, spans);
    } else if (campaign) {
      run_campaign_mix(opt, report, spans);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    report.op(false, std::string{"workload threw: "} + e.what());
  }

  const Report result = opt.trace ? select(report, kPerLayer, true) : select(report, kEndToEnd, false);
  char ratio[96];
  std::snprintf(ratio, sizeof ratio, "fail_ratio = %.6g (%llu failed / %llu attempted)",
                result.attempted() ? static_cast<double>(result.failed()) / result.attempted() : 0.0,
                static_cast<unsigned long long>(result.failed()),
                static_cast<unsigned long long>(result.attempted()));
  std::printf("%s\n", ratio);

  if (opt.trace && !opt.trace_out.empty()) {
    std::ofstream out{opt.trace_out};
    out << spans.chrome_json(env);
    std::printf("trace: %zu spans written to %s\n", spans.spans().size(), opt.trace_out.c_str());
  }
  std::printf("%s\n", result.json().c_str());
  return result.correct() ? 0 : 1;
}
