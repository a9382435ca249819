// campaign_mix: an in-process server::LineSession over a CampaignEngine
// backed by an on-disk ResultStore in a fresh directory. A cold phase runs
// three specs once each; a warm phase resubmits them in spelling variants,
// every one an all-hit; the engine is then reopened on the segment.
// Closed loop, one client, engine threads <= nproc.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>

#include "bench.hpp"
#include "rst/core/config_io.hpp"
#include "rst/core/experiment.hpp"
#include "rst/server/campaign.hpp"
#include "rst/server/campaign_engine.hpp"
#include "rst/server/protocol.hpp"
#include "rst/server/result_store.hpp"

namespace rstbench {
namespace {

using namespace rst;
namespace fs = std::filesystem;

constexpr int kTrialsPerCampaign = 200;
/// A cold pass submits each campaign in kColdParts parts of consecutive
/// seeds; together they store exactly the whole campaign's trials. A part
/// (about 40 ms) is the unit of the per-position minima of cold throughput.
constexpr int kColdParts = 10;
constexpr int kTrialsPerPart = kTrialsPerCampaign / kColdParts;
constexpr std::size_t kPartsPerPass = 3 * kColdParts;
/// The measured window is a series of cycles: a cold pass in a fresh store,
/// engine reopens on it (setup_s is estimated from them like a latency) and warm
/// episodes through an engine on it, each episode resubmitting the same
/// kEpisodeOps respellings in order.
constexpr int kReopensPerCycle = 3;
constexpr std::size_t kWarmEpisodesPerCycle = 5;
/// Cycles a run measures at least (in a traced run, of each kind).
constexpr std::size_t kMinCycles = 3;

struct SpecLine {
  std::string key;
  std::string value;
};

/// The three campaign specs: the paper defaults spelled out, CPM with the
/// liveness watchdog, and the degraded fault plan of examples/degraded_run.conf.
const std::vector<std::vector<SpecLine>> kSpecs = {
    {{"path_loss_exponent", "2.1"},
     {"shadowing_sigma_db", "2.0"},
     {"target_speed_mps", "1.2"},
     {"action_point_m", "1.52"},
     {"poll_period_ms", "50"}},
    {{"cpm_enable", "true"}, {"watchdog", "true"}, {"watchdog_timeout_ms", "400"}},
    {{"fault", "node-down:obu:500:3500:1"},
     {"fault", "radio-attenuation:medium:500:3500:25"},
     {"watchdog", "true"},
     {"watchdog_timeout_ms", "400"},
     {"failsafe_speed_mps", "0.35"},
     {"enable_lidar_aeb", "true"}},
};

std::string plain_spec(const std::vector<SpecLine>& lines) {
  std::string out;
  for (const auto& l : lines) out += l.key + " = " + l.value + "\n";
  return out;
}

/// A respelling of `lines` with the same canonical form: keys reordered
/// (repeated keys keep their relative order), comments, blank lines and
/// whitespace around keys and values.
std::string variant(const std::vector<SpecLine>& lines, std::mt19937_64& rng) {
  std::vector<std::size_t> order(lines.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  // Restore the relative order of repeated keys (fault clauses compose in order).
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      if (lines[order[i]].key == lines[order[j]].key && order[i] > order[j]) {
        std::swap(order[i], order[j]);
      }
    }
  }
  // Appended piece by piece so the draws happen in a fixed order.
  static const char* kPad[] = {"", " ", "  ", "\t"};
  std::string out;
  auto pad = [&] { out += kPad[rng() % 4]; };
  if (rng() % 2) {
    out += "# campaign respelling ";
    out += std::to_string(rng() % 1000);
    out += '\n';
  }
  for (const std::size_t i : order) {
    if (rng() % 4 == 0) out += '\n';
    if (rng() % 5 == 0) {
      out += '#';
      pad();
      out += "note\n";
    }
    pad();
    out += lines[i].key;
    pad();
    out += '=';
    pad();
    out += lines[i].value;
    pad();
    out += '\n';
  }
  return out;
}

/// Response split: the byte-stable artifact block (OK .. ENDARTIFACT) and
/// the STATS counters.
struct Response {
  std::string artifact;
  std::uint64_t hits{0}, misses{0}, executed{0};
  bool ok{false};
};

Response parse_response(const std::string& text) {
  Response r;
  const auto ok = text.find("OK id=");
  const auto end = text.find("ENDARTIFACT\n");
  if (ok == std::string::npos || end == std::string::npos || end < ok) return r;
  r.artifact = text.substr(ok, end - ok);
  unsigned long long h = 0, m = 0, e = 0;
  const auto stats = text.find("STATS hits=", end);
  if (stats == std::string::npos ||
      std::sscanf(text.c_str() + stats, "STATS hits=%llu misses=%llu executed=%llu", &h, &m, &e) != 3) {
    return r;
  }
  r.hits = h;
  r.misses = m;
  r.executed = e;
  r.ok = text.find("DONE\n", stats) != std::string::npos;
  return r;
}

server::CampaignEngineConfig engine_config(const std::string& store_path) {
  server::CampaignEngineConfig config;
  config.threads = campaign_threads();
  config.store_path = store_path;
  return config;
}

struct Cold {
  std::vector<double> part_ms;              // per cold part, kPartsPerPass per pass
  std::vector<bool> traced;                 // per pass
  std::vector<std::string> artifacts;       // per spec, whole campaigns run cold once
  std::vector<std::string> part_artifacts;  // per part, from the last cold pass
  std::string store_path;                   // segment of the last cold pass

  [[nodiscard]] std::size_t passes(bool want_traced) const {
    return static_cast<std::size_t>(std::count(traced.begin(), traced.end(), want_traced));
  }
  /// Cold trials per second with each part at its minimum over the
  /// untraced or the traced passes (every pass submits the same parts to a
  /// fresh store, so part i of one pass is the same work as part i of the
  /// next).
  [[nodiscard]] double rate(bool want_traced) const {
    return quiet_rate(quiet_ms(want_traced)) * kTrialsPerPart;
  }
  /// Per-part minima over the untraced or the traced passes, in part order.
  [[nodiscard]] std::vector<double> quiet_ms(bool want_traced) const {
    std::vector<double> ms;
    for (std::size_t p = 0; p < traced.size(); ++p) {
      if (traced[p] != want_traced) continue;
      const auto first = part_ms.begin() + static_cast<std::ptrdiff_t>(p * kPartsPerPass);
      ms.insert(ms.end(), first, first + static_cast<std::ptrdiff_t>(kPartsPerPass));
    }
    return per_position_min(ms, kPartsPerPass);
  }
};

struct Warm {
  std::uint64_t hits{0}, misses{0}, executed{0};
  std::vector<std::string> variants;
};

class Workload {
 public:
  Workload(const Options& opt, Report& report, Spans& spans)
      : opt_{opt}, report_{report}, spans_{spans}, rng_{opt.seed} {
    dir_ = fs::path{opt.scratch_dir} / ("campaign_mix." + std::to_string(opt.seed));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~Workload() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Each spec's whole campaign run cold once, in a fresh store of its own:
  /// the artifacts every warm resubmission must reproduce byte for byte.
  void whole_cold_campaigns(Cold& cold) {
    const fs::path path = dir_ / "whole.seg";
    {
      server::CampaignEngine engine{engine_config(path.string())};
      server::LineSession session{engine};
      for (std::size_t s = 0; s < kSpecs.size(); ++s) {
        const Response r = parse_response(session.handle_text(
            server::format_campaign_request(request(s, plain_spec(kSpecs[s])))));
        report_.op(r.ok && r.misses == kTrialsPerCampaign && r.executed == kTrialsPerCampaign,
                   "cold campaign " + std::to_string(s) + " did not execute every trial");
        cold.artifacts.push_back(r.artifact);
      }
    }
    fs::remove(path);
  }

  /// One cold pass: a fresh store, each spec submitted in kColdParts parts.
  void cold_pass(Cold& cold, bool traced) {
    const std::string path = (dir_ / ("cold" + std::to_string(passes_++) + ".seg")).string();
    spans_.enable(traced);
    server::CampaignEngine engine{engine_config(path)};
    server::LineSession session{engine};
    std::vector<std::string> artifacts;
    for (std::size_t part = 0; part < kPartsPerPass; ++part) {
      const std::size_t s = part / kColdParts;
      SpanScope root{spans_, "bench.cold_submit", part};
      server::CampaignRequest req = request(s, plain_spec(kSpecs[s]));
      req.trials = kTrialsPerPart;
      req.base_seed += static_cast<std::uint64_t>(kTrialsPerPart) * (part % kColdParts);
      const std::string request_text = server::format_campaign_request(req);
      std::string text;
      const auto t0 = Clock::now();
      {
        SpanScope span{spans_, "server.line_session", part};
        text = session.handle_text(request_text);
      }
      cold.part_ms.push_back(ms_between(t0, Clock::now()));
      const Response r = parse_response(text);
      report_.op(r.ok && r.misses == kTrialsPerPart && r.executed == kTrialsPerPart,
                 "cold part " + std::to_string(part) + " did not execute every trial");
      artifacts.push_back(r.artifact);
    }
    spans_.enable(false);
    cold.traced.push_back(traced);
    if (!cold.part_artifacts.empty()) {
      report_.op(artifacts == cold.part_artifacts, "cold artifacts differ between fresh stores");
    }
    cold.part_artifacts = std::move(artifacts);
    if (!cold.store_path.empty()) fs::remove(cold.store_path);
    cold.store_path = path;
  }

  /// The warm phase's respellings: kEpisodeOps of them, position i
  /// respelling spec i mod 3.
  std::vector<std::string> variants() {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < kEpisodeOps; ++i) out.push_back(variant(kSpecs[i % kSpecs.size()], rng_));
    return out;
  }

  /// `episodes` warm episodes through one session on the cold store.
  void warm_episodes(const Cold& cold, OpWindow& window, Warm& w, std::size_t episodes) {
    server::CampaignEngine engine{engine_config(cold.store_path)};
    server::LineSession session{engine};
    for (std::size_t n = 0; n < episodes * kEpisodeOps; ++n) {
      const std::size_t spec_index = window.position() % kSpecs.size();
      const std::string text =
          server::format_campaign_request(request(spec_index, w.variants[window.position()]));
      const std::uint64_t op = window.begin();
      std::string response;
      {
        SpanScope root{spans_, "bench.warm_submit", op};
        SpanScope span{spans_, "server.line_session", op};
        response = session.handle_text(text);
      }
      window.end();
      const Response r = parse_response(response);
      w.hits += r.hits;
      w.misses += r.misses;
      w.executed += r.executed;
      report_.op(r.ok && r.hits == kTrialsPerCampaign && r.executed == 0 &&
                     r.artifact == cold.artifacts[spec_index],
                 "warm resubmission of campaign " + std::to_string(spec_index) +
                     " was not a byte-identical all-hit");
    }
  }

  /// Engine rebuilt on the cold segment (replays it), `count` times.
  void reopen_samples(const Cold& cold, int count, std::vector<double>& out) {
    for (int k = 0; k < count; ++k) {
      const auto t0 = Clock::now();
      server::CampaignEngine engine{engine_config(cold.store_path)};
      out.push_back(seconds_since(t0));
      report_.op(engine.store().count() == kSpecs.size() * kTrialsPerCampaign,
                 "reopened store lost records");
    }
  }

  void reopen_check(const Cold& cold) {
    server::CampaignEngine engine{engine_config(cold.store_path)};
    server::LineSession session{engine};
    const Response r = parse_response(
        session.handle_text(server::format_campaign_request(request(2, plain_spec(kSpecs[2])))));
    report_.check(r.ok && r.executed == 0 && r.artifact == cold.artifacts[2],
                  "campaign_mix: a reopened engine replays the degraded campaign byte-identically");
  }

  server::CampaignRequest request(std::size_t s, std::string spec) const {
    return {std::move(spec), kTrialsPerCampaign, (opt_.seed << 20) + 1000 * s};
  }

  /// Per-layer probes of the server and codec entry points on this
  /// workload's own inputs.
  void probes(const Cold& cold, const Warm& warm);

 private:
  const Options& opt_;
  Report& report_;
  Spans& spans_;
  std::mt19937_64 rng_;
  fs::path dir_;
  int passes_{0};
};

/// ns_per_call in units of `unit_ns` nanoseconds.
template <typename F>
double per_call(std::size_t calls, double unit_ns, F&& body) {
  return ns_per_call(calls, std::forward<F>(body)) / unit_ns;
}

void Workload::probes(const Cold& cold, const Warm& warm) {
  std::size_t sink = 0;
  {
    SpanScope s{spans_, "server.canonicalize", 0};
    report_.metric("server.canonicalize_us", per_call(warm.variants.size(), 1e3, [&] {
                     for (const auto& v : warm.variants) sink += core::canonicalize_spec(v).size();
                   }),
                   "us", "canonicalize_spec on the warm variants");
  }

  // The stored records of every campaign, keyed as the engine keys them.
  server::ResultStore store{cold.store_path};
  std::vector<std::uint64_t> keys;
  std::vector<std::string> records;
  for (std::size_t s = 0; s < kSpecs.size(); ++s) {
    const std::string canonical = core::canonicalize_spec(plain_spec(kSpecs[s]));
    const auto req = request(s, canonical);
    for (int i = 0; i < kTrialsPerCampaign; ++i) {
      keys.push_back(server::trial_key(canonical, req.base_seed + static_cast<std::uint64_t>(i)));
    }
  }
  {
    SpanScope s{spans_, "server.store_get", 0};
    constexpr int kRounds = 50;
    report_.metric("server.store_get_ns", per_call(kRounds * keys.size(), 1.0, [&] {
                     for (int r = 0; r < kRounds; ++r) {
                       for (const auto k : keys) sink += store.get(k) ? 1 : 0;
                     }
                   }),
                   "ns", "ResultStore::get on the campaigns' trial keys");
  }
  for (const auto k : keys) {
    const std::string* rec = store.get(k);
    records.push_back(rec ? *rec : std::string{});
  }
  report_.check(std::none_of(records.begin(), records.end(), [](const auto& r) { return r.empty(); }),
                "campaign_mix: every trial key of the cold campaigns is in the store");
  {
    SpanScope s{spans_, "server.store_put", 0};
    const std::string path = (dir_ / "probe_put.seg").string();
    {
      server::ResultStore fresh{path};
      report_.metric("server.store_put_us", per_call(keys.size(), 1e3, [&] {
                       for (std::size_t i = 0; i < keys.size(); ++i) fresh.put(keys[i], records[i]);
                     }),
                     "us", "ResultStore::put into a fresh on-disk segment");
    }
    fs::remove(path);
  }
  {
    SpanScope s{spans_, "server.store_reopen", 0};
    std::vector<double> ms;
    for (int k = 0; k < 7; ++k) {
      const auto t0 = Clock::now();
      server::ResultStore reopened{cold.store_path};
      ms.push_back(ms_between(t0, Clock::now()));
      sink += reopened.count();
    }
    report_.metric("server.store_reopen_ms", median(ms), "ms", "ResultStore open + replay, median of 7");
  }
  std::vector<server::TrialRecord> parsed;
  {
    SpanScope s{spans_, "server.record_parse", 0};
    report_.metric("server.record_parse_us", per_call(records.size(), 1e3, [&] {
                     for (const auto& r : records) parsed.push_back(server::parse_trial_record(r));
                   }),
                   "us");
  }
  {
    SpanScope s{spans_, "server.record_serialize", 0};
    std::size_t same = 0;
    report_.metric("server.record_serialize_us", per_call(parsed.size(), 1e3, [&] {
                     for (std::size_t i = 0; i < parsed.size(); ++i) {
                       same += server::serialize_trial_record(parsed[i].seed, parsed[i].result) ==
                               records[i];
                     }
                   }),
                   "us");
    report_.check(same == records.size(), "campaign_mix: stored records round-trip byte-identically");
  }
  {
    SpanScope s{spans_, "core.aggregate", 0};
    std::vector<double> aggregate_ms, format_us;
    for (std::size_t spec = 0; spec < kSpecs.size(); ++spec) {
      std::vector<core::TrialResult> trials;
      for (int i = 0; i < kTrialsPerCampaign; ++i) {
        trials.push_back(parsed[spec * kTrialsPerCampaign + static_cast<std::size_t>(i)].result);
      }
      const auto t0 = Clock::now();
      const auto summary = core::aggregate_experiment_summary(std::move(trials));
      const auto t1 = Clock::now();
      // The engine renders one column per trial.
      const std::string tables = core::format_table2(summary, kTrialsPerCampaign) +
                                 core::format_table3(summary, kTrialsPerCampaign);
      const auto t2 = Clock::now();
      aggregate_ms.push_back(ms_between(t0, t1));
      format_us.push_back(ms_between(t1, t2) * 1000.0);
      report_.check(cold.artifacts[spec].find(tables) != std::string::npos,
                    "campaign_mix: campaign " + std::to_string(spec) +
                        " tables re-aggregated from stored records match its artifact");
    }
    report_.metric("core.aggregate_ms", median(aggregate_ms), "ms", std::to_string(kTrialsPerCampaign) + " trials");
    report_.metric("core.format_tables_us", median(format_us), "us", "format_table2 + format_table3");
  }
  report_.ratio("server.cache_hit_ratio", static_cast<double>(warm.hits),
                static_cast<double>(warm.hits + warm.misses));
  report_.metric("server.trials_executed", static_cast<double>(warm.executed), "count",
                 "in the warm phase; expected 0");

  // A CPM of the CPM spec's percepts: run that spec's testbed until the RSU
  // perceives the vehicle.
  core::TestbedConfig config;
  core::apply_config_overrides(config, plain_spec(kSpecs[1]));
  config.seed = request(1, {}).base_seed;
  core::TestbedScenario testbed{config};
  testbed.start_services();
  its::Cpm cpm;
  for (int step = 0; step < 300 && cpm.objects.empty(); ++step) {
    testbed.scheduler().run_until(testbed.scheduler().now() + sim::SimTime::milliseconds(100));
    if (auto* service = testbed.rsu().cpm()) cpm = service->build_cpm();
  }
  report_.check(!cpm.objects.empty(), "campaign_mix: the CPM spec's RSU publishes perceived objects");
  {
    SpanScope s{spans_, "asn1.cpm_codec", 0};
    constexpr int kCalls = 5000;
    std::vector<std::uint8_t> bytes;
    report_.metric("asn1.cpm_encode_ns", per_call(kCalls, 1.0, [&] {
                     for (int k = 0; k < kCalls; ++k) bytes = cpm.encode();
                   }),
                   "ns", std::to_string(cpm.objects.size()) + " perceived objects");
    std::size_t same = 0;
    report_.metric("asn1.cpm_decode_ns", per_call(kCalls, 1.0, [&] {
                     for (int k = 0; k < kCalls; ++k) same += its::Cpm::decode(bytes) == cpm;
                   }),
                   "ns");
    report_.check(same == kCalls, "campaign_mix: the CPM decodes to itself");
  }
  if (sink == 0) report_.line("(probe sink is zero)");
}

/// Cycles for opt.seconds host seconds, and at least kMinCycles (of each
/// kind in a traced run, where every other cold pass is traced and the warm
/// episodes alternate); then the reopen check.
std::pair<Cold, Warm> measure(const Options& opt, Workload& workload, OpWindow& window,
                              std::vector<double>& reopen) {
  Cold cold;
  Warm warm;
  warm.variants = workload.variants();
  workload.whole_cold_campaigns(cold);
  const std::size_t min_cycles = opt.trace ? 2 * kMinCycles : kMinCycles;
  window.restart();
  for (std::size_t cycle = 0; cycle < min_cycles || window.elapsed_s() < opt.seconds; ++cycle) {
    workload.cold_pass(cold, opt.trace && cycle % 2 == 1);
    workload.reopen_samples(cold, kReopensPerCycle, reopen);
    workload.warm_episodes(cold, window, warm, kWarmEpisodesPerCycle);
    if (window.elapsed_s() > 4 * opt.seconds + 30) break;
  }
  workload.reopen_check(cold);
  return {std::move(cold), std::move(warm)};
}

}  // namespace

void run_campaign_mix(const Options& opt, Report& report, Spans& spans) {
  Workload workload{opt, report, spans};
  report.line("campaign_mix: engine threads " + std::to_string(campaign_threads()) + ", " +
              std::to_string(kTrialsPerCampaign) + " trials per campaign");
  OpWindow window{spans, kEpisodeOps, opt.trace};
  std::vector<double> reopen;
  auto [cold, warm] = measure(opt, workload, window, reopen);
  const std::size_t window_spans = spans.spans().size();
  const std::string threads = std::to_string(campaign_threads());

  if (!opt.trace) {
    report.metric("setup_s", median(per_position_min(reopen, kReopensPerCycle)), "s",
                  "engine reopen on the cold segment: median over a cycle's " +
                      std::to_string(kReopensPerCycle) + " reopens of each one's minimum over " +
                      std::to_string(reopen.size() / kReopensPerCycle) + " cycles");
    report_latency(report, window, "warm_submit_ms (request text to response text)");
    report.metric("throughput_per_s", cold.rate(false), "1/s",
                  "cold_trials_per_s at " + threads + " engine threads, each part at its "
                  "minimum over " + std::to_string(cold.passes(false)) + " cold passes");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    const auto quiet = cold.quiet_ms(false);
    std::string line = "cold campaigns, sum of their parts' minima (ms):";
    for (std::size_t s = 0; s < kSpecs.size() && quiet.size() == kPartsPerPass; ++s) {
      double ms = 0;
      for (int k = 0; k < kColdParts; ++k) ms += quiet[s * kColdParts + static_cast<std::size_t>(k)];
      line += " " + std::to_string(ms);
    }
    report.line(line + " (defaults, CPM + watchdog, degraded)");
    return;
  }

  report.metric("trace.overhead_latency_ms_p50",
                median(window.quiet_ms(true)) - median(window.quiet_ms(false)), "ms",
                "traced minus untraced warm p50 of per-position minima, alternate episodes");
  report.metric("trace.overhead_throughput_per_s",
                cold.rate(true) - cold.rate(false), "1/s",
                "traced minus untraced cold rate, alternate passes");
  spans.enable(true);
  report.metric("server.engine_reopen_ms", median(reopen) * 1000.0, "ms",
                "median of " + std::to_string(reopen.size()));
  workload.probes(cold, warm);
  spans.enable(false);
  const auto traced_cold = cold.passes(true) * kPartsPerPass;
  report_span_self_times(report, spans, window_spans,
                         static_cast<double>(window.latencies_ms(true).size() + traced_cold));
}

}  // namespace rstbench
