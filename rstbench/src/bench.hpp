// Shared plumbing of the repository benchmark: options, the result report
// (metrics, output checks, the final JSON line), host-time spans and the
// environment record. Workloads live in their own translation units and
// drive the library only through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rstbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Directory for on-disk state (the campaign store); created and removed
  /// by the workload.
  std::string scratch_dir{".bench_build/rstbench/scratch"};
  /// Chrome trace JSON written by a traced run; empty skips the file.
  std::string trace_out{};
  /// Directory holding expected.txt (pinned output fingerprints).
  std::string expected_dir{"rstbench"};
};

// --- Statistics ---------------------------------------------------------

/// Nearest-rank percentile of `sorted` (ascending); 0 when empty.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);
/// Samples strictly above the nearest-rank p-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);
/// Fewest samples for which the p-th percentile has >= 10 samples beyond.
[[nodiscard]] std::size_t min_samples_for(double p);
[[nodiscard]] double median(std::vector<double> values);
/// Operations of an episode: the fewest for which the kTailPct percentile
/// has ten samples beyond it.
inline constexpr double kTailPct = 90.0;
inline constexpr std::size_t kEpisodeOps = 100;

/// `samples` (in operation order) cut into episodes of `episode` operations
/// that repeat the same work: operation i of every episode is the same
/// operation. Returns, for each position i, the minimum of that operation's
/// samples over the complete episodes (empty when there is none). Host
/// contention only ever adds time, so the minimum over repeats of identical
/// work is the estimate of its cost least disturbed by it.
[[nodiscard]] std::vector<double> per_position_min(const std::vector<double>& samples,
                                                   std::size_t episode);
/// Operations per second of an episode whose every operation takes its
/// per-position minimum: 1000 * size / sum of `quiet_ms`; 0 when empty.
[[nodiscard]] double quiet_rate(const std::vector<double>& quiet_ms);

/// FNV-1a, continuing from `h`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 14695981039346656037ULL);
[[nodiscard]] std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t h);

/// Pinned value `key` from expected.txt (`key = hex` lines); 0 when absent.
[[nodiscard]] std::uint64_t expected_fingerprint(const Options& opt, const std::string& key);

// --- Report -------------------------------------------------------------

/// Collects the run's metrics and output checks and renders them: one
/// human-readable line per metric (name, value, unit), then the final JSON
/// object that is the last stdout line (the machine-readable result).
class Report {
 public:
  /// A metric that appears in the JSON result.
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = {});
  /// A ratio metric, printed with its base: "name = r (num / den)".
  void ratio(const std::string& name, double num, double den);
  /// A line printed for the reader only (not part of the JSON result).
  void line(const std::string& text);

  /// One operation attempted; a failed one is counted with its reason.
  void op(bool ok, const std::string& what = {});
  /// Takes over another report's operation counts.
  void set_counts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  /// An output check: counted as one operation, failed on mismatch.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0; }

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  std::size_t failures_printed_{0};
};

/// Renders "name = r (num / den)" with r = num / den (0 when den == 0).
[[nodiscard]] std::string format_ratio(const std::string& name, double num, double den);

// --- Measured windows ---------------------------------------------------

class Spans;

/// Host timing of a window of back-to-back operations grouped in episodes
/// of `episode` operations, each episode repeating the same work on the same
/// inputs. In a traced run the span recorder is on in every other episode
/// only, so traced and untraced operations interleave in time and see the
/// same host conditions; their difference is the tracing overhead.
class OpWindow {
 public:
  OpWindow(Spans& spans, std::size_t episode, bool alternate_tracing);
  /// Restarts the window clock; call before the first operation when set-up
  /// work separates the window's construction from its operations.
  void restart() { start_ = Clock::now(); }
  /// Marks the start of the next operation (switching tracing at episode
  /// boundaries); returns its index.
  std::size_t begin();
  /// Marks the end of the operation begun last.
  void end();

  [[nodiscard]] std::size_t ops() const { return op_ms_.size(); }
  /// Position of the next operation inside its episode.
  [[nodiscard]] std::size_t position() const { return op_ms_.size() % episode_; }
  [[nodiscard]] std::size_t episodes() const { return op_ms_.size() / episode_; }
  /// Host seconds since the window opened.
  [[nodiscard]] double elapsed_s() const { return seconds_since(start_); }
  /// Latencies (ms) of the untraced or the traced operations, in order.
  [[nodiscard]] std::vector<double> latencies_ms(bool traced) const;
  /// per_position_min over the untraced or the traced episodes.
  [[nodiscard]] std::vector<double> quiet_ms(bool traced) const;
  /// quiet_rate of quiet_ms(traced).
  [[nodiscard]] double rate(bool traced) const { return quiet_rate(quiet_ms(traced)); }

 private:
  [[nodiscard]] bool episode_traced(std::size_t op) const {
    return alternate_ && (op / episode_) % 2 == 1;
  }

  Spans& spans_;
  std::size_t episode_;
  bool alternate_;
  Clock::time_point start_{Clock::now()};
  Clock::time_point op_start_{};
  std::vector<double> op_ms_;
};

/// latency_ms_p50 and latency_ms_tail (kTailPct): percentiles over one
/// episode of the untraced operations' per-position minima, and a line with
/// the whole-run p50 and p99 of every untraced operation; `what` names one
/// operation.
void report_latency(Report& report, const OpWindow& window, const std::string& what);
/// trace.overhead_*: traced minus untraced p50 latency and median rate.
void report_trace_overhead(Report& report, const OpWindow& window);

/// Host nanoseconds per call of `body`, which makes `calls` calls.
template <typename F>
double ns_per_call(std::size_t calls, F&& body) {
  const auto t0 = Clock::now();
  body();
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
         static_cast<double>(calls);
}

// --- Spans --------------------------------------------------------------

/// In-memory host-time spans recorded by the benchmark around its calls
/// into a layer. Disabled recorders cost a branch per begin/end. Names are
/// "<layer>.<what>"; the layer prefix groups self time.
class Spans {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index of the enclosing span, -1 for a root
    std::uint64_t op;     ///< operation the span belongs to
  };

  void enable(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  std::int32_t begin(const char* name, std::uint64_t op);
  void end(std::int32_t index);
  /// Adds a closed span with explicit times (used by the self checks).
  std::int32_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int32_t parent, std::uint64_t op);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer (ns) over the first `count` spans: each span's
  /// duration minus the union of its children's intervals clipped to it,
  /// summed by name prefix.
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> self_ns_by_layer(
      std::size_t count) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds), loadable
  /// in Perfetto; `metadata` is a JSON object string stored under
  /// "otherData".
  [[nodiscard]] std::string chrome_json(const std::string& metadata) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_{false};
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  Clock::time_point epoch_{Clock::now()};
};

/// RAII span; a no-op when the recorder is disabled.
class SpanScope {
 public:
  SpanScope(Spans& spans, const char* name, std::uint64_t op)
      : spans_{spans}, index_{spans.begin(name, op)} {}
  ~SpanScope() { spans_.end(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& spans_;
  std::int32_t index_;
};

/// Adds one span.<layer>.self_ms_per_op metric per layer in kLayers, over
/// the first `count` spans (the measured window, before any probes).
void report_span_self_times(Report& report, const Spans& spans, std::size_t count, double ops);

/// Layers whose span self time every traced run reports (0 when a workload
/// never calls into one).
inline constexpr const char* kLayers[] = {"bench", "core",   "sim",  "scenario", "server",
                                          "dot11p", "geo",   "its",  "asn1",     "middleware"};

// --- Environment --------------------------------------------------------

/// The run's environment as a JSON object string: nproc, compiler, build
/// type, source commit (from RSTBENCH_COMMIT when the runner knows it),
/// seeds, thread counts and whether any RST_* variable is set.
[[nodiscard]] std::string environment_json(const Options& opt, unsigned engine_threads);
/// Names of RST_* environment variables that are set (should be none).
[[nodiscard]] std::vector<std::string> rst_env_vars_set();
[[nodiscard]] bool release_build();
[[nodiscard]] double peak_rss_mb();

// --- Workloads ----------------------------------------------------------

/// Each workload measures for opt.seconds, reports every end-to-end metric
/// (untraced) or every per-layer metric (traced) into `report`, and
/// writes its spans into `spans`.
void run_paper_trials(const Options& opt, Report& report, Spans& spans);
void run_campaign_mix(const Options& opt, Report& report, Spans& spans);
/// The city probe of the traced paper_trials run: pinned city fingerprints
/// and the dot11p, geo, its and CAM codec per-layer metrics.
void run_city_probe(const Options& opt, Report& report, Spans& spans);

/// Checks of the benchmark's own arithmetic; returns the failure count.
int run_self_check();

/// Engine worker threads of campaign_mix: one. With two, the cold rate needs
/// two vCPUs free of contention at once, and it spread by 9-13% between runs
/// on a shared 4-vCPU host, against 4% with one.
[[nodiscard]] unsigned campaign_threads();

}  // namespace rstbench
