#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace rstbench {

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (samples_beyond(n, p) < 10) ++n;
  return n;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> per_position_min(const std::vector<double>& samples, std::size_t episode) {
  const std::size_t episodes = episode == 0 ? 0 : samples.size() / episode;
  if (episodes == 0) return {};
  std::vector<double> out(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(episode));
  for (std::size_t e = 1; e < episodes; ++e) {
    for (std::size_t i = 0; i < episode; ++i) out[i] = std::min(out[i], samples[e * episode + i]);
  }
  return out;
}

double quiet_rate(const std::vector<double>& quiet_ms) {
  double sum_ms = 0.0;
  for (const double ms : quiet_ms) sum_ms += ms;
  return sum_ms > 0.0 ? 1000.0 * static_cast<double>(quiet_ms.size()) / sum_ms : 0.0;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t h) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return fnv1a(std::string_view{bytes, 8}, h);
}

std::uint64_t expected_fingerprint(const Options& opt, const std::string& key) {
  std::ifstream in{opt.expected_dir + "/expected.txt"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    auto strip = [](std::string s) {
      const auto b = s.find_first_not_of(" \t");
      const auto e = s.find_last_not_of(" \t\r");
      return b == std::string::npos ? std::string{} : s.substr(b, e - b + 1);
    };
    if (strip(line.substr(0, eq)) == key) {
      return std::stoull(strip(line.substr(eq + 1)), nullptr, 16);
    }
  }
  return 0;
}

namespace {
/// `digits` significant digits; JSON values keep all 17.
std::string number(double v, int digits = 9) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}
}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit,
                    const std::string& note) {
  metrics_.push_back({name, value, unit});
  std::printf("  %-40s %14s %-6s%s%s\n", name.c_str(), number(value).c_str(), unit.c_str(),
              note.empty() ? "" : "  ", note.c_str());
}

std::string format_ratio(const std::string& name, double num, double den) {
  const double r = den == 0 ? 0.0 : num / den;
  std::ostringstream out;
  out << name << " = " << number(r) << " (" << number(num) << " / " << number(den) << ")";
  return out.str();
}

void Report::ratio(const std::string& name, double num, double den) {
  metrics_.push_back({name, den == 0 ? 0.0 : num / den, "ratio"});
  std::printf("  %s\n", format_ratio(name, num, den).c_str());
}

void Report::line(const std::string& text) { std::printf("%s\n", text.c_str()); }

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_printed_++ < 20) std::printf("FAILED: %s\n", what.c_str());
}

void Report::check(bool ok, const std::string& what) {
  op(ok, what);
  if (ok) std::printf("check ok: %s\n", what.c_str());
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out << ", ";
    out << '"' << metrics_[i].name << "\": {\"value\": " << number(metrics_[i].value, 17)
        << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

OpWindow::OpWindow(Spans& spans, std::size_t episode, bool alternate_tracing)
    : spans_{spans}, episode_{episode}, alternate_{alternate_tracing} {}

std::size_t OpWindow::begin() {
  const std::size_t op = op_ms_.size();
  if (alternate_) spans_.enable(episode_traced(op));
  op_start_ = Clock::now();
  return op;
}

void OpWindow::end() {
  op_ms_.push_back(ms_between(op_start_, Clock::now()));
  if (alternate_) spans_.enable(false);
}

std::vector<double> OpWindow::latencies_ms(bool traced) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < op_ms_.size(); ++i) {
    if (episode_traced(i) == traced) out.push_back(op_ms_[i]);
  }
  return out;
}

std::vector<double> OpWindow::quiet_ms(bool traced) const {
  return per_position_min(latencies_ms(traced), episode_);
}

void report_latency(Report& report, const OpWindow& window, const std::string& what) {
  auto quiet = window.quiet_ms(false);
  std::sort(quiet.begin(), quiet.end());
  auto all = window.latencies_ms(false);
  std::sort(all.begin(), all.end());
  std::ostringstream note;
  note << what << ", per-position minimum over " << all.size() / std::max<std::size_t>(quiet.size(), 1)
       << " episodes of " << quiet.size();
  report.metric("latency_ms_p50", percentile(quiet, 50.0), "ms", note.str() + ", p50");
  note << ", p" << kTailPct << " (" << samples_beyond(quiet.size(), kTailPct) << " samples beyond)";
  report.metric("latency_ms_tail", percentile(quiet, kTailPct), "ms", note.str());
  char line[200];
  std::snprintf(line, sizeof line, "  whole run, every operation: p50 = %.6g ms, p99 = %.6g ms (%zu samples beyond, n=%zu)",
                percentile(all, 50.0), percentile(all, 99.0), samples_beyond(all.size(), 99.0), all.size());
  report.line(line);
}

void report_trace_overhead(Report& report, const OpWindow& window) {
  report.metric("trace.overhead_latency_ms_p50",
                median(window.quiet_ms(true)) - median(window.quiet_ms(false)), "ms",
                "traced minus untraced p50 of per-position minima, alternate episodes");
  report.metric("trace.overhead_throughput_per_s",
                window.rate(true) - window.rate(false), "1/s",
                "traced minus untraced rate at per-position minima, alternate episodes");
}

// --- Spans --------------------------------------------------------------

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

std::int32_t Spans::begin(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now_ns(), -1, parent, op});
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return open_.back();
}

void Spans::end(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::int32_t Spans::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                        std::int32_t parent, std::uint64_t op) {
  spans_.push_back({name, start_ns, end_ns, parent, op});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<std::pair<std::string, std::int64_t>> Spans::self_ns_by_layer(
    std::size_t count) const {
  count = std::min(count, spans_.size());
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::pair<std::string, std::int64_t>> by_layer;
  for (std::size_t i = 0; i < count; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t cur_start = 0;
    std::int64_t cur_end = -1;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (a > cur_end) {
        if (cur_end > cur_start) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
      } else {
        cur_end = std::max(cur_end, b);
      }
    }
    if (cur_end > cur_start) covered += cur_end - cur_start;
    const std::string name{s.name};
    const std::string layer = name.substr(0, name.find('.'));
    const std::int64_t self = (s.end_ns - s.start_ns) - covered;
    auto it = std::find_if(by_layer.begin(), by_layer.end(),
                           [&](const auto& e) { return e.first == layer; });
    if (it == by_layer.end()) {
      by_layer.emplace_back(layer, self);
    } else {
      it->second += self;
    }
  }
  return by_layer;
}

std::string Spans::chrome_json(const std::string& metadata) const {
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << metadata << ", \"traceEvents\": [";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    if (!first) out << ",\n";
    first = false;
    char ts[64];
    char dur[64];
    std::snprintf(ts, sizeof ts, "%.3f", static_cast<double>(s.start_ns) / 1000.0);
    std::snprintf(dur, sizeof dur, "%.3f", static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << ts
        << ", \"dur\": " << dur << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}}";
  }
  out << "]}\n";
  return out.str();
}

void report_span_self_times(Report& report, const Spans& spans, std::size_t count, double ops) {
  const auto by_layer = spans.self_ns_by_layer(count);
  for (const char* layer : kLayers) {
    double ns = 0;
    for (const auto& [name, self] : by_layer) {
      if (name == layer) ns = static_cast<double>(self);
    }
    report.metric(std::string{"span."} + layer + ".self_ms_per_op",
                  ops > 0 ? ns / 1e6 / ops : 0.0, "ms");
  }
}

}  // namespace rstbench
