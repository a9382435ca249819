// Checks of the benchmark's own arithmetic: the percentile rule, the
// episode estimators, span self time, ratio-with-base rendering and the
// hashing of fingerprints.

#include <cstdio>
#include <string>

#include "bench.hpp"

namespace rstbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::int64_t layer_ns(const Spans& spans, const std::string& layer) {
  for (const auto& [name, ns] : spans.self_ns_by_layer(spans.spans().size())) {
    if (name == layer) return ns;
  }
  return -1;
}

}  // namespace

int run_self_check() {
  failures = 0;

  // Percentile rule: p99 needs 1000 samples for ten beyond it.
  expect(min_samples_for(99.0) == 1000, "p99 needs 1000 samples");
  expect(samples_beyond(1000, 99.0) == 10 && samples_beyond(999, 99.0) == 9,
         "samples beyond p99 at n=1000 and n=999");
  expect(min_samples_for(50.0) == 20, "p50 needs 20 samples");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(percentile(hundred, 50.0) == 50 && percentile(hundred, 99.0) == 99 &&
             percentile(hundred, 100.0) == 100,
         "nearest-rank percentiles of 1..100");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median of odd and even counts");
  // Episodes of 3 operations: the second episode has a contended first
  // operation, the third a contended second one; the partial fourth is
  // ignored. Per-position minima {1, 2, 3}: 3 operations in 6 ms.
  const std::vector<double> episodes{1, 2, 3, 10, 2, 3, 1, 10, 3, 0.5};
  expect(per_position_min(episodes, 3) == std::vector<double>{1, 2, 3},
         "per-position minimum over complete episodes");
  expect(per_position_min({1, 2}, 3).empty() && quiet_rate({}) == 0,
         "no complete episode, no estimate");
  expect(quiet_rate(per_position_min(episodes, 3)) == 500, "rate at the per-position minima");
  expect(samples_beyond(kEpisodeOps, kTailPct) == 10 && min_samples_for(kTailPct) == kEpisodeOps,
         "an episode is the fewest operations with ten beyond the tail percentile");

  // Span self time: a root [0,100] with children [10,30], [20,50]
  // (overlapping) and [90,120] (past the root's end); a grandchild [12,18].
  Spans spans;
  const auto root = spans.add("bench.op", 0, 100, -1, 1);
  const auto a = spans.add("core.a", 10, 30, root, 1);
  spans.add("core.b", 20, 50, root, 1);
  spans.add("sim.c", 90, 120, root, 1);
  spans.add("asn1.d", 12, 18, a, 1);
  expect(layer_ns(spans, "bench") == 50, "root self time subtracts the union of its children");
  expect(layer_ns(spans, "core") == (20 - 6) + 30, "child self time subtracts the grandchild");
  expect(layer_ns(spans, "sim") == 30 && layer_ns(spans, "asn1") == 6, "leaf self time is duration");
  expect(spans.self_ns_by_layer(1).size() == 1 && layer_ns(spans, "server") == -1,
         "self time honours the span count");
  const std::string json = spans.chrome_json("{}");
  expect(json.find("\"traceEvents\"") != std::string::npos &&
             json.find("\"name\": \"asn1.d\", \"ph\": \"X\"") != std::string::npos,
         "chrome trace holds complete events");

  // Ratios print with their base.
  expect(format_ratio("x", 1, 4) == "x = 0.25 (1 / 4)", "ratio with base");
  expect(format_ratio("x", 0, 0) == "x = 0 (0 / 0)", "ratio over an empty base is 0 with its base");

  // FNV-1a reference value (64-bit, "a").
  expect(fnv1a("a") == 0xaf63dc4c8601ec8cULL, "fnv1a reference vector");
  return failures;
}

}  // namespace rstbench
