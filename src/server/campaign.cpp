#include "rst/server/campaign.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "rst/core/config_io.hpp"

namespace rst::server {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  // Explicit little-endian byte order so the address is platform-stable.
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint8_t>(v >> (8 * i));
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t trial_key(const std::string& canonical_spec, std::uint64_t seed) {
  return trial_key_from_spec_hash(fnv1a(canonical_spec), seed);
}

std::uint64_t trial_key_from_spec_hash(std::uint64_t spec_hash, std::uint64_t seed) {
  return fnv1a(kCodeVersion, mix_u64(spec_hash, seed));
}

std::uint64_t campaign_id(const std::string& canonical_spec, int trials,
                          std::uint64_t base_seed) {
  std::uint64_t h = fnv1a(canonical_spec);
  h = mix_u64(h, static_cast<std::uint64_t>(trials));
  h = mix_u64(h, base_seed);
  return fnv1a(kCodeVersion, h);
}

std::string serialize_trial_record(std::uint64_t seed, const core::TrialResult& r) {
  std::string out;
  char buf[64];
  const auto token = [&](const char* key, const std::string& value) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += value;
  };
  const auto integer = [&](const char* key, std::int64_t v) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    token(key, buf);
  };
  const auto real = [&](const char* key, double v) { token(key, core::format_spec_double(v)); };

  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(seed));
  token("seed", buf);
  integer("stopped", r.stopped_by_denm ? 1 : 0);
  integer("timeout", r.timed_out ? 1 : 0);
  integer("t_cross_ns", r.t_cross_actual.count_ns());
  integer("t_det_ns", r.t_detection.count_ns());
  integer("t_rsu_ns", r.t_rsu_send.count_ns());
  integer("t_obu_ns", r.t_obu_receive.count_ns());
  integer("t_cut_ns", r.t_power_cut.count_ns());
  integer("t_halt_ns", r.t_halt.count_ns());
  real("det_rsu_ms", r.meas_detection_to_rsu_ms);
  real("rsu_obu_ms", r.meas_rsu_to_obu_ms);
  real("obu_act_ms", r.meas_obu_to_actuator_ms);
  real("total_ms", r.meas_total_ms);
  real("brake_m", r.braking_distance_m);
  real("stop_cam_m", r.stop_distance_to_camera_m);
  real("det_dist_m", r.detection_distance_m);
  real("det_speed_mps", r.speed_at_detection_mps);
  return out;
}

namespace {

[[noreturn]] void bad_record(const std::string& line, const char* why) {
  throw std::invalid_argument{std::string{"trial record: "} + why + " in '" + line + "'"};
}

/// The record's keys, in the order serialize_trial_record writes them.
constexpr std::string_view kFields[] = {
    "seed",     "stopped",  "timeout",   "t_cross_ns", "t_det_ns",   "t_rsu_ns",
    "t_obu_ns", "t_cut_ns", "t_halt_ns", "det_rsu_ms", "rsu_obu_ms", "obu_act_ms",
    "total_ms", "brake_m",  "stop_cam_m", "det_dist_m", "det_speed_mps"};
constexpr std::size_t kFieldCount = std::size(kFields);

/// Why `key` cannot stand where field `expected` should.
const char* misplaced_field(std::string_view key, std::size_t expected) {
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    if (kFields[i] == key) return i < expected ? "duplicate field" : "missing field";
  }
  return "unknown field";
}

}  // namespace

TrialRecord parse_trial_record(const std::string& line) {
  // The grammar is exactly what serialize_trial_record writes: the 17 fields
  // once each, in order, one space apart, each value in its canonical
  // spelling. A record that parses therefore re-serializes to itself, and a
  // truncated, duplicated or bit-flipped store entry fails loud instead of
  // decoding into a plausible trial.
  TrialRecord rec;
  core::TrialResult& r = rec.result;
  const std::string_view text{line};
  std::size_t field = 0;
  for (std::size_t pos = 0; pos <= text.size(); ++field) {
    const std::size_t tok_end = std::min(text.find(' ', pos), text.size());
    const std::string_view tok = text.substr(pos, tok_end - pos);
    pos = tok_end + 1;  // past the one separating space, or past the end
    const auto eq = tok.find('=');
    if (eq == std::string_view::npos) bad_record(line, "token without '='");
    const std::string_view key = tok.substr(0, eq);
    const std::string_view value = tok.substr(eq + 1);
    if (field == kFieldCount || kFields[field] != key) bad_record(line, misplaced_field(key, field));
    const auto whole = [&](auto& out, const char* why) {
      const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
      if (ec != std::errc{} || end != value.data() + value.size()) bad_record(line, why);
    };
    // %lld / %llu spellings: from_chars already refuses '+', whitespace and
    // hex; leading zeros and "-0" are refused here.
    const auto integer = [&](auto& out, const char* why) {
      whole(out, why);
      if ((value.size() > 1 && value[0] == '0') || value.starts_with("-0")) bad_record(line, why);
    };
    const auto as_ns = [&] {
      std::int64_t v = 0;
      integer(v, "bad integer");
      return sim::SimTime::nanoseconds(v);
    };
    const auto as_flag = [&] {
      if (value != "0" && value != "1") bad_record(line, "bad integer");
      return value == "1";
    };
    // %.17g spelling (format_spec_double): the value must render back to
    // the same bytes; to_chars with a precision is printf's conversion.
    const auto as_double = [&] {
      double v = 0;
      whole(v, "bad number");
      char buf[32];
      const auto end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17).ptr;
      if (value != std::string_view{buf, end}) bad_record(line, "bad number");
      return v;
    };
    switch (field) {
      case 0: integer(rec.seed, "bad seed"); break;
      case 1: r.stopped_by_denm = as_flag(); break;
      case 2: r.timed_out = as_flag(); break;
      case 3: r.t_cross_actual = as_ns(); break;
      case 4: r.t_detection = as_ns(); break;
      case 5: r.t_rsu_send = as_ns(); break;
      case 6: r.t_obu_receive = as_ns(); break;
      case 7: r.t_power_cut = as_ns(); break;
      case 8: r.t_halt = as_ns(); break;
      case 9: r.meas_detection_to_rsu_ms = as_double(); break;
      case 10: r.meas_rsu_to_obu_ms = as_double(); break;
      case 11: r.meas_obu_to_actuator_ms = as_double(); break;
      case 12: r.meas_total_ms = as_double(); break;
      case 13: r.braking_distance_m = as_double(); break;
      case 14: r.stop_distance_to_camera_m = as_double(); break;
      case 15: r.detection_distance_m = as_double(); break;
      case 16: r.speed_at_detection_mps = as_double(); break;
    }
  }
  if (field != kFieldCount) bad_record(line, "missing field");
  return rec;
}

}  // namespace rst::server
