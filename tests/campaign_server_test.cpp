// Campaign server tests: spec canonicalization, trial-record round trips,
// the ResultStore segment file, and the CampaignEngine's acceptance
// criteria — an identical (spec, seed) resubmission is a full cache hit
// (zero trials executed, byte-identical artifact), output is bit-identical
// across worker counts, and the bounded admission queue rejects overload
// with a distinct status.

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rst/core/config_io.hpp"
#include "rst/server/campaign.hpp"
#include "rst/server/campaign_engine.hpp"
#include "rst/server/protocol.hpp"
#include "rst/server/result_store.hpp"

namespace rst::server {
namespace {

constexpr const char* kSpec =
    "# blind-corner campaign\n"
    "target_speed_mps = 0.45\n"
    "detection_fps = 20\n";

/// A scratch path in the build tree; removed before use so each test run
/// starts from an empty segment.
std::string scratch_path(const char* name) {
  std::string path = std::string{"campaign_test_"} + name + ".seg";
  std::remove(path.c_str());
  return path;
}

// --- Canonicalization ------------------------------------------------------

TEST(Canonicalize, IsAFixedPoint) {
  const std::string once = core::canonicalize_spec(kSpec);
  EXPECT_EQ(core::canonicalize_spec(once), once);
}

TEST(Canonicalize, CommentsWhitespaceAndOrderDoNotMatter) {
  const std::string reordered =
      "detection_fps=20\n"
      "   target_speed_mps   =   0.45   # trailing comment\n";
  EXPECT_EQ(core::canonicalize_spec(reordered), core::canonicalize_spec(kSpec));
}

TEST(Canonicalize, NumericFormattingIsNormalized) {
  // 0.450 and 4.5e-1 are the same double; the canonical form renders it
  // one way, so all three spell the same campaign.
  EXPECT_EQ(core::canonicalize_spec("target_speed_mps = 0.450\n"),
            core::canonicalize_spec("target_speed_mps = 4.5e-1\n"));
}

TEST(Canonicalize, RepeatedFaultClausesKeepTheirOrder) {
  const std::string spec =
      "fault = node-down:rsu:10:20:1\n"
      "seed = 9\n"
      "fault = http-loss:lan:0:5:0.5\n";
  const std::string canon = core::canonicalize_spec(spec);
  // Stable sort: both clauses survive, in submission order.
  const auto first = canon.find("node-down");
  const auto second = canon.find("http-loss");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_EQ(core::canonicalize_spec(canon), canon);
}

TEST(Canonicalize, DistinctSpecsGetDistinctKeys) {
  const auto key = [](const char* spec) { return trial_key(core::canonicalize_spec(spec), 1); };
  EXPECT_NE(key("target_speed_mps = 0.45\n"), key("target_speed_mps = 0.46\n"));
  EXPECT_NE(trial_key(core::canonicalize_spec(kSpec), 1),
            trial_key(core::canonicalize_spec(kSpec), 2));
}

// --- Trial records ---------------------------------------------------------

TEST(TrialRecord, RoundTripsExactly) {
  core::TrialResult r;
  r.stopped_by_denm = true;
  r.t_detection = sim::SimTime::nanoseconds(13612044980);
  r.t_halt = sim::SimTime::nanoseconds(13816000000);
  r.meas_total_ms = 40.580674999999999;
  r.braking_distance_m = 0.056521836067378928;
  r.detection_distance_m = 1.49783050298794;
  r.speed_at_detection_mps = 0.45107080754431228;
  const std::string line = serialize_trial_record(42, r);
  const TrialRecord back = parse_trial_record(line);
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.result.stopped_by_denm, r.stopped_by_denm);
  EXPECT_EQ(back.result.t_detection, r.t_detection);
  EXPECT_EQ(back.result.t_halt, r.t_halt);
  // %.17g round-trips every finite double bit-for-bit.
  EXPECT_EQ(back.result.meas_total_ms, r.meas_total_ms);
  EXPECT_EQ(back.result.braking_distance_m, r.braking_distance_m);
  EXPECT_EQ(back.result.detection_distance_m, r.detection_distance_m);
  EXPECT_EQ(back.result.speed_at_detection_mps, r.speed_at_detection_mps);
  // Serializing the parsed record reproduces the exact bytes.
  EXPECT_EQ(serialize_trial_record(back.seed, back.result), line);
}

TEST(TrialRecord, TruncatedOrCorruptRecordsFailLoud) {
  const std::string line = serialize_trial_record(1, core::TrialResult{});
  EXPECT_THROW((void)parse_trial_record(line.substr(0, line.size() / 2)), std::invalid_argument);
  EXPECT_THROW((void)parse_trial_record(line + " bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_trial_record("seed=abc"), std::invalid_argument);
}

TEST(TrialRecord, DuplicatedFieldCannotMaskAMissingOne) {
  const std::string line = serialize_trial_record(1, core::TrialResult{});
  // Swap one field for a duplicate of another: the token count is still 17,
  // but the record would silently decode total_ms as default-zero.
  const auto total = line.find(" total_ms=");
  const auto after_total = line.find(' ', total + 1);
  ASSERT_NE(total, std::string::npos);
  const std::string dup_for_missing =
      line.substr(0, total) + " brake_m=1" +
      (after_total == std::string::npos ? "" : line.substr(after_total));
  EXPECT_THROW((void)parse_trial_record(dup_for_missing), std::invalid_argument);
  // A plain 18-token duplicate fails too.
  EXPECT_THROW((void)parse_trial_record(line + " seed=1"), std::invalid_argument);
}

/// Replaces the value of `key` in a serialized record.
std::string with_value(const std::string& line, std::string_view key, std::string_view value) {
  const std::string needle = std::string{key} + "=";
  auto at = line.find(needle);
  while (at != std::string::npos && at != 0 && line[at - 1] != ' ') at = line.find(needle, at + 1);
  EXPECT_NE(at, std::string::npos) << key;
  const auto begin = at + needle.size();
  const auto end = line.find(' ', begin);
  return line.substr(0, begin) + std::string{value} +
         (end == std::string::npos ? "" : line.substr(end));
}

TEST(TrialRecord, EdgeValuesRoundTripBitExactly) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> doubles = {
      -0.0,    0.0,     5e-324,  -5e-324, DBL_MIN, DBL_MAX, -DBL_MAX, 1e-300,
      1e300,   0.1,     1.0 / 3, 0.30000000000000004, 1.2345678901234567e+89,
      9007199254740993.0, 123456789012345678.0, 2.2250738585072009e-308, kInf, -kInf};
  const std::vector<std::int64_t> ints = {std::numeric_limits<std::int64_t>::min(),
                                          std::numeric_limits<std::int64_t>::max(), -1, 0, 1};
  const std::vector<std::uint64_t> seeds = {0, 1, std::numeric_limits<std::uint64_t>::max()};
  for (std::size_t i = 0; i < doubles.size(); ++i) {
    core::TrialResult r;
    r.stopped_by_denm = i % 2 == 0;
    r.timed_out = i % 3 == 0;
    const auto ns = [&](std::size_t k) { return sim::SimTime::nanoseconds(ints[(i + k) % ints.size()]); };
    r.t_cross_actual = ns(0);
    r.t_detection = ns(1);
    r.t_rsu_send = ns(2);
    r.t_obu_receive = ns(3);
    r.t_power_cut = ns(4);
    r.t_halt = ns(5);
    double* fields[] = {&r.meas_detection_to_rsu_ms, &r.meas_rsu_to_obu_ms,
                        &r.meas_obu_to_actuator_ms,  &r.meas_total_ms,
                        &r.braking_distance_m,       &r.stop_distance_to_camera_m,
                        &r.detection_distance_m,     &r.speed_at_detection_mps};
    for (std::size_t f = 0; f < std::size(fields); ++f) *fields[f] = doubles[(i + f) % doubles.size()];
    const std::uint64_t seed = seeds[i % seeds.size()];
    const std::string line = serialize_trial_record(seed, r);
    const TrialRecord back = parse_trial_record(line);
    EXPECT_EQ(back.seed, seed);
    EXPECT_EQ(back.result.stopped_by_denm, r.stopped_by_denm);
    EXPECT_EQ(back.result.timed_out, r.timed_out);
    EXPECT_EQ(back.result.t_cross_actual, r.t_cross_actual);
    EXPECT_EQ(back.result.t_halt, r.t_halt);
    const double got[] = {back.result.meas_detection_to_rsu_ms, back.result.meas_rsu_to_obu_ms,
                          back.result.meas_obu_to_actuator_ms,  back.result.meas_total_ms,
                          back.result.braking_distance_m,       back.result.stop_distance_to_camera_m,
                          back.result.detection_distance_m,     back.result.speed_at_detection_mps};
    for (std::size_t f = 0; f < std::size(fields); ++f) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[f]), std::bit_cast<std::uint64_t>(*fields[f]))
          << line;
    }
    EXPECT_EQ(serialize_trial_record(back.seed, back.result), line);
  }
}

TEST(TrialRecord, RandomBitPatternsRoundTrip) {
  // Every finite double the serializer can meet, sampled by raw bits
  // (subnormals and every exponent included), must parse back bit-exactly.
  std::mt19937_64 rng{20231};
  core::TrialResult r;
  for (int i = 0; i < 4000; ++i) {
    double* fields[] = {&r.meas_detection_to_rsu_ms, &r.meas_rsu_to_obu_ms,
                        &r.meas_obu_to_actuator_ms,  &r.meas_total_ms,
                        &r.braking_distance_m,       &r.stop_distance_to_camera_m,
                        &r.detection_distance_m,     &r.speed_at_detection_mps};
    for (double* f : fields) {
      double v = 0;
      do {
        v = std::bit_cast<double>(rng());
      } while (!std::isfinite(v));
      // Half of the draws are ordinary measurement magnitudes.
      *f = i % 2 == 0 ? v : std::ldexp(static_cast<double>(rng() >> 11), -53) * 100.0;
    }
    const std::string line = serialize_trial_record(rng(), r);
    const TrialRecord back = parse_trial_record(line);
    ASSERT_EQ(serialize_trial_record(back.seed, back.result), line);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(back.result.meas_total_ms),
              std::bit_cast<std::uint64_t>(r.meas_total_ms));
  }
}

TEST(TrialRecord, RejectsSpellingsTheSerializerNeverWrites) {
  // strtod/strtoll accepted several of these (a leading '+', hex floats,
  // leading whitespace, out-of-range clamping, strtoull's wrap of "-1");
  // only a corrupted store can hold them, so the parser refuses them all.
  core::TrialResult r;
  r.t_detection = sim::SimTime::nanoseconds(13612044980);
  r.meas_total_ms = 40.580674999999999;
  const std::string line = serialize_trial_record(7, r);
  ASSERT_NO_THROW((void)parse_trial_record(line));
  const std::vector<std::pair<std::string_view, std::string_view>> bad = {
      {"t_det_ns", "+13612044980"},  {"t_det_ns", "0x10"},   {"t_det_ns", "1e"},
      {"t_det_ns", "\t13612044980"}, {"t_det_ns", "013612044980"}, {"t_det_ns", "-0"},
      {"t_det_ns", "99999999999999999999"}, {"t_det_ns", "1.5"}, {"t_det_ns", ""},
      {"seed", "-1"},            {"seed", "+7"},           {"seed", "07"},
      {"seed", "18446744073709551616"},   {"stopped", "2"},  {"stopped", "-1"},
      {"stopped", "00"},         {"total_ms", "+40.580674999999999"},
      {"total_ms", "0x10"},      {"total_ms", "1e"},       {"total_ms", "1e999"},
      {"total_ms", "40.58"},     {"total_ms", "40.580674999999999e0"},
      {"total_ms", "4.0580674999999999e1"}, {"total_ms", " 40.580674999999999"},
      {"total_ms", "INF"},       {"total_ms", "nan(1)"},   {"total_ms", "40.5806749999999990"},
      {"total_ms", ".5"},        {"total_ms", "-0.0"},     {"total_ms", ""}};
  for (const auto& [key, value] : bad) {
    const std::string mutated = with_value(line, key, value);
    EXPECT_THROW((void)parse_trial_record(mutated), std::invalid_argument) << mutated;
  }
  // Token layout: one space between fields, none around the record, the
  // serializer's field order.
  EXPECT_THROW((void)parse_trial_record(" " + line), std::invalid_argument);
  EXPECT_THROW((void)parse_trial_record(line + " "), std::invalid_argument);
  EXPECT_THROW((void)parse_trial_record(with_value(line, "stopped", "0 ")), std::invalid_argument);
  EXPECT_THROW((void)parse_trial_record(""), std::invalid_argument);
  const auto first_space = line.find(' ');
  const auto second_space = line.find(' ', first_space + 1);
  const std::string swapped = line.substr(first_space + 1, second_space - first_space - 1) + " " +
                              line.substr(0, first_space) + line.substr(second_space);
  EXPECT_THROW((void)parse_trial_record(swapped), std::invalid_argument);
}

TEST(TrialRecord, MutatedRecordsFailLoudOrReserializeToThemselves) {
  // A seeded corpus of corrupted store entries: bit flips, truncations,
  // byte insertions and deletions of real records, plus random token soup.
  // Each must either throw std::invalid_argument or decode into a record
  // that serializes back to exactly the mutated bytes.
  std::mt19937_64 rng{17};
  std::vector<std::string> records;
  for (int i = 0; i < 8; ++i) {
    core::TrialResult r;
    r.stopped_by_denm = i % 3 != 0;
    r.timed_out = i % 3 == 0;
    r.t_cross_actual = sim::SimTime::nanoseconds(13'000'000'000 + 977LL * i);
    r.t_detection = sim::SimTime::nanoseconds(13'612'044'980 + 31LL * i);
    r.t_halt = sim::SimTime::nanoseconds(-5 * i);
    r.meas_detection_to_rsu_ms = 27.6 + 0.013 * i;
    r.meas_rsu_to_obu_ms = i == 0 ? 0.5 : 1.6 / i;
    r.meas_total_ms = 40.580674999999999 + i;
    r.braking_distance_m = 0.056521836067378928 * i;
    r.detection_distance_m = i == 5 ? std::numeric_limits<double>::quiet_NaN() : 1.49783050298794;
    r.speed_at_detection_mps = i == 6 ? 5e-324 : 0.45107080754431228;
    records.push_back(serialize_trial_record(static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL, r));
  }
  const std::string alphabet = "0123456789.-+e= xabnfistopd_";
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 20000; ++round) {
    std::string m = records[rng() % records.size()];
    switch (rng() % 5) {
      case 0: {  // flip one to three bits
        for (int k = 0, flips = 1 + static_cast<int>(rng() % 3); k < flips; ++k) {
          m[rng() % m.size()] ^= static_cast<char>(1u << (rng() % 8));
        }
        break;
      }
      case 1: m.resize(rng() % m.size()); break;  // truncated
      case 2: m.insert(m.begin() + static_cast<long>(rng() % (m.size() + 1)), alphabet[rng() % alphabet.size()]); break;
      case 3: m.erase(m.begin() + static_cast<long>(rng() % m.size())); break;
      default: {  // random text over the record alphabet
        m.assign(rng() % 400, ' ');
        for (char& c : m) c = alphabet[rng() % alphabet.size()];
        break;
      }
    }
    try {
      const TrialRecord back = parse_trial_record(m);
      ++accepted;
      ASSERT_EQ(serialize_trial_record(back.seed, back.result), m) << "accepted a non-canonical record";
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  // The corpus exercises both outcomes: a flipped low digit is often still
  // canonical, almost everything else is refused.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, accepted);
}

// --- ResultStore -----------------------------------------------------------

TEST(ResultStore, MemoryOnlyPutGet) {
  ResultStore store;
  EXPECT_FALSE(store.contains(7));
  store.put(7, "value");
  ASSERT_TRUE(store.contains(7));
  EXPECT_EQ(*store.get(7), "value");
  EXPECT_EQ(store.count(), 1u);
}

TEST(ResultStore, SurvivesReopen) {
  const std::string path = scratch_path("reopen");
  {
    ResultStore store{path};
    store.put(1, "one");
    store.put(2, "two");
  }
  ResultStore reopened{path};
  EXPECT_EQ(reopened.count(), 2u);
  EXPECT_EQ(*reopened.get(1), "one");
  EXPECT_EQ(*reopened.get(2), "two");
  std::remove(path.c_str());
}

TEST(ResultStore, ToleratesTornTail) {
  const std::string path = scratch_path("torn");
  {
    ResultStore store{path};
    store.put(1, "one");
    store.put(2, "two");
  }
  // Chop a few bytes off the tail — a crash mid-append.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), size - 2), 0);
  }
  ResultStore reopened{path};
  EXPECT_EQ(reopened.count(), 1u);  // the torn record is dropped
  EXPECT_EQ(*reopened.get(1), "one");
  std::remove(path.c_str());
}

TEST(ResultStore, AppendsAfterTornTailStayParseable) {
  // A torn tail must be truncated from the file, not just skipped in the
  // index: records appended after partial bytes would misalign every later
  // replay (the torn length header eats the next record's start).
  const std::string path = scratch_path("torn_append");
  {
    ResultStore store{path};
    store.put(1, "one");
    store.put(2, "two");
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), size - 2), 0);
  }
  {
    ResultStore store{path};
    EXPECT_EQ(store.count(), 1u);
    store.put(3, "three");  // lands where the torn bytes were
    store.put(2, "two again");
  }
  ResultStore reopened{path};
  EXPECT_EQ(reopened.count(), 3u);
  EXPECT_EQ(*reopened.get(1), "one");
  EXPECT_EQ(*reopened.get(2), "two again");
  EXPECT_EQ(*reopened.get(3), "three");
  std::remove(path.c_str());
}

TEST(ResultStore, TornMagicHeaderIsTruncatedAway) {
  // A crash during the very first append can leave a prefix of the magic;
  // that is a torn write, not a foreign file — reopen treats it as empty.
  const std::string path = scratch_path("torn_magic");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(ResultStore::kMagic, 1, 3, f);
    std::fclose(f);
  }
  {
    ResultStore store{path};
    EXPECT_EQ(store.count(), 0u);
    store.put(9, "nine");
  }
  ResultStore reopened{path};
  EXPECT_EQ(reopened.count(), 1u);
  EXPECT_EQ(*reopened.get(9), "nine");
  std::remove(path.c_str());
}

TEST(ResultStore, CompactionReclaimsSupersededBytes) {
  const std::string path = scratch_path("compact");
  {
    ResultStore store{path};
    store.put(1, "first version, rather long so the dead bytes are visible");
    store.put(1, "second");
    store.put(2, "other");
    EXPECT_GT(store.appended_bytes(), store.live_bytes());
    const std::uint64_t reclaimed = store.compact();
    EXPECT_GT(reclaimed, 0u);
    EXPECT_EQ(store.appended_bytes(), store.live_bytes());
    EXPECT_EQ(*store.get(1), "second");
  }
  ResultStore reopened{path};
  EXPECT_EQ(reopened.count(), 2u);
  EXPECT_EQ(*reopened.get(1), "second");
  EXPECT_EQ(*reopened.get(2), "other");
  std::remove(path.c_str());
}

TEST(ResultStore, RejectsForeignFile) {
  const std::string path = scratch_path("foreign");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a segment", f);
    std::fclose(f);
  }
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
  std::remove(path.c_str());
}

std::uintmax_t file_size(const std::string& path) { return std::filesystem::file_size(path); }

TEST(ResultStore, EmptyFileReopensEmptyAndAcceptsPuts) {
  const std::string path = scratch_path("empty");
  std::fclose(std::fopen(path.c_str(), "wb"));
  {
    ResultStore store{path};
    EXPECT_EQ(store.count(), 0u);
    EXPECT_EQ(file_size(path), 0u);
    store.put(5, "five");
  }
  ResultStore reopened{path};
  EXPECT_EQ(reopened.count(), 1u);
  EXPECT_EQ(*reopened.get(5), "five");
  std::remove(path.c_str());
}

TEST(ResultStore, HeaderOnlySegmentReopensEmpty) {
  const std::string path = scratch_path("header_only");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(ResultStore::kMagic, 1, sizeof ResultStore::kMagic, f);
    std::fclose(f);
  }
  {
    ResultStore store{path};
    EXPECT_EQ(store.count(), 0u);
    EXPECT_EQ(store.appended_bytes(), 0u);
  }
  EXPECT_EQ(file_size(path), sizeof ResultStore::kMagic);
  std::remove(path.c_str());
}

TEST(ResultStore, TornTailIsCutAtTheLastWholeRecord) {
  const std::string path = scratch_path("torn_cut");
  {
    ResultStore store{path};
    store.put(1, "one");
    store.put(2, "two");
    store.put(3, "a third, longer record");
  }
  const auto whole_two = sizeof ResultStore::kMagic + 2 * (12 + 3);
  // Cut inside the third record's length header, then inside its value.
  for (const auto cut : {whole_two + 5, file_size(path) - 1}) {
    {
      ResultStore store{path};
      if (store.count() == 2u) store.put(3, "a third, longer record");
    }
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(cut)), 0);
    ResultStore reopened{path};
    EXPECT_EQ(reopened.count(), 2u);
    EXPECT_EQ(*reopened.get(2), "two");
    EXPECT_EQ(reopened.get(3), nullptr);
    EXPECT_EQ(file_size(path), whole_two);
  }
  std::remove(path.c_str());
}

TEST(ResultStore, SegmentOverOneMegabyteRoundTrips) {
  const std::string path = scratch_path("large");
  std::vector<std::string> values;
  for (int i = 0; i < 300; ++i) {
    std::string v(3000 + 37 * (i % 50), '\0');
    for (std::size_t k = 0; k < v.size(); ++k) v[k] = static_cast<char>((k * 131 + i) & 0xff);
    values.push_back(std::move(v));
  }
  {
    ResultStore store{path};
    for (std::size_t i = 0; i < values.size(); ++i) store.put(i, values[i]);
    store.put(7, values[8]);  // one superseded record in the segment
  }
  ASSERT_GT(file_size(path), 1u << 20);
  const auto size = file_size(path);
  ResultStore reopened{path};
  EXPECT_EQ(file_size(path), size);  // nothing was torn
  ASSERT_EQ(reopened.count(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(*reopened.get(i), i == 7 ? values[8] : values[i]) << i;
  }
  EXPECT_EQ(reopened.appended_bytes() + sizeof ResultStore::kMagic, size);
  std::remove(path.c_str());
}

TEST(ResultStore, BadMagicThrowsAndLeavesTheFile) {
  const std::string path = scratch_path("bad_magic");
  {
    ResultStore store{path};
    store.put(1, "one");
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 7, SEEK_SET);
    std::fputc('9', f);  // RSTSTOR1 -> RSTSTOR9: a future or foreign format
    std::fclose(f);
  }
  const auto size = file_size(path);
  EXPECT_THROW(ResultStore{path}, std::runtime_error);
  EXPECT_EQ(file_size(path), size);
  std::remove(path.c_str());
}

// --- CampaignEngine --------------------------------------------------------

CampaignRequest small_campaign(int trials = 4) {
  CampaignRequest request;
  request.spec = kSpec;
  request.trials = trials;
  request.base_seed = 42;
  return request;
}

TEST(CampaignEngine, ResubmissionIsAFullCacheHit) {
  CampaignEngine engine{{}};
  const CampaignOutcome cold = engine.execute(small_campaign());
  ASSERT_EQ(cold.status, CampaignOutcome::Status::Ok);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 4u);
  EXPECT_EQ(cold.executed, 4u);
  const std::uint64_t executed_after_cold = engine.trials_executed();

  const CampaignOutcome warm = engine.execute(small_campaign());
  ASSERT_EQ(warm.status, CampaignOutcome::Status::Ok);
  EXPECT_EQ(warm.cache_hits, 4u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.executed, 0u);
  // Zero trials re-executed, proven by the engine-lifetime counter...
  EXPECT_EQ(engine.trials_executed(), executed_after_cold);
  // ...and the artifact is byte-identical.
  EXPECT_EQ(warm.artifact, cold.artifact);
  EXPECT_EQ(warm.id, cold.id);
}

TEST(CampaignEngine, SpellingVariantsShareTheCache) {
  CampaignEngine engine{{}};
  const CampaignOutcome cold = engine.execute(small_campaign());
  CampaignRequest variant = small_campaign();
  variant.spec = "detection_fps=20\ntarget_speed_mps = 4.5e-1  # same campaign\n";
  const CampaignOutcome warm = engine.execute(variant);
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_EQ(warm.artifact, cold.artifact);
}

TEST(CampaignEngine, ArtifactIsBitIdenticalAcrossWorkerCounts) {
  CampaignEngineConfig serial;
  serial.threads = 1;
  CampaignEngineConfig pooled;
  pooled.threads = 8;
  CampaignEngine a{serial};
  CampaignEngine b{pooled};
  const CampaignOutcome ra = a.execute(small_campaign(8));
  const CampaignOutcome rb = b.execute(small_campaign(8));
  ASSERT_EQ(ra.status, CampaignOutcome::Status::Ok);
  ASSERT_EQ(rb.status, CampaignOutcome::Status::Ok);
  EXPECT_EQ(ra.artifact, rb.artifact);
  // Both executed everything — this is a cold-vs-cold comparison.
  EXPECT_EQ(ra.executed, 8u);
  EXPECT_EQ(rb.executed, 8u);
}

TEST(CampaignEngine, PartialOverlapRunsOnlyTheMisses) {
  CampaignEngine engine{{}};
  (void)engine.execute(small_campaign(4));  // seeds 42..45
  CampaignRequest wider = small_campaign(6);  // seeds 42..47
  const CampaignOutcome out = engine.execute(wider);
  EXPECT_EQ(out.cache_hits, 4u);
  EXPECT_EQ(out.cache_misses, 2u);
  EXPECT_EQ(out.executed, 2u);
}

TEST(CampaignEngine, StreamsInSeedOrderIncrementally) {
  CampaignEngineConfig config;
  config.threads = 4;
  CampaignEngine engine{config};
  std::vector<std::string> lines;
  const CampaignOutcome out =
      engine.execute(small_campaign(6), [&](const std::string& line) { lines.push_back(line); });
  ASSERT_EQ(out.status, CampaignOutcome::Status::Ok);
  ASSERT_GE(lines.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(lines[static_cast<std::size_t>(i)].rfind("TRIAL " + std::to_string(i) + " ", 0), 0u);
  }
  // The streamed lines are exactly the artifact.
  std::string joined;
  for (const auto& line : lines) joined += line + "\n";
  EXPECT_EQ(joined, out.artifact);
}

TEST(CampaignEngine, CacheHitsComeFromTheSegmentFileAfterReopen) {
  const std::string path = scratch_path("engine");
  std::string cold_artifact;
  {
    CampaignEngineConfig config;
    config.store_path = path;
    CampaignEngine engine{config};
    cold_artifact = engine.execute(small_campaign()).artifact;
  }
  CampaignEngineConfig config;
  config.store_path = path;
  CampaignEngine reopened{config};
  const CampaignOutcome warm = reopened.execute(small_campaign());
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_EQ(warm.artifact, cold_artifact);
  EXPECT_EQ(reopened.trials_executed(), 0u);
  std::remove(path.c_str());
}

TEST(CampaignEngine, BadSpecIsAnErrorNotACrash) {
  CampaignEngine engine{{}};
  CampaignRequest bad = small_campaign();
  bad.spec = "no_such_knob = 1\n";
  const CampaignOutcome out = engine.execute(bad);
  EXPECT_EQ(out.status, CampaignOutcome::Status::Error);
  EXPECT_NE(out.error.find("no_such_knob"), std::string::npos);
  EXPECT_EQ(engine.trials_executed(), 0u);
}

TEST(CampaignEngine, RemovedPartitionKeyIsAnErrorNotASilentRun) {
  // A stored spec from before the partitioned engine, the medium mode
  // switches and the obstacle-index switch were retired must not run under
  // its old name; it is rejected as an unknown key.
  for (const std::string line :
       {"medium_partitions = 4", "medium_spatial_index = true", "obstacle_index = false"}) {
    CampaignEngine engine{{}};
    CampaignRequest old_spec = small_campaign();
    old_spec.spec = std::string{kSpec} + line + "\n";
    const CampaignOutcome out = engine.execute(old_spec);
    EXPECT_EQ(out.status, CampaignOutcome::Status::Error) << line;
    EXPECT_NE(out.error.find(line.substr(0, line.find(' '))), std::string::npos) << line;
    EXPECT_EQ(engine.trials_executed(), 0u) << line;
  }
}

TEST(CampaignEngine, BehaviourFingerprintPinsCodeVersion) {
  // Stored trials are keyed by (spec, seed, kCodeVersion). If a change
  // alters what a trial produces but leaves the version string alone, an
  // existing ResultStore serves stale records as cache hits. Pin the
  // records of four small campaigns — the paper defaults, CPM with the
  // liveness watchdog, the degraded fault plan, and a power floor above the
  // testbed's few-metre link budget — next to the version. The defaults
  // never bring a testbed link near the floor or the sensitivity, so the
  // last spec is the one that moves when the medium's culling rule changes.
  constexpr std::string_view kPinnedVersion = "rst-campaign/2";
  constexpr std::uint64_t kPinnedFingerprint = 0x52555e39c143e999ULL;
  const char* const specs[] = {
      "",
      "cpm_enable = true\nwatchdog = true\nwatchdog_timeout_ms = 400\n",
      "fault = node-down:obu:500:3500:1\n"
      "fault = radio-attenuation:medium:500:3500:25\n"
      "watchdog = true\nwatchdog_timeout_ms = 400\n"
      "failsafe_speed_mps = 0.35\nenable_lidar_aeb = true\n",
      "medium_power_floor_dbm = -20\n",
  };
  CampaignEngine engine{{}};
  std::uint64_t fingerprint = fnv1a("");
  for (const char* spec : specs) {
    CampaignRequest request;
    request.spec = spec;
    request.trials = 3;
    request.base_seed = 1;
    const CampaignOutcome out = engine.execute(request);
    ASSERT_EQ(out.status, CampaignOutcome::Status::Ok) << out.error;
    fingerprint = fnv1a(out.artifact, fingerprint);
  }
  if (kCodeVersion == kPinnedVersion) {
    EXPECT_EQ(fingerprint, kPinnedFingerprint)
        << "trial records changed: bump server::kCodeVersion, then re-pin kPinnedVersion and "
           "kPinnedFingerprint (now 0x"
        << std::hex << fingerprint << ")";
  } else {
    ADD_FAILURE() << "server::kCodeVersion moved: re-pin kPinnedVersion to \"" << kCodeVersion
                  << "\" and kPinnedFingerprint to 0x" << std::hex << fingerprint;
  }
}

TEST(CampaignEngine, BoundedQueueRejectsOverload) {
  CampaignEngineConfig config;
  config.queue_capacity = 2;
  CampaignEngine engine{config};
  EXPECT_EQ(engine.submit(small_campaign()), CampaignEngine::Admission::Admitted);
  EXPECT_EQ(engine.submit(small_campaign()), CampaignEngine::Admission::Admitted);
  // Queue full: the distinct rejected status, not unbounded growth.
  EXPECT_EQ(engine.submit(small_campaign()), CampaignEngine::Admission::Rejected);
  EXPECT_EQ(engine.queue_depth(), 2u);
  EXPECT_EQ(engine.metrics().counter("campaigns_rejected").value(), 1u);
  // execute() honors the same admission bound while a backlog exists.
  const CampaignOutcome out = engine.execute(small_campaign());
  EXPECT_EQ(out.status, CampaignOutcome::Status::Rejected);
  // Draining the queue runs the admitted campaigns.
  EXPECT_TRUE(engine.run_one().has_value());
  EXPECT_TRUE(engine.run_one().has_value());
  EXPECT_FALSE(engine.run_one().has_value());
}

TEST(CampaignEngine, DropOldestShedsTheStalestCampaign) {
  CampaignEngineConfig config;
  config.queue_capacity = 1;
  config.overflow = CampaignEngineConfig::OverflowPolicy::DropOldest;
  CampaignEngine engine{config};
  CampaignRequest first = small_campaign(2);
  CampaignRequest second = small_campaign(3);
  EXPECT_EQ(engine.submit(first), CampaignEngine::Admission::Admitted);
  EXPECT_EQ(engine.submit(second), CampaignEngine::Admission::Admitted);
  EXPECT_EQ(engine.queue_depth(), 1u);
  EXPECT_EQ(engine.metrics().counter("campaigns_shed").value(), 1u);
  // The survivor is the newer submission.
  const auto out = engine.run_one();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->cache_misses, 3u);
}

TEST(CampaignEngine, ExecuteHonorsDropOldestPolicy) {
  CampaignEngineConfig config;
  config.queue_capacity = 1;
  config.overflow = CampaignEngineConfig::OverflowPolicy::DropOldest;
  CampaignEngine engine{config};
  EXPECT_EQ(engine.submit(small_campaign(2)), CampaignEngine::Admission::Admitted);
  // The queue is full, but the synchronous path applies the configured
  // policy: the stalest queued campaign is shed and this one runs.
  const CampaignOutcome out = engine.execute(small_campaign(3));
  EXPECT_EQ(out.status, CampaignOutcome::Status::Ok);
  EXPECT_EQ(out.cache_misses, 3u);
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(engine.metrics().counter("campaigns_shed").value(), 1u);
  EXPECT_EQ(engine.metrics().counter("campaigns_rejected").value(), 0u);
  EXPECT_FALSE(engine.run_one().has_value());  // the shed campaign is gone
}

TEST(CampaignEngine, AdmissionTraceEventsCarryTheCampaignId) {
  CampaignEngineConfig config;
  config.queue_capacity = 1;
  CampaignEngine engine{config};
  const CampaignRequest request = small_campaign();
  const std::uint64_t id =
      campaign_id(core::canonicalize_spec(request.spec), request.trials, request.base_seed);
  EXPECT_EQ(engine.submit(request), CampaignEngine::Admission::Admitted);
  EXPECT_EQ(engine.submit(request), CampaignEngine::Admission::Rejected);
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  for (const auto& e : engine.trace().events()) {
    if (e.stage == sim::Stage::CampaignAdmitted) {
      EXPECT_EQ(e.a, id);
      ++admitted;
    } else if (e.stage == sim::Stage::CampaignRejected) {
      EXPECT_EQ(e.a, id);
      ++rejected;
    }
  }
  EXPECT_EQ(admitted, 1u);
  EXPECT_EQ(rejected, 1u);
}

TEST(CampaignEngine, ObservabilityCountsMatchOutcomes) {
  CampaignEngine engine{{}};
  (void)engine.execute(small_campaign());
  (void)engine.execute(small_campaign());
  auto& m = engine.metrics();
  EXPECT_EQ(m.counter("cache_hits").value(), 4u);
  EXPECT_EQ(m.counter("cache_misses").value(), 4u);
  EXPECT_EQ(m.counter("trials_executed").value(), 4u);
  EXPECT_EQ(m.counter("campaigns_admitted").value(), 2u);
  EXPECT_EQ(m.histogram("campaign.trial_total_ms").count(), 8u);
  // One CampaignTrial trace event per trial per run, hit/miss in `detail`.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& e : engine.trace().events()) {
    if (e.stage != sim::Stage::CampaignTrial) continue;
    (e.detail == sim::kCampaignTrialHit ? hits : misses) += 1;
  }
  EXPECT_EQ(hits, 4u);
  EXPECT_EQ(misses, 4u);
}

// --- LineSession protocol --------------------------------------------------

TEST(LineSession, PingStatsAndUnknownCommands) {
  CampaignEngine engine{{}};
  LineSession session{engine};
  EXPECT_EQ(session.handle_text("PING\n"), "PONG\n");
  const std::string stats = session.handle_text("STATS\n");
  EXPECT_EQ(stats.rfind("STATS admitted=0 ", 0), 0u);
  const std::string bad = session.handle_text("FROB\n");
  EXPECT_EQ(bad.rfind("ERROR unknown command", 0), 0u);
}

TEST(LineSession, CampaignRoundTripAndCacheHitReplay) {
  CampaignEngine engine{{}};
  const std::string request = format_campaign_request(small_campaign(3));
  LineSession a{engine};
  const std::string cold = a.handle_text(request);
  LineSession b{engine};
  const std::string warm = b.handle_text(request);

  // Both responses: OK header, artifact, ENDARTIFACT, STATS, DONE.
  EXPECT_EQ(cold.rfind("OK id=", 0), 0u);
  EXPECT_NE(cold.find("\nENDARTIFACT\nSTATS "), std::string::npos);
  EXPECT_NE(cold.find("STATS hits=0 misses=3 executed=3\n"), std::string::npos);
  EXPECT_NE(warm.find("STATS hits=3 misses=0 executed=0\n"), std::string::npos);
  // The byte-stable artifact block (everything before the STATS trailer)
  // is identical across the cold and cache-hit paths.
  EXPECT_EQ(cold.substr(0, cold.find("STATS ")), warm.substr(0, warm.find("STATS ")));
}

TEST(LineSession, BadSpecYieldsError) {
  CampaignEngine engine{{}};
  LineSession session{engine};
  const std::string response =
      session.handle_text("CAMPAIGN trials=2 seed=1\nnot_a_knob = 3\nEND\n");
  EXPECT_EQ(response.rfind("ERROR ", 0), 0u);
  EXPECT_NE(response.find("DONE\n"), std::string::npos);
}

TEST(LineSession, QuitEndsTheSession) {
  CampaignEngine engine{{}};
  LineSession session{engine};
  bool open = session.consume_line("QUIT", [](const std::string&) {});
  EXPECT_FALSE(open);
}

}  // namespace
}  // namespace rst::server
