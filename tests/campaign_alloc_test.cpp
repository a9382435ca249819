// Counts heap allocations to pin the warm campaign path's cost:
//   - parse_trial_record decodes a stored record without touching the heap
//     (string_view tokens, std::from_chars conversions), and
//   - reopening a ResultStore segment allocates the record values, the
//     index nodes and one buffer for the whole segment, with no buffer
//     regrowth in between.
//
// Like scheduler_alloc_test, it links the counting allocator and so lives
// in its own binary.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "rst/server/campaign.hpp"
#include "rst/server/result_store.hpp"

#include "counting_allocator.hpp"

namespace rst::server {
namespace {

using test_support::CountScope;

/// A trial result whose every field is set, so each token of the record
/// carries a realistic number of digits.
core::TrialResult sample_trial(int i) {
  core::TrialResult r;
  r.stopped_by_denm = i % 7 != 0;
  r.timed_out = i % 7 == 0;
  r.t_cross_actual = sim::SimTime::nanoseconds(13'000'000'000 + 1'000'003LL * i);
  r.t_detection = sim::SimTime::nanoseconds(13'612'044'980 + 977LL * i);
  r.t_rsu_send = sim::SimTime::nanoseconds(13'640'000'000 + 311LL * i);
  r.t_obu_receive = sim::SimTime::nanoseconds(13'641'000'000 + 97LL * i);
  r.t_power_cut = sim::SimTime::nanoseconds(13'680'000'000 + 13LL * i);
  r.t_halt = sim::SimTime::nanoseconds(13'816'000'000 + 7LL * i);
  r.meas_detection_to_rsu_ms = 27.6 + 0.013 * i;
  r.meas_rsu_to_obu_ms = 1.6 / (1 + i);
  r.meas_obu_to_actuator_ms = 29.2 - 0.007 * i;
  r.meas_total_ms = 40.580674999999999 + 0.1 * i;
  r.braking_distance_m = 0.056521836067378928 * (1 + i % 5);
  r.stop_distance_to_camera_m = 1.0 / 3.0 + i;
  r.detection_distance_m = 1.49783050298794;
  r.speed_at_detection_mps = 0.45107080754431228;
  return r;
}

TEST(CampaignAlloc, ParseTrialRecordIsAllocationFree) {
  const std::string line = serialize_trial_record(18446744073709551615ULL, sample_trial(3));
  TrialRecord parsed;
  std::size_t allocations = 0;
  {
    CountScope scope;
    parsed = parse_trial_record(line);
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u) << "parse_trial_record allocated while decoding";
  EXPECT_EQ(serialize_trial_record(parsed.seed, parsed.result), line);
}

TEST(CampaignAlloc, ReopenAllocatesRecordsIndexAndOneSegmentBuffer) {
  constexpr std::size_t kRecords = 600;
  const std::string path = "campaign_alloc_reopen.seg";
  std::remove(path.c_str());
  std::vector<std::string> values;
  {
    ResultStore store{path};
    for (std::size_t i = 0; i < kRecords; ++i) {
      values.push_back(serialize_trial_record(i, sample_trial(static_cast<int>(i))));
      store.put(1000 + i, values.back());
    }
  }
  ASSERT_GT(values.front().size(), 200u);  // each value is a heap string

  // Per record: its value string and its index node. Per segment: one
  // buffer, plus the file stream's own (libstdc++ allocates one; the slack
  // leaves room for a standard library that allocates a little more). A
  // buffer that regrows while the ~200 kB segment is read takes about 19
  // more and does not fit.
  constexpr std::size_t kFileStream = 3;
  constexpr std::size_t kBound = 2 * kRecords + 1 + kFileStream;
  std::string moved_path = path;
  std::size_t allocations = 0;
  {
    CountScope scope;
    const ResultStore reopened{std::move(moved_path)};
    allocations = scope.count();
    ASSERT_EQ(reopened.count(), kRecords);
    for (std::size_t i = 0; i < kRecords; ++i) {
      const std::string* got = reopened.get(1000 + i);
      ASSERT_NE(got, nullptr);
      ASSERT_EQ(*got, values[i]);
    }
  }
  EXPECT_LE(allocations, kBound) << "segment replay regrew its buffer";
  EXPECT_GE(allocations, 2 * kRecords) << "fewer allocations than records and index nodes";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rst::server
