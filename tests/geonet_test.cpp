#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "rst/its/network/btp.hpp"
#include "rst/its/network/geonet.hpp"

namespace rst::its {
namespace {

using namespace rst::sim::literals;

/// "<prefix><id>", built in place: g++ 12 reports a false -Wrestrict on
/// the inlined `"r" + std::to_string(id)` temporary.
std::string tagged(char prefix, std::uint64_t id) {
  std::string name(1, prefix);
  name += std::to_string(id);
  return name;
}

struct Node {
  std::unique_ptr<dot11p::Radio> radio;
  std::unique_ptr<GeoNetRouter> router;
  std::vector<std::pair<std::vector<std::uint8_t>, GnDeliveryMeta>> delivered;
};

struct Rig {
  sim::Scheduler sched;
  sim::RandomStream rng{77, "gn_test"};
  geo::LocalFrame frame{{41.1780, -8.6080}};
  std::unique_ptr<dot11p::Medium> medium;
  std::vector<std::unique_ptr<Node>> nodes;

  explicit Rig(double exponent = 2.0, GeoNetConfig gn_config = {}) : gn_config_{gn_config} {
    dot11p::ChannelModel channel;
    channel.path_loss =
        std::make_shared<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(exponent));
    medium = std::make_unique<dot11p::Medium>(sched, rng.child("medium"), channel);
  }

  Node& add_node(std::uint32_t id, geo::Vec2 pos, dot11p::RadioConfig radio_config = {}) {
    auto node = std::make_unique<Node>();
    node->radio = std::make_unique<dot11p::Radio>(
        *medium, radio_config, [pos] { return pos; }, rng.child(tagged('r', id)),
        tagged('r', id));
    node->router = std::make_unique<GeoNetRouter>(
        sched, *node->radio, frame, GnAddress::from_station(id),
        [pos] { return EgoState{pos, 0.0, 0.0}; }, gn_config_, rng.child(tagged('g', id)));
    Node* raw = node.get();
    node->router->set_delivery_handler(
        [raw](const std::vector<std::uint8_t>& pdu, const GnDeliveryMeta& meta) {
          raw->delivered.emplace_back(pdu, meta);
        });
    nodes.push_back(std::move(node));
    return *nodes.back();
  }

  GeoNetConfig gn_config_{};
};

std::vector<std::uint8_t> payload_bytes() { return {0x01, 0x02, 0x03, 0x04}; }

TEST(GeoNet, ShbDeliversToNeighbours) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  a.router->send_shb(payload_bytes(), dot11p::AccessCategory::Video);
  rig.sched.run();
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(b.delivered[0].first, payload_bytes());
  EXPECT_EQ(b.delivered[0].second.source, GnAddress::from_station(1));
  EXPECT_NEAR(b.delivered[0].second.source_position.x, 0.0, 0.5);
  EXPECT_EQ(a.router->stats().originated, 1u);
  EXPECT_EQ(b.router->stats().delivered_up, 1u);
}

TEST(GeoNet, ShbIsSingleHop) {
  // Three nodes in a line, radio range covers only adjacent pairs.
  Rig rig{2.5};
  dot11p::RadioConfig weak;
  weak.tx_power_dbm = 20.0;
  weak.rx_sensitivity_dbm = -80.0;
  weak.cs_threshold_dbm = -80.0;
  auto& a = rig.add_node(1, {0, 0}, weak);
  auto& b = rig.add_node(2, {150, 0}, weak);
  auto& c = rig.add_node(3, {300, 0}, weak);
  a.router->send_shb(payload_bytes(), dot11p::AccessCategory::Video);
  rig.sched.run_until(2_s);
  EXPECT_EQ(b.delivered.size(), 1u);
  EXPECT_TRUE(c.delivered.empty());  // never forwarded
  EXPECT_EQ(b.router->stats().forwarded, 0u);
}

TEST(GeoNet, LocationTableLearnsFromAllPackets) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  a.router->send_shb(payload_bytes(), dot11p::AccessCategory::Video);
  rig.sched.run();
  const auto& table = b.router->location_table();
  const auto it = table.find(GnAddress::from_station(1).value);
  ASSERT_NE(it, table.end());
  EXPECT_EQ(it->second.packets_received, 1u);
  // Own address never appears in the local table.
  EXPECT_FALSE(a.router->location_table().contains(GnAddress::from_station(1).value));
}

TEST(GeoNet, GbcDeliversInsideAreaOnly) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& inside = rig.add_node(2, {30, 0});
  auto& outside = rig.add_node(3, {0, 200});
  a.router->send_gbc(payload_bytes(), geo::GeoArea::circle({30, 0}, 50.0),
                     dot11p::AccessCategory::Voice);
  rig.sched.run_until(2_s);
  EXPECT_EQ(inside.delivered.size(), 1u);
  EXPECT_TRUE(outside.delivered.empty());
}

TEST(GeoNet, GbcMultiHopForwardingReachesAcrossRangeLimit) {
  Rig rig{2.5};
  dot11p::RadioConfig weak;
  weak.tx_power_dbm = 20.0;
  weak.rx_sensitivity_dbm = -80.0;
  weak.cs_threshold_dbm = -80.0;
  auto& a = rig.add_node(1, {0, 0}, weak);
  auto& b = rig.add_node(2, {150, 0}, weak);
  auto& c = rig.add_node(3, {300, 0}, weak);
  // Destination area covers everyone; c is unreachable directly from a.
  a.router->send_gbc(payload_bytes(), geo::GeoArea::circle({160, 0}, 400.0),
                     dot11p::AccessCategory::Voice);
  rig.sched.run_until(3_s);
  EXPECT_EQ(b.delivered.size(), 1u);
  ASSERT_EQ(c.delivered.size(), 1u);
  EXPECT_EQ(b.router->stats().forwarded, 1u);
  EXPECT_GE(c.delivered[0].second.hops_traversed, 1u);
}

TEST(GeoNet, DuplicateDetectionSuppressesRebroadcastStorm) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  auto& c = rig.add_node(3, {40, 0});
  a.router->send_gbc(payload_bytes(), geo::GeoArea::circle({20, 0}, 100.0),
                     dot11p::AccessCategory::Voice);
  rig.sched.run_until(3_s);
  // Each node delivers the payload exactly once despite forwarding.
  EXPECT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(c.delivered.size(), 1u);
  // CBF: at most a bounded number of forwards happen for one packet.
  const auto total_forwards = b.router->stats().forwarded + c.router->stats().forwarded;
  EXPECT_LE(total_forwards, 2u);
  const auto suppressed = b.router->stats().cbf_suppressed + c.router->stats().cbf_suppressed +
                          b.router->stats().duplicates_dropped + c.router->stats().duplicates_dropped;
  EXPECT_GE(suppressed, 1u);
}

TEST(GeoNet, TsbFloodsUpToHopLimit) {
  Rig rig{2.5};
  dot11p::RadioConfig weak;
  weak.tx_power_dbm = 20.0;
  weak.rx_sensitivity_dbm = -80.0;
  weak.cs_threshold_dbm = -80.0;
  auto& a = rig.add_node(1, {0, 0}, weak);
  rig.add_node(2, {150, 0}, weak);
  auto& c = rig.add_node(3, {300, 0}, weak);
  a.router->send_tsb(payload_bytes(), 1, dot11p::AccessCategory::Video);
  rig.sched.run_until(1_s);
  EXPECT_TRUE(c.delivered.empty());  // hop limit 1: no forwarding

  a.router->send_tsb(payload_bytes(), 3, dot11p::AccessCategory::Video);
  rig.sched.run_until(3_s);
  EXPECT_EQ(c.delivered.size(), 1u);
}

TEST(GeoNet, OutOfAreaNodeForwardsOnlyWithProgress) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  // d is behind a relative to the area: no geometric progress, must drop.
  auto& behind = rig.add_node(2, {-50, 0});
  a.router->send_gbc(payload_bytes(), geo::GeoArea::circle({500, 0}, 50.0),
                     dot11p::AccessCategory::Voice, 5);
  rig.sched.run_until(2_s);
  EXPECT_TRUE(behind.delivered.empty());
  EXPECT_EQ(behind.router->stats().forwarded, 0u);
  EXPECT_EQ(behind.router->stats().out_of_area_dropped, 1u);
}

TEST(GeoNet, GucDeliversOnlyToTheDestination) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  auto& c = rig.add_node(3, {40, 0});
  // a knows b's position from a prior broadcast.
  b.router->send_shb({0x42}, dot11p::AccessCategory::Video);
  rig.sched.run_until(100_ms);
  EXPECT_TRUE(a.router->send_guc(payload_bytes(), GnAddress::from_station(2),
                                 dot11p::AccessCategory::Video));
  rig.sched.run_until(1_s);
  // b got the unicast; c overheard the frame but did not deliver it up.
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(b.delivered[0].first, payload_bytes());
  for (const auto& [pdu, meta] : c.delivered) {
    EXPECT_NE(pdu, payload_bytes());
  }
}

TEST(GeoNet, LocationServiceResolvesUnknownDestination) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  // a has never heard from b: the GUC is buffered, an LS request floods,
  // b answers, and the buffered PDU goes out.
  EXPECT_FALSE(a.router->location_table().contains(GnAddress::from_station(2).value));
  EXPECT_TRUE(a.router->send_guc(payload_bytes(), GnAddress::from_station(2),
                                 dot11p::AccessCategory::Video));
  rig.sched.run_until(2_s);
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(b.delivered[0].first, payload_bytes());
  EXPECT_EQ(a.router->stats().ls_requests_sent, 1u);
  EXPECT_EQ(b.router->stats().ls_replies_sent, 1u);
  // The resolved position is now cached for future unicasts.
  EXPECT_TRUE(a.router->location_table().contains(GnAddress::from_station(2).value));
}

TEST(GeoNet, LocationServiceRequestFloodsAcrossHops) {
  Rig rig{2.5};
  dot11p::RadioConfig weak;
  weak.tx_power_dbm = 20.0;
  weak.rx_sensitivity_dbm = -80.0;
  weak.cs_threshold_dbm = -80.0;
  auto& a = rig.add_node(1, {0, 0}, weak);
  rig.add_node(2, {150, 0}, weak);
  auto& c = rig.add_node(3, {300, 0}, weak);
  // c is out of a's direct range; the LS request must be relayed by b and
  // the reply routed back, then the GUC forwarded greedily.
  EXPECT_TRUE(a.router->send_guc(payload_bytes(), GnAddress::from_station(3),
                                 dot11p::AccessCategory::Video));
  rig.sched.run_until(5_s);
  bool c_got_payload = false;
  for (const auto& [pdu, meta] : c.delivered) c_got_payload |= pdu == payload_bytes();
  EXPECT_TRUE(c_got_payload);
  EXPECT_EQ(c.router->stats().ls_replies_sent, 1u);
}

TEST(GeoNet, LsBufferCapacityBounded) {
  GeoNetConfig gn;
  gn.ls_buffer_capacity = 2;
  Rig rig{2.0, gn};
  auto& a = rig.add_node(1, {0, 0});
  // No such station exists: the buffer fills and then rejects.
  EXPECT_TRUE(a.router->send_guc({1}, GnAddress::from_station(99), dot11p::AccessCategory::Video));
  EXPECT_TRUE(a.router->send_guc({2}, GnAddress::from_station(99), dot11p::AccessCategory::Video));
  EXPECT_FALSE(a.router->send_guc({3}, GnAddress::from_station(99), dot11p::AccessCategory::Video));
  EXPECT_EQ(a.router->stats().ls_buffer_dropped, 1u);
}

TEST(GeoNet, GucForwardsGreedilyAcrossRangeLimit) {
  Rig rig{2.5};
  dot11p::RadioConfig weak;
  weak.tx_power_dbm = 20.0;
  weak.rx_sensitivity_dbm = -80.0;
  weak.cs_threshold_dbm = -80.0;
  auto& a = rig.add_node(1, {0, 0}, weak);
  auto& b = rig.add_node(2, {150, 0}, weak);
  auto& c = rig.add_node(3, {300, 0}, weak);
  // Teach a where c is (c cannot reach a directly: inject via b's relay of
  // a beacon-equivalent — simplest: seed the location tables through TSB).
  c.router->send_tsb({0x01}, 3, dot11p::AccessCategory::Video);
  rig.sched.run_until(2_s);
  ASSERT_TRUE(a.router->location_table().contains(GnAddress::from_station(3).value));

  EXPECT_TRUE(a.router->send_guc(payload_bytes(), GnAddress::from_station(3),
                                 dot11p::AccessCategory::Video));
  rig.sched.run_until(4_s);
  // Delivered across the range limit via b's greedy forwarding.
  bool c_got_payload = false;
  for (const auto& [pdu, meta] : c.delivered) c_got_payload |= pdu == payload_bytes();
  EXPECT_TRUE(c_got_payload);
  EXPECT_GE(b.router->stats().forwarded, 1u);
}

TEST(GeoNet, GucPacketRoundTripsOnTheWire) {
  GnPacket pkt;
  pkt.type = GnPacketType::Guc;
  pkt.sequence_number = 9;
  pkt.source.address = GnAddress::from_station(1);
  pkt.forwarder = pkt.source;
  LongPositionVector dest;
  dest.address = GnAddress::from_station(2);
  dest.latitude = 411780000;
  dest.longitude = -86080000;
  pkt.destination = dest;
  pkt.payload = {9, 8, 7};
  EXPECT_EQ(GnPacket::decode(pkt.encode()), pkt);
}

TEST(GeoNet, BeaconingPopulatesLocationTables) {
  GeoNetConfig gn;
  gn.enable_beaconing = true;
  gn.beacon_interval = 500_ms;
  Rig rig{2.0, gn};
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {30, 0});
  (void)a;
  rig.sched.run_until(3_s);
  EXPECT_TRUE(b.router->location_table().contains(GnAddress::from_station(1).value));
  EXPECT_TRUE(a.router->location_table().contains(GnAddress::from_station(2).value));
  // Beacons carry no payload: nothing is delivered up.
  EXPECT_TRUE(a.delivered.empty());
  EXPECT_TRUE(b.delivered.empty());
}

TEST(GeoNet, LocationTableEntriesExpire) {
  GeoNetConfig gn;
  gn.location_entry_lifetime = 1_s;
  Rig rig{2.0, gn};
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {30, 0});
  a.router->send_shb(payload_bytes(), dot11p::AccessCategory::Video);
  rig.sched.run_until(100_ms);
  EXPECT_TRUE(b.router->location_table().contains(GnAddress::from_station(1).value));
  rig.sched.run_until(3_s);
  // Trigger table maintenance via another reception.
  b.router->send_shb(payload_bytes(), dot11p::AccessCategory::Video);
  rig.sched.run_until(4_s);
  EXPECT_FALSE(b.router->location_table().contains(GnAddress::from_station(1).value));
}

TEST(GeoNet, ExpiredPacketsAreDroppedNotProcessed) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  // Hand-craft a packet whose source timestamp lies beyond its lifetime.
  rig.sched.run_until(10_s);
  GnPacket stale;
  stale.type = GnPacketType::Shb;
  stale.remaining_hop_limit = 1;
  stale.lifetime_50ms = 20;  // 1 s lifetime
  stale.source.address = GnAddress::from_station(1);
  stale.source.timestamp_ms = 1000;  // 9 s old
  stale.forwarder = stale.source;
  stale.payload = payload_bytes();
  dot11p::Frame f;
  f.payload = stale.encode();
  // Bypass the router's origination: send the raw frame.
  struct RawSender {
    dot11p::Radio& radio;
  } sender{*a.radio};
  sender.radio.send(std::move(f));
  rig.sched.run_until(11_s);
  EXPECT_TRUE(b.delivered.empty());
  EXPECT_EQ(b.router->stats().lifetime_expired_dropped, 1u);

  // A fresh timestamp passes.
  stale.source.timestamp_ms = 11000;
  dot11p::Frame fresh;
  fresh.payload = stale.encode();
  sender.radio.send(std::move(fresh));
  rig.sched.run_until(12_s);
  EXPECT_EQ(b.delivered.size(), 1u);
}

TEST(GeoNet, TimestampComparisonWrapsModulo2To32) {
  EXPECT_TRUE(gn_timestamp_newer(1001, 1000));
  EXPECT_FALSE(gn_timestamp_newer(1000, 1001));
  EXPECT_FALSE(gn_timestamp_newer(1000, 1000));
  // Just past the wrap is newer than just before it, and not the reverse.
  EXPECT_TRUE(gn_timestamp_newer(0x00000005u, 0xFFFFFFF0u));
  EXPECT_FALSE(gn_timestamp_newer(0xFFFFFFF0u, 0x00000005u));
  EXPECT_TRUE(gn_timestamp_newer(0x00000000u, 0xFFFFFFFFu));
  // The half-range boundary: less than 2^31 ahead is newer, 2^31 is not.
  EXPECT_TRUE(gn_timestamp_newer(0x7FFFFFFFu, 0x00000000u));
  EXPECT_FALSE(gn_timestamp_newer(0x80000000u, 0x00000000u));
  EXPECT_FALSE(gn_timestamp_newer(0x00000000u, 0x80000000u));
  EXPECT_TRUE(gn_timestamp_newer(0x80000000u, 0x00000001u));
}

/// Sends a hand-crafted GN packet from `radio` with `source` as the source
/// position vector; a forwarder other than the source makes it a relayed copy.
void send_raw(dot11p::Radio& radio, GnPacketType type, const LongPositionVector& source,
              const LongPositionVector& forwarder, std::uint16_t seq) {
  GnPacket pkt;
  pkt.type = type;
  pkt.remaining_hop_limit = 1;
  pkt.lifetime_50ms = 200;  // 10 s: every timestamp below is within its lifetime
  pkt.sequence_number = seq;
  pkt.source = source;
  pkt.forwarder = forwarder;
  if (type != GnPacketType::Beacon) pkt.payload = payload_bytes();
  dot11p::Frame f;
  f.payload = pkt.encode();
  radio.send(std::move(f));
}

TEST(GeoNet, ForwardedStalePositionVectorDoesNotOverwriteFresherEntry) {
  Rig rig;
  auto& relay = rig.add_node(3, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  rig.sched.run_until(5_s);
  LongPositionVector fresh;
  fresh.address = GnAddress::from_station(1);
  fresh.timestamp_ms = 4900;
  fresh.latitude = 411790000;
  LongPositionVector stale = fresh;
  stale.timestamp_ms = 4500;
  stale.latitude = 411780000;
  LongPositionVector relay_pv;
  relay_pv.address = GnAddress::from_station(3);
  relay_pv.timestamp_ms = 4990;

  // Station 1's own beacon, then an older packet of station 1 relayed over
  // a second hop: the relayed copy must not roll the entry back.
  send_raw(*relay.radio, GnPacketType::Beacon, fresh, fresh, 0);
  rig.sched.run_until(5100_ms);
  send_raw(*relay.radio, GnPacketType::Tsb, stale, relay_pv, 7);
  rig.sched.run_until(5200_ms);
  ASSERT_EQ(b.delivered.size(), 1u);
  const auto& entry = b.router->location_table().at(GnAddress::from_station(1).value);
  EXPECT_EQ(entry.position_vector, fresh);
  EXPECT_EQ(entry.packets_received, 2u);
  EXPECT_EQ(b.router->location_table().at(GnAddress::from_station(3).value).position_vector,
            relay_pv);

  // A newer vector still replaces it.
  LongPositionVector newer = fresh;
  newer.timestamp_ms = 5150;
  newer.latitude = 411800000;
  send_raw(*relay.radio, GnPacketType::Beacon, newer, newer, 0);
  rig.sched.run_until(5300_ms);
  EXPECT_EQ(b.router->location_table().at(GnAddress::from_station(1).value).position_vector,
            newer);
}

TEST(GeoNet, LocationTableUpdateIsWrapAware) {
  Rig rig;
  auto& sender = rig.add_node(3, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  rig.sched.run_until(5_s);
  const auto stored = [&] {
    return b.router->location_table().at(GnAddress::from_station(1).value).position_vector;
  };
  LongPositionVector before_wrap;
  before_wrap.address = GnAddress::from_station(1);
  before_wrap.timestamp_ms = 0xFFFFFF00u;
  before_wrap.latitude = 1;
  LongPositionVector after_wrap = before_wrap;
  after_wrap.timestamp_ms = 0x00000010u;
  after_wrap.latitude = 2;

  send_raw(*sender.radio, GnPacketType::Beacon, before_wrap, before_wrap, 0);
  rig.sched.run_until(5100_ms);
  ASSERT_EQ(stored(), before_wrap);
  send_raw(*sender.radio, GnPacketType::Beacon, after_wrap, after_wrap, 0);
  rig.sched.run_until(5200_ms);
  EXPECT_EQ(stored(), after_wrap);  // past the wrap is newer
  send_raw(*sender.radio, GnPacketType::Beacon, before_wrap, before_wrap, 0);
  rig.sched.run_until(5300_ms);
  EXPECT_EQ(stored(), after_wrap);  // and the pre-wrap vector is now stale
}

TEST(GeoNet, PositionVectorReflectsEgoState) {
  Rig rig;
  auto& a = rig.add_node(1, {12, 34});
  auto& b = rig.add_node(2, {20, 34});
  a.router->send_shb(payload_bytes(), dot11p::AccessCategory::Video);
  rig.sched.run();
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_NEAR(b.delivered[0].second.source_position.x, 12.0, 0.2);
  EXPECT_NEAR(b.delivered[0].second.source_position.y, 34.0, 0.2);
}

}  // namespace
}  // namespace rst::its
