// Unit tests for packets, links, switches and topology wiring.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "net/link.hpp"
#include "net/map_info.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace myri::net {
namespace {

// Collects everything delivered to it.
class SinkSpy : public PacketSink {
 public:
  void deliver(Packet pkt, std::uint8_t in_port) override {
    packets.push_back(std::move(pkt));
    in_ports.push_back(in_port);
  }
  std::vector<Packet> packets;
  std::vector<std::uint8_t> in_ports;
};

Packet make_data(std::uint32_t seq, std::size_t payload_len = 64) {
  Packet p;
  p.type = PacketType::kData;
  p.src = 0;
  p.dst = 1;
  p.seq = seq;
  p.msg_len = static_cast<std::uint32_t>(payload_len);
  p.payload.assign(payload_len, std::byte{0xab});
  p.seal();
  return p;
}

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE 802.3), at every alignment.
  std::array<std::uint8_t, 24> buf{};
  for (std::size_t off = 0; off < 8; ++off) {
    std::memcpy(buf.data() + off, "123456789", 9);
    EXPECT_EQ(crc32(buf.data() + off, 9), 0xcbf43926u) << "offset " << off;
  }
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

// Byte-at-a-time CRC-32 straight from the polynomial: the reference the
// table-driven implementation must match bit for bit.
std::uint32_t reference_crc32(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, MatchesBytewiseReferenceOnRandomUnalignedPayloads) {
  sim::Rng rng(2003);
  std::vector<std::uint8_t> buf(4100 + 8);
  for (int trial = 0; trial < 300; ++trial) {
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
    const std::size_t off = rng.below(8);
    // Every length up to 64, then random ones up to 4100.
    const std::size_t len = trial <= 64 ? trial : rng.below(4101);
    ASSERT_EQ(crc32(buf.data() + off, len),
              reference_crc32(buf.data() + off, len))
        << "len " << len << " offset " << off;
  }
}

TEST(Packet, CrcValueIsPinned) {
  // zlib.crc32 of the little-endian header words followed by the payload;
  // a change here would move every trace and digest that carries a CRC.
  Packet p;
  p.src = 3;
  p.dst = 7;
  p.src_port = 2;
  p.dst_port = 3;
  p.priority = 1;
  p.stream = 5;
  p.seq = 42;
  p.msg_id = 9;
  p.msg_len = 1000;
  p.directed = true;
  p.target_vaddr = 0x1000;
  for (std::size_t i = 0; i < 1000; ++i) {
    p.payload.push_back(static_cast<std::byte>((i * 31 + 7) & 0xff));
  }
  EXPECT_EQ(p.compute_crc(), 0x228912d9u);
}

TEST(Packet, SealThenIntact) {
  Packet p = make_data(7);
  EXPECT_TRUE(p.intact());
}

TEST(Packet, PayloadBitFlipDetected) {
  Packet p = make_data(7);
  p.payload[10] ^= std::byte{0x01};
  EXPECT_FALSE(p.intact());
}

TEST(Packet, HeaderFieldChangeDetected) {
  Packet p = make_data(7);
  p.seq ^= 1;
  EXPECT_FALSE(p.intact());
}

TEST(Packet, RouteNotCoveredByCrc) {
  // Routes are consumed hop by hop, so they must not participate in CRC.
  Packet p = make_data(7);
  p.route = {1, 2, 3};
  EXPECT_TRUE(p.intact());
  p.route.clear();
  EXPECT_TRUE(p.intact());
}

TEST(Packet, WireSizeIncludesAllParts) {
  Packet p = make_data(1, 100);
  p.route = {4, 5};
  EXPECT_EQ(p.wire_size(), 2u + 16u + 100u + 4u);
}

TEST(Packet, DescribeMentionsType) {
  Packet p = make_data(9);
  EXPECT_NE(p.describe().find("DATA"), std::string::npos);
}

TEST(Link, SerializationTimeMatchesRate) {
  sim::EventQueue eq;
  Link link(eq, sim::Rng(1), Link::Config{2.0, 100, 32}, "l");
  // 1000 bytes at 2 Gb/s = 4000 ns.
  EXPECT_EQ(link.serialization_time(1000), 4000u);
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), Link::Config{2.0, 100, 32}, "l");
  link.connect(sink, 3);
  Packet p = make_data(0, 96);  // wire size 96+20 = 116 -> 464 ns
  const auto wire = p.wire_size();
  link.send(std::move(p));
  eq.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.in_ports[0], 3);
  EXPECT_EQ(eq.now(), link.serialization_time(wire) + 100);
}

TEST(Link, BackToBackPacketsSerialize) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), Link::Config{2.0, 0, 32}, "l");
  link.connect(sink, 0);
  Packet a = make_data(0, 1000), b = make_data(1, 1000);
  const auto ser = link.serialization_time(a.wire_size());
  link.send(std::move(a));
  link.send(std::move(b));
  eq.run();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(eq.now(), 2 * ser);
}

TEST(Link, DropFaultLosesPackets) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), {}, "l");
  link.connect(sink, 0);
  link.set_faults({1.0, 0.0, 0.0});
  for (int i = 0; i < 10; ++i) link.send(make_data(i));
  eq.run();
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_EQ(link.stats().dropped, 10u);
  EXPECT_EQ(link.stats().sent, 10u);
}

TEST(Link, CorruptFaultBreaksCrc) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), {}, "l");
  link.connect(sink, 0);
  link.set_faults({0.0, 1.0, 0.0});
  link.send(make_data(0));
  eq.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_FALSE(sink.packets[0].intact());
  EXPECT_EQ(link.stats().corrupted, 1u);
}

TEST(Link, CorruptAckWithoutPayloadStillDetected) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), {}, "l");
  link.connect(sink, 0);
  link.set_faults({0.0, 1.0, 0.0});
  Packet ack;
  ack.type = PacketType::kAck;
  ack.src = 1;
  ack.dst = 0;
  ack.ack_seq = 5;
  ack.seal();
  link.send(std::move(ack));
  eq.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_FALSE(sink.packets[0].intact());
}

TEST(Link, MisrouteAltersFirstRouteByte) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), {}, "l");
  link.connect(sink, 0);
  link.set_faults({0.0, 0.0, 1.0});
  Packet p = make_data(0);
  p.route = {2, 6};
  link.send(std::move(p));
  eq.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_NE(sink.packets[0].route.front(), 2);
  EXPECT_EQ(sink.packets[0].route[1], 6);
  EXPECT_EQ(link.stats().misrouted, 1u);
}

TEST(Link, FaultRatesRoughlyHonoured) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(99), {}, "l");
  link.connect(sink, 0);
  link.set_faults({0.2, 0.0, 0.0});
  for (int i = 0; i < 2000; ++i) link.send(make_data(i));
  eq.run();
  EXPECT_NEAR(static_cast<double>(link.stats().dropped), 400.0, 80.0);
}

TEST(Link, CanAcceptHonoursQueueBound) {
  sim::EventQueue eq;
  SinkSpy sink;
  Link link(eq, sim::Rng(1), Link::Config{2.0, 100, 4}, "l");
  link.connect(sink, 0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(link.can_accept());
    link.send(make_data(i));
  }
  EXPECT_FALSE(link.can_accept());
  eq.run();
  EXPECT_TRUE(link.can_accept());
  EXPECT_EQ(sink.packets.size(), 4u);
}

TEST(Switch, StripsRouteByteAndForwards) {
  sim::EventQueue eq;
  SinkSpy sink;
  Switch sw(eq, 0, 8, {}, "sw");
  Link out(eq, sim::Rng(1), {}, "out");
  out.connect(sink, 0);
  sw.connect(5, out);
  Packet p = make_data(0);
  p.route = {5, 9};
  sw.deliver(std::move(p), 2);
  eq.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.packets[0].route, (std::vector<std::uint8_t>{9}));
  EXPECT_EQ(sw.stats().forwarded, 1u);
}

TEST(Switch, DeadRouteOnBadPort) {
  sim::EventQueue eq;
  Switch sw(eq, 0, 4, {}, "sw");
  Packet p = make_data(0);
  p.route = {7};  // beyond port count
  sw.deliver(std::move(p), 0);
  eq.run();
  EXPECT_EQ(sw.stats().dead_routed, 1u);
}

TEST(Switch, DeadRouteOnUnconnectedPort) {
  sim::EventQueue eq;
  Switch sw(eq, 0, 8, {}, "sw");
  Packet p = make_data(0);
  p.route = {3};  // valid port, nothing cabled
  sw.deliver(std::move(p), 0);
  eq.run();
  EXPECT_EQ(sw.stats().dead_routed, 1u);
}

TEST(Switch, DataPacketWithExhaustedRouteDies) {
  sim::EventQueue eq;
  Switch sw(eq, 0, 8, {}, "sw");
  sw.deliver(make_data(0), 0);  // empty route at a switch
  eq.run();
  EXPECT_EQ(sw.stats().dead_routed, 1u);
}

TEST(Switch, AnswersScoutWithIdentityAndWalkedPorts) {
  sim::EventQueue eq;
  SinkSpy prober;
  Switch sw(eq, 42, 8, {}, "sw");
  Link back(eq, sim::Rng(1), {}, "back");
  back.connect(prober, 0);
  sw.connect(6, back);  // scout came in port 6

  Packet scout;
  scout.type = PacketType::kMapScout;
  scout.src = 0;
  scout.msg_id = 77;
  sw.deliver(std::move(scout), 6);
  eq.run();
  ASSERT_EQ(prober.packets.size(), 1u);
  const Packet& r = prober.packets[0];
  EXPECT_EQ(r.type, PacketType::kMapReply);
  EXPECT_EQ(r.msg_id, 77u);
  const MapReplyInfo info = MapReplyInfo::decode(r.payload);
  EXPECT_EQ(info.kind, DeviceKind::kSwitch);
  EXPECT_EQ(info.id, 42u);
  EXPECT_EQ(info.ports, 8u);
  ASSERT_EQ(info.walked.size(), 1u);
  EXPECT_EQ(info.walked[0], 6u);
}

TEST(Switch, ScoutRecordsWalkedAcrossHops) {
  sim::EventQueue eq;
  sim::Rng rng(3);
  Topology topo(eq, rng);
  const auto s0 = topo.add_switch(8);
  const auto s1 = topo.add_switch(8);
  topo.connect_switches(s0, 7, s1, 2);
  SinkSpy prober;
  topo.attach_endpoint(prober, s0, 0, "probe");

  Packet scout;
  scout.type = PacketType::kMapScout;
  scout.src = 0;
  scout.route = {7};  // from s0 out port 7 into s1
  topo.get_switch(s0).deliver(std::move(scout), 0);
  eq.run();
  ASSERT_EQ(prober.packets.size(), 1u);
  const MapReplyInfo info = MapReplyInfo::decode(prober.packets[0].payload);
  EXPECT_EQ(info.id, s1);
  ASSERT_EQ(info.walked.size(), 2u);
  EXPECT_EQ(info.walked[0], 0u);  // entered s0 on port 0
  EXPECT_EQ(info.walked[1], 2u);  // entered s1 on port 2
}

TEST(Topology, EndpointToEndpointAcrossSwitch) {
  sim::EventQueue eq;
  sim::Rng rng(3);
  Topology topo(eq, rng);
  const auto sw = topo.add_switch(8);
  SinkSpy a, b;
  Link& a_up = topo.attach_endpoint(a, sw, 0, "a");
  topo.attach_endpoint(b, sw, 1, "b");
  Packet p = make_data(5);
  p.route = {1};
  a_up.send(std::move(p));
  eq.run();
  ASSERT_EQ(b.packets.size(), 1u);
  EXPECT_TRUE(b.packets[0].route.empty());
  EXPECT_TRUE(b.packets[0].intact());
}

TEST(Topology, MultiSwitchPath) {
  sim::EventQueue eq;
  sim::Rng rng(3);
  Topology topo(eq, rng);
  const auto s0 = topo.add_switch(8);
  const auto s1 = topo.add_switch(8);
  const auto s2 = topo.add_switch(8);
  topo.connect_switches(s0, 7, s1, 6);
  topo.connect_switches(s1, 7, s2, 6);
  SinkSpy a, b;
  Link& a_up = topo.attach_endpoint(a, s0, 0, "a");
  topo.attach_endpoint(b, s2, 0, "b");
  Packet p = make_data(1);
  p.route = {7, 7, 0};
  a_up.send(std::move(p));
  eq.run();
  ASSERT_EQ(b.packets.size(), 1u);
}

TEST(Topology, SetAllFaultsAppliesToEveryLink) {
  sim::EventQueue eq;
  sim::Rng rng(3);
  Topology topo(eq, rng);
  const auto sw = topo.add_switch(8);
  SinkSpy a, b;
  Link& a_up = topo.attach_endpoint(a, sw, 0, "a");
  topo.attach_endpoint(b, sw, 1, "b");
  topo.set_all_faults({1.0, 0.0, 0.0});
  Packet p = make_data(1);
  p.route = {1};
  a_up.send(std::move(p));
  eq.run();
  EXPECT_TRUE(b.packets.empty());
}

TEST(RouteCodec, RoundTrip) {
  RouteUpdate in{7, 2, 5, {{3, {1, 2, 3}}, {9, {}}, {300, {7}}}};
  const auto out = RouteUpdate::decode(in.encode());
  EXPECT_EQ(out.epoch, 7u);
  EXPECT_EQ(out.chunk, 2u);
  EXPECT_EQ(out.nchunks, 5u);
  ASSERT_EQ(out.entries.size(), 3u);
  EXPECT_EQ(out.entries[0].dst, 3u);
  EXPECT_EQ(out.entries[0].route, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(out.entries[1].route.empty());
  EXPECT_EQ(out.entries[2].dst, 300u);
}

TEST(RouteCodec, TruncatedInputStopsCleanly) {
  RouteUpdate in{1, 0, 1, {{3, {1, 2, 3}}}};
  auto bytes = in.encode();
  bytes.pop_back();  // cut the route short
  EXPECT_TRUE(RouteUpdate::decode(bytes).entries.empty());
  bytes.resize(4);  // not even a full header
  const auto out = RouteUpdate::decode(bytes);
  EXPECT_EQ(out.epoch, 0u);
  EXPECT_TRUE(out.entries.empty());
}

TEST(RouteCodec, ProbeHasNoEntries) {
  RouteUpdate probe{42, 0, 0, {}};
  const auto out = RouteUpdate::decode(probe.encode());
  EXPECT_EQ(out.epoch, 42u);
  EXPECT_EQ(out.nchunks, 0u);
  EXPECT_TRUE(out.entries.empty());
}

TEST(RouteCodec, AckRoundTrip) {
  RouteAck in{9, kProbeChunk, 8, true};
  const auto out = RouteAck::decode(in.encode());
  EXPECT_EQ(out.epoch, 9u);
  EXPECT_EQ(out.chunk, kProbeChunk);
  EXPECT_EQ(out.installed_epoch, 8u);
  EXPECT_TRUE(out.announce);
  RouteAck plain{3, 1, 3, false};
  EXPECT_FALSE(RouteAck::decode(plain.encode()).announce);
}

TEST(MapReplyInfo, RoundTrip) {
  MapReplyInfo in{DeviceKind::kSwitch, 513, 16, {1, 2, 3, 4}};
  const auto out = MapReplyInfo::decode(in.encode());
  EXPECT_EQ(out.kind, DeviceKind::kSwitch);
  EXPECT_EQ(out.id, 513u);
  EXPECT_EQ(out.ports, 16u);
  EXPECT_EQ(out.walked, in.walked);
}

TEST(MapReplyInfo, ReverseRoute) {
  EXPECT_EQ(reverse_route({1, 2, 3}), (std::vector<std::uint8_t>{3, 2, 1}));
  EXPECT_TRUE(reverse_route({}).empty());
}

}  // namespace
}  // namespace myri::net
