// GM user-library tests: token discipline, callbacks, buffers, event pump.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"

namespace myri::gm {
namespace {

ClusterConfig two_nodes(mcp::McpMode mode = mcp::McpMode::kGm) {
  ClusterConfig cc;
  cc.nodes = 2;
  cc.mode = mode;
  return cc;
}

TEST(GmPort, SendTokensAreFinite) {
  Cluster cluster(two_nodes());
  auto& p = cluster.node(0).open_port(2, {4, 4});
  cluster.run_for(sim::usec(900));
  Buffer b = p.alloc_dma_buffer(64);
  EXPECT_EQ(p.send_tokens_free(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(p.post(b, 64, {.dst = 1, .dst_port = 3}).ok());
  }
  EXPECT_EQ(p.send_tokens_free(), 0u);
  EXPECT_FALSE(p.post(b, 64, {.dst = 1, .dst_port = 3}).ok());  // no token
}

TEST(GmPort, TokensReturnOnCompletion) {
  Cluster cluster(two_nodes());
  auto& tx = cluster.node(0).open_port(2, {4, 4});
  auto& rx = cluster.node(1).open_port(3);
  cluster.run_for(sim::usec(900));
  Buffer rb = rx.alloc_dma_buffer(128);
  rx.provide_receive_buffer(rb);
  Buffer b = tx.alloc_dma_buffer(64);
  EXPECT_TRUE(tx.post(b, 64, {.dst = 1, .dst_port = 3}).ok());
  EXPECT_EQ(tx.send_tokens_free(), 3u);
  cluster.run_for(sim::msec(2));
  EXPECT_EQ(tx.send_tokens_free(), 4u);
}

TEST(GmPort, RecvTokensAreFinite) {
  Cluster cluster(two_nodes());
  auto& p = cluster.node(0).open_port(2, {4, 2});
  cluster.run_for(sim::usec(900));
  Buffer a = p.alloc_dma_buffer(64);
  Buffer b = p.alloc_dma_buffer(64);
  Buffer c = p.alloc_dma_buffer(64);
  EXPECT_TRUE(p.provide_receive_buffer(a));
  EXPECT_TRUE(p.provide_receive_buffer(b));
  EXPECT_FALSE(p.provide_receive_buffer(c));  // out of receive tokens
  EXPECT_EQ(p.recv_tokens_free(), 0u);
}

TEST(GmPort, RecvTokenReturnsOnReceive) {
  Cluster cluster(two_nodes());
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3, {16, 2});
  cluster.run_for(sim::usec(900));
  Buffer rb = rx.alloc_dma_buffer(128);
  rx.provide_receive_buffer(rb);
  EXPECT_EQ(rx.recv_tokens_free(), 1u);
  Buffer sb = tx.alloc_dma_buffer(64);
  (void)tx.post(sb, 64, {.dst = 1, .dst_port = 3});
  cluster.run_for(sim::msec(2));
  EXPECT_EQ(rx.recv_tokens_free(), 2u);
}

TEST(GmPort, InvalidBufferRejected) {
  Cluster cluster(two_nodes());
  auto& p = cluster.node(0).open_port(2);
  cluster.run_for(sim::usec(900));
  Buffer invalid;
  EXPECT_FALSE(p.post(invalid, 10, {.dst = 1, .dst_port = 3}).ok());
  EXPECT_FALSE(p.provide_receive_buffer(invalid));
  Buffer b = p.alloc_dma_buffer(16);
  EXPECT_FALSE(p.post(b, 32, {.dst = 1, .dst_port = 3}).ok());  // len > buffer size
}

TEST(GmPort, AllocRegistersPages) {
  Cluster cluster(two_nodes());
  auto& p = cluster.node(0).open_port(2);
  Buffer b = p.alloc_dma_buffer(10000);  // spans 3+ pages
  ASSERT_TRUE(b.valid());
  auto& pht = cluster.node(0).page_hash();
  EXPECT_TRUE(pht.lookup(2, b.addr));
  EXPECT_TRUE(pht.lookup(2, b.addr + 9999));
  EXPECT_FALSE(pht.lookup(5, b.addr));  // other ports don't see it
}

TEST(GmPort, CallbacksFireInCompletionOrder) {
  Cluster cluster(two_nodes());
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3, {16, 16});
  cluster.run_for(sim::usec(900));
  for (int i = 0; i < 6; ++i) {
    rx.provide_receive_buffer(rx.alloc_dma_buffer(128));
  }
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    Buffer b = tx.alloc_dma_buffer(64);
    ASSERT_TRUE(tx.post(b, 64, {.dst = 1, .dst_port = 3,
                                .callback = [&order, i](bool) {
                                  order.push_back(i);
                                }}).ok());
  }
  cluster.run_for(sim::msec(5));
  ASSERT_EQ(order.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(order[i], i);
}

TEST(GmPort, ReceiveHandlerSeesCorrectMetadata) {
  Cluster cluster(two_nodes());
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3);
  cluster.run_for(sim::usec(900));
  Buffer rb = rx.alloc_dma_buffer(256);
  rx.provide_receive_buffer(rb);
  RecvInfo seen;
  rx.set_receive_handler([&](const RecvInfo& info) { seen = info; });
  Buffer sb = tx.alloc_dma_buffer(100);
  (void)tx.post(sb, 100, {.dst = 1, .dst_port = 3});
  cluster.run_for(sim::msec(2));
  EXPECT_EQ(seen.len, 100u);
  EXPECT_EQ(seen.src, 0u);
  EXPECT_EQ(seen.src_port, 2u);
  EXPECT_EQ(seen.buffer.addr, rb.addr);
}

TEST(GmPort, ZeroCopyDataLandsInProvidedBuffer) {
  Cluster cluster(two_nodes());
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3);
  cluster.run_for(sim::usec(900));
  Buffer rb = rx.alloc_dma_buffer(64);
  rx.provide_receive_buffer(rb);
  Buffer sb = tx.alloc_dma_buffer(64);
  auto src = cluster.node(0).memory().at(sb.addr, 64);
  for (int i = 0; i < 64; ++i) src[i] = static_cast<std::byte>(i * 3);
  (void)tx.post(sb, 64, {.dst = 1, .dst_port = 3});
  cluster.run_for(sim::msec(2));
  auto dst = cluster.node(1).memory().at(rb.addr, 64);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(dst[i], static_cast<std::byte>(i * 3)) << "byte " << i;
  }
}

TEST(GmPort, StatsTrackTraffic) {
  Cluster cluster(two_nodes());
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3);
  cluster.run_for(sim::usec(900));
  for (int i = 0; i < 3; ++i) {
    rx.provide_receive_buffer(rx.alloc_dma_buffer(300));
  }
  for (int i = 0; i < 3; ++i) {
    (void)tx.post(tx.alloc_dma_buffer(300), 300, {.dst = 1, .dst_port = 3});
  }
  cluster.run_for(sim::msec(3));
  EXPECT_EQ(tx.stats().sends_posted, 3u);
  EXPECT_EQ(tx.stats().sends_completed, 3u);
  EXPECT_EQ(tx.stats().bytes_sent, 900u);
  EXPECT_EQ(rx.stats().msgs_received, 3u);
  EXPECT_EQ(rx.stats().bytes_received, 900u);
}

TEST(GmPort, HostCpuChargedPerApiCall) {
  Cluster cluster(two_nodes());
  auto& tx = cluster.node(0).open_port(2);
  cluster.run_for(sim::usec(900));
  const auto before = cluster.node(0).cpu().busy_ns();
  Buffer b = tx.alloc_dma_buffer(64);
  (void)tx.post(b, 64, {.dst = 1, .dst_port = 3});
  cluster.run_for(sim::msec(1));
  // GM send overhead is 0.30 us (paper Table 2).
  EXPECT_GE(cluster.node(0).cpu().busy_ns() - before, sim::usecf(0.30));
}

TEST(GmPort, FtgmChargesBackupOverhead) {
  Cluster gm_cluster(two_nodes(mcp::McpMode::kGm));
  Cluster ft_cluster(two_nodes(mcp::McpMode::kFtgm));
  for (Cluster* c : {&gm_cluster, &ft_cluster}) {
    auto& tx = c->node(0).open_port(2);
    auto& rx = c->node(1).open_port(3);
    c->run_for(sim::usec(900));
    rx.provide_receive_buffer(rx.alloc_dma_buffer(128));
    (void)tx.post(tx.alloc_dma_buffer(64), 64, {.dst = 1, .dst_port = 3});
    c->run_for(sim::msec(2));
  }
  // FTGM's send path costs ~0.25 us more host CPU (token backup).
  EXPECT_GT(ft_cluster.node(0).cpu().busy_ns(),
            gm_cluster.node(0).cpu().busy_ns());
}

TEST(GmPort, PendingEventsDrainInOrder) {
  Cluster cluster(two_nodes());
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3, {32, 32});
  cluster.run_for(sim::usec(900));
  for (int i = 0; i < 10; ++i) {
    rx.provide_receive_buffer(rx.alloc_dma_buffer(64));
  }
  std::vector<std::uint32_t> lens;
  rx.set_receive_handler([&](const RecvInfo& info) {
    lens.push_back(info.len);
  });
  for (std::uint32_t i = 1; i <= 10; ++i) {
    (void)tx.post(tx.alloc_dma_buffer(64), i, {.dst = 1, .dst_port = 3});
  }
  cluster.run_for(sim::msec(5));
  ASSERT_EQ(lens.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(lens[i], i + 1);
}

TEST(GmPort, ClosePortStopsDelivery) {
  Cluster cluster(two_nodes());
  auto& tx = cluster.node(0).open_port(2);
  auto& rx = cluster.node(1).open_port(3);
  cluster.run_for(sim::usec(900));
  rx.provide_receive_buffer(rx.alloc_dma_buffer(64));
  cluster.node(1).close_port(3);
  cluster.run_for(sim::usec(900));  // let the close command land
  Buffer b = tx.alloc_dma_buffer(64);
  bool fired = false;
  ASSERT_TRUE(tx.post(b, 64, {.dst = 1, .dst_port = 3,
                              .callback = [&](bool) { fired = true; }}).ok());
  cluster.run_for(sim::msec(3));
  EXPECT_FALSE(fired);  // receiver port closed: packets dropped, no ACK
}

TEST(GmNode, OpenPortsListsThem) {
  Cluster cluster(two_nodes());
  cluster.node(0).open_port(1);
  cluster.node(0).open_port(5);
  const auto ports = cluster.node(0).open_ports();
  EXPECT_EQ(ports, (std::vector<std::uint8_t>{1, 5}));
}

TEST(GmNode, GmModeHasNoFtd) {
  Cluster cluster(two_nodes(mcp::McpMode::kGm));
  EXPECT_FALSE(cluster.node(0).has_ftd());
  Cluster ft(two_nodes(mcp::McpMode::kFtgm));
  EXPECT_TRUE(ft.node(0).has_ftd());
}

TEST(GmNode, AllocPinnedExhaustion) {
  ClusterConfig cc = two_nodes();
  cc.host_mem_bytes = 2u << 20;  // 1 MB kernel + 1 MB pool
  Cluster cluster(cc);
  auto& p = cluster.node(0).open_port(2);
  Buffer big = p.alloc_dma_buffer(900 * 1024);
  EXPECT_TRUE(big.valid());
  Buffer more = p.alloc_dma_buffer(900 * 1024);
  EXPECT_FALSE(more.valid());
}

// Bytes of `s` backed by a physical page right now (mincore). Simulated
// memories are page-aligned mappings, so the span starts on a page.
std::size_t resident_bytes(std::span<const std::byte> s) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((s.size() + page - 1) / page);
  void* start = const_cast<std::byte*>(s.data());
  if (mincore(start, s.size(), vec.data()) != 0) return SIZE_MAX;
  std::size_t pages = 0;
  for (const unsigned char v : vec) pages += v & 1u;
  return pages * page;
}

TEST(GmCluster, SimulatedMemoryIsMaterialisedOnlyWhereUsed) {
  // Each node models 8 MB of host DRAM and 1 MB of SRAM; a stream ring
  // touches a small fraction of both. A change that value-initialises
  // either memory again makes every page resident and fails this.
  constexpr std::size_t kBoundPerNode = 1u << 20;  // of 9 MB simulated
  ClusterConfig cc;
  cc.nodes = 64;
  cc.fabric = net::FabricPreset::kFatTree;
  cc.switch_ports = 16;
  cc.mode = mcp::McpMode::kFtgm;
  Cluster cluster(cc);
  std::vector<Port*> tx;
  std::vector<Port*> rx;
  for (int i = 0; i < cc.nodes; ++i) {
    tx.push_back(&cluster.node(i).open_port(2));
    rx.push_back(&cluster.node(i).open_port(3));
  }
  cluster.run_for(sim::usec(900));
  fi::StreamWorkload::Config wc;
  wc.total_msgs = 10;
  wc.msg_len = 1024;
  std::deque<fi::StreamWorkload> ring;
  for (int i = 0; i < cc.nodes; ++i) {
    ring.emplace_back(*tx[i], *rx[(i + 1) % cc.nodes], wc);
    ring.back().start();
  }
  cluster.run_for(sim::msec(20));
  for (auto& wl : ring) ASSERT_TRUE(wl.complete());

  std::size_t worst = 0;
  for (int i = 0; i < cc.nodes; ++i) {
    Node& n = cluster.node(i);
    const std::size_t host =
        resident_bytes(n.memory().at(0, n.memory().size()));
    const std::size_t sram =
        resident_bytes(n.nic().sram().bytes(0, n.nic().sram().size()));
    ASSERT_NE(host, SIZE_MAX);
    ASSERT_NE(sram, SIZE_MAX);
    EXPECT_GT(sram, 0u) << "node " << i << ": the MCP image lives in SRAM";
    worst = std::max(worst, host + sram);
  }
  EXPECT_LT(worst, kBoundPerNode) << "worst node: " << worst << " bytes";
  RecordProperty("worst_resident_bytes_per_node", std::to_string(worst));
}

}  // namespace
}  // namespace myri::gm
