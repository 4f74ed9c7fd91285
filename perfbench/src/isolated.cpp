// Isolated per-call costs, measured only in traced runs.
//
// Each times one public call on inputs shaped like the workloads' own and
// reports the median over many calls (or batches of calls, where one call
// is too short for the clock). Nothing here runs inside a workload's
// timed spans.
#include <malloc.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "faultinject/oracle.hpp"
#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"
#include "host/host_memory.hpp"
#include "mcp/send_chunk.hpp"
#include "metrics/registry.hpp"
#include "net/fabric.hpp"
#include "net/packet.hpp"
#include "perfbench.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace perfbench::isolated {

namespace {

namespace sim = myri::sim;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Median per-call ns of `call` over `batches` batches of `per_batch`.
template <class F>
double per_call_ns(int batches, int per_batch, F&& call) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int k = 0; k < per_batch; ++k) call(k);
    samples.push_back(seconds_since(t0) * 1e9 / per_batch);
  }
  return median(std::move(samples));
}

// Results are folded in here so that no timed call is dead code.
volatile std::uint64_t g_sink = 0;

}  // namespace

double crc_ns(std::uint32_t payload_bytes, std::uint64_t seed) {
  myri::net::Packet p;
  p.payload.resize(payload_bytes);
  sim::Rng rng(seed);
  for (std::byte& b : p.payload) b = static_cast<std::byte>(rng.below(256));
  std::uint64_t acc = 0;
  const double ns = per_call_ns(101, 64, [&](int k) {
    p.payload[0] = static_cast<std::byte>(k);
    acc += p.compute_crc();
  });
  g_sink = g_sink + acc;
  return ns;
}

double assemble_ms() {
  std::vector<double> samples;
  for (int i = 0; i < 15; ++i) {
    const auto t0 = Clock::now();
    const myri::mcp::SendChunkImage img = myri::mcp::assemble_send_chunk();
    samples.push_back(seconds_since(t0) * 1e3);
    g_sink = g_sink + img.entry_tx;
  }
  return median(std::move(samples));
}

double mem_ctor_ms(std::size_t bytes) {
  // Every instance stays alive until the end, as in a cluster build, and
  // the heap's free pages go back to the kernel first (the workload before
  // this freed a whole cluster), so each construction faults in fresh
  // zeroed pages as the first cluster build of a process does.
  malloc_trim(0);
  std::vector<std::unique_ptr<myri::host::HostMemory>> held;
  std::vector<double> samples;
  for (int i = 0; i < 15; ++i) {
    const auto t0 = Clock::now();
    held.push_back(std::make_unique<myri::host::HostMemory>(bytes));
    samples.push_back(seconds_since(t0) * 1e3);
  }
  return median(std::move(samples));
}

double fabric_build_s() {
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    sim::EventQueue eq;
    sim::Rng rng(1);
    myri::net::Topology topo(eq, rng);
    const auto t0 = Clock::now();
    const myri::net::FabricBuilder fb(
        topo, {myri::net::FabricPreset::kFatTree3, 512, 16});
    samples.push_back(seconds_since(t0));
    g_sink = g_sink + fb.trunk_cables().size();
  }
  return median(std::move(samples));
}

double rearm_ns(std::size_t pending, std::uint64_t seed) {
  // A retransmit-timer re-arm: cancel the armed timer, schedule its
  // successor one RTO out, among `pending` other live timers.
  sim::EventQueue eq;
  sim::Rng rng(seed);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    eq.schedule_at(rng.below(sim::msec(2)), [&fired] { ++fired; });
  }
  std::vector<sim::Time> delays(1024);
  for (sim::Time& d : delays) d = sim::usec(400) + rng.below(sim::usec(50));
  sim::EventQueue::Handle armed =
      eq.schedule_after(sim::usec(400), [&fired] { ++fired; });
  const double ns = per_call_ns(101, 1024, [&](int k) {
    armed.cancel();
    armed = eq.schedule_after(delays[static_cast<std::size_t>(k)],
                              [&fired] { ++fired; });
  });
  g_sink = g_sink + fired;
  return ns;
}

double oracle_sweep_us(std::uint64_t seed) {
  myri::gm::ClusterConfig cc;
  cc.nodes = 64;
  cc.fabric = myri::net::FabricPreset::kFatTree;
  cc.switch_ports = 10;
  cc.mode = myri::mcp::McpMode::kFtgm;
  cc.seed = seed;
  myri::gm::Cluster cluster(cc);
  constexpr std::uint32_t kTokens = 24;
  std::vector<myri::gm::Port*> ports;
  for (int i = 0; i < cc.nodes; ++i) {
    ports.push_back(&cluster.node(i).open_port(2, {kTokens, kTokens}));
  }
  myri::fi::StreamWorkload::Config wc;
  wc.total_msgs = 1000;
  wc.msg_len = 1800;
  std::vector<std::unique_ptr<myri::fi::StreamWorkload>> streams;
  myri::fi::Oracle oracle(cluster, myri::fi::Oracle::Config{});
  for (int i = 0; i < cc.nodes; ++i) {
    streams.push_back(std::make_unique<myri::fi::StreamWorkload>(
        *ports[static_cast<std::size_t>(i)],
        *ports[static_cast<std::size_t>((i + 1) % cc.nodes)], wc));
    oracle.watch(*streams.back(), kTokens, kTokens);
  }
  cluster.run_for(sim::usec(900));
  for (auto& s : streams) s->start();
  cluster.run_for(sim::msec(5));
  const double ns = per_call_ns(51, 8, [&](int) { oracle.check_now(); });
  g_sink = g_sink + oracle.checks_run();
  return ns / 1e3;
}

double lookup_ns(myri::metrics::Registry& reg, int nodes, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::string> names;
  for (int i = 0; i < 64; ++i) {
    names.push_back("node" + std::to_string(rng.below(static_cast<std::uint64_t>(nodes))) +
                    ".mcp.fragments_tx");
  }
  std::uint64_t acc = 0;
  const double ns = per_call_ns(101, 64, [&](int k) {
    acc += reg.counter(names[static_cast<std::size_t>(k)]).value();
  });
  g_sink = g_sink + acc;
  return ns;
}

std::size_t instrument_count(const myri::metrics::Registry& reg) {
  // Registry::to_json() is {"counters":{..},"gauges":{..},"histograms":{..}}
  // with instrument names as the keys at depth 2.
  const std::string json = reg.to_json();
  std::size_t count = 0;
  int depth = 0;
  bool in_string = false;
  bool key_pending = false;  // a string at depth 2 just closed
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        key_pending = depth == 2;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == ':' && key_pending) {
      ++count;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    }
    if (c != '"') key_pending = false;
  }
  return count;
}

}  // namespace perfbench::isolated
