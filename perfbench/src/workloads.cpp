// The three workloads. Each drives the simulator only through its public
// calls (gm::Cluster, fi::StreamWorkload, fi::ScenarioRunner, fi::Oracle,
// the metrics registry and component stats()) and times every layer from
// outside, around the call it makes into it.
//
// The seed chooses which nodes, partners, times and victims are used,
// never how much work is done: message counts, sizes, the soak horizon and
// the per-kind fault counts are constants of the workload.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "faultinject/oracle.hpp"
#include "faultinject/scenario.hpp"
#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"
#include "mapper/failover.hpp"
#include "net/fabric.hpp"
#include "perfbench.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

namespace fi = myri::fi;
namespace gm = myri::gm;
namespace mcp = myri::mcp;
namespace net = myri::net;
namespace sim = myri::sim;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

/// Cluster-wide component counters at one instant; the window's work is
/// the difference of two samples.
struct Work {
  std::uint64_t events = 0;
  std::uint64_t pkts = 0;
  std::uint64_t cycles = 0;
  std::uint64_t hdma_bytes = 0;
  std::uint64_t fragments = 0;
  std::uint64_t retx = 0;
  std::uint64_t l_timer_runs = 0;
  std::uint64_t pci_txns = 0;
  std::uint64_t stalls = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t false_alarms = 0;
};

Work sample(gm::Cluster& c) {
  Work w;
  w.events = c.eq().executed();
  for (int i = 0; i < c.size(); ++i) {
    gm::Node& n = c.node(i);
    w.pkts += n.nic().stats().pkts_tx;
    w.cycles += n.nic().cpu().total_cycles();
    w.hdma_bytes += n.nic().stats().hdma_bytes;
    const mcp::McpStats& m = n.mcp().stats();
    w.fragments += m.fragments_tx;
    w.retx += m.retransmissions;
    w.l_timer_runs += m.l_timer_runs;
    w.pci_txns += n.pci().transactions();
    for (const std::uint8_t p : n.open_ports()) {
      w.send_errors += n.port(p)->stats().send_errors;
    }
    if (n.has_ftd()) {
      w.recoveries += n.ftd().stats().recoveries;
      w.false_alarms += n.ftd().stats().false_alarms;
    }
  }
  for (std::size_t s = 0; s < c.topo().num_switches(); ++s) {
    w.stalls += c.topo().get_switch(static_cast<std::uint16_t>(s))
                    .stats()
                    .stalled;
  }
  return w;
}

/// Mean Table 3 recovery time in virtual ms: the FTD's detect..restore
/// total plus the port replay, 0 when nothing recovered.
double recovery_virt_ms(gm::Cluster& c) {
  auto mean_of = [&c](const std::string& suffix) {
    std::uint64_t sum = 0;
    std::uint64_t n = 0;
    for (const auto& [name, h] : c.metrics().histograms()) {
      if (name.size() < suffix.size() ||
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
              0) {
        continue;
      }
      sum += h.sum();
      n += h.count();
    }
    return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
  };
  return (mean_of(".ftd.recovery.total_ns") + mean_of(".recovery.replay_ns")) /
         1e6;
}

/// Seed-permuted partners among the nodes of each edge switch: node i
/// streams to partner[i], every node receives exactly one stream and
/// nobody sends to itself (a random single cycle per switch). Traffic stays on the edge switch because the fabric's routes
/// are single-path (first BFS path): every cross-switch stream shares one
/// uplink, and a closed loop of permuted partners across the fat tree
/// collapses into a retransmission storm (see NOTES.md).
std::vector<int> partners(const net::FabricBuilder& fabric, std::uint64_t seed) {
  std::map<std::uint16_t, std::vector<int>> by_switch;
  const auto& at = fabric.placements();
  for (std::size_t i = 0; i < at.size(); ++i) {
    by_switch[at[i].sw].push_back(static_cast<int>(i));
  }
  std::vector<int> to(at.size());
  sim::Rng rng(seed ^ 0x7061727472696e67ull);
  for (auto& [sw, group] : by_switch) {
    if (group.size() < 2) throw std::logic_error("edge switch with one node");
    // A shuffled order of the group; each node sends to the next one.
    std::vector<int> cycle = group;
    for (std::size_t i = cycle.size() - 1; i > 0; --i) {
      std::swap(cycle[i], cycle[static_cast<std::size_t>(rng.below(i + 1))]);
    }
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      to[static_cast<std::size_t>(cycle[i])] = cycle[(i + 1) % cycle.size()];
    }
  }
  return to;
}

/// Per-layer metrics of the metrics layer, measured on a built cluster's
/// registry. Returns the host seconds it took, which the caller keeps out
/// of its wall time.
double measure_registry(Layers& L, gm::Cluster& c, std::uint64_t seed) {
  const auto t0 = Clock::now();
  L.set("metrics.instruments",
        static_cast<double>(isolated::instrument_count(c.metrics())));
  L.set("metrics.lookup_ns", isolated::lookup_ns(c.metrics(), c.size(), seed));
  return seconds_since(t0);
}

// ---- closed-loop stream ring (ring512, bulk64) ----------------------------

struct RingShape {
  int nodes;
  net::FabricPreset fabric;
  std::uint8_t radix;
  std::uint32_t msg_len;
  int msgs;  // per stream, at scale 1
};

constexpr std::uint32_t kRingTokens = 16;  // Port::Config default
// The window advances in slices fine enough that virtual time, read at a
// slice end, resolves the 3.5 ms ring512 window to 0.3%.
constexpr sim::Time kSlice = sim::usec(10);
// A run that has not completed by these bounds is stuck, not slow: a
// completed window takes ~76 virtual ms and a few host seconds.
constexpr sim::Time kMaxVirtual = sim::sec(2);
constexpr double kMaxWindowWall_s = 100;

Outcome run_stream_ring(const RingShape& shape, const RunContext& ctx) {
  Tracer& tr = *ctx.tracer;
  Outcome out;
  Layers& L = out.layers;
  const int msgs =
      std::max(1, static_cast<int>(shape.msgs * ctx.scale + 0.5));
  const auto n = static_cast<std::size_t>(shape.nodes);

  gm::ClusterConfig cc;
  cc.nodes = shape.nodes;
  cc.fabric = shape.fabric;
  cc.switch_ports = shape.radix;
  cc.mode = mcp::McpMode::kFtgm;
  cc.seed = ctx.seed;

  const double rss0 = current_rss_mb();
  auto t = Clock::now();
  std::unique_ptr<gm::Cluster> cluster;
  {
    auto s = tr.span("gm::Cluster", "gm");
    cluster = std::make_unique<gm::Cluster>(cc);
  }
  L.set("gm.build_s", seconds_since(t));
  L.set("gm.build_rss_mb", current_rss_mb() - rss0);

  const std::vector<int> to = partners(cluster->fabric(), ctx.seed);
  std::vector<std::unique_ptr<fi::StreamWorkload>> streams;
  std::vector<int> next(n, 0);
  std::uint64_t digest = kFnvOffset;
  std::uint64_t arrivals = 0;
  {
    auto s = tr.span("gm::Node::open_port", "gm");
    std::vector<gm::Port*> tx;
    std::vector<gm::Port*> rx;
    for (int i = 0; i < shape.nodes; ++i) {
      tx.push_back(&cluster->node(i).open_port(2));
      rx.push_back(&cluster->node(i).open_port(3));
    }
    fi::StreamWorkload::Config wc;
    wc.total_msgs = msgs;
    wc.msg_len = shape.msg_len;
    for (std::size_t i = 0; i < n; ++i) {
      streams.push_back(std::make_unique<fi::StreamWorkload>(
          *tx[i], *rx[static_cast<std::size_t>(to[i])], wc));
      // The delivery log: exactly once, intact (msg >= 0) and in order.
      streams.back()->set_on_delivery([&, i](int msg) {
        ++arrivals;
        mix(digest, i);
        mix(digest, static_cast<std::uint64_t>(static_cast<std::int64_t>(msg)));
        mix(digest, cluster->eq().now());
        if (msg == next[i]) {
          ++next[i];
          ++out.delivered;
        } else if (out.error.empty()) {
          out.error = "stream " + std::to_string(i) + ": expected msg " +
                      std::to_string(next[i]) + ", got " + std::to_string(msg);
        }
      });
    }
  }

  t = Clock::now();
  {
    auto s = tr.span("gm::Cluster::run_for(warmup)", "gm");
    cluster->run_for(fi::Scenario::kWarmup);
  }
  L.set("gm.warmup_s", seconds_since(t));
  out.setup_s = seconds_since(ctx.t_main);

  // ---- measured window: first post until every message is delivered and
  // the ACK tails have drained (all tokens home, FTGM backups empty) ----
  out.posted = static_cast<std::uint64_t>(msgs) * n;
  const Work w0 = sample(*cluster);
  const std::int64_t allocs0 = allocations();
  const sim::Time virt0 = cluster->eq().now();
  std::size_t pending_mid = 0;
  t = Clock::now();
  {
    auto s = tr.span("sim::EventQueue window", "sim");
    for (auto& st : streams) st->start();
    auto stuck = [&] {
      return cluster->eq().now() - virt0 > kMaxVirtual ||
             seconds_since(t) > kMaxWindowWall_s;
    };
    while (arrivals < out.posted && !stuck()) {
      cluster->run_for(kSlice);
      if (pending_mid == 0) pending_mid = cluster->eq().pending_events();
    }
    auto quiet = [&] {
      return std::all_of(streams.begin(), streams.end(), [](const auto& st) {
        return st->sender().send_tokens_free() == kRingTokens &&
               st->sender().backup().send_count() == 0;
      });
    };
    while (!quiet() && !stuck()) cluster->run_for(kSlice);
    if (stuck() && out.error.empty()) {
      out.error = "window did not complete: " + std::to_string(arrivals) +
                  " of " + std::to_string(out.posted) + " messages arrived";
    }
  }
  out.window_s = seconds_since(t);
  out.virt_s = sim::to_sec(cluster->eq().now() - virt0);
  const std::int64_t allocs1 = allocations();
  const Work w1 = sample(*cluster);

  std::uint64_t oracle_checks = 0;
  {
    auto s = tr.span("fi::Oracle::final_check", "faultinject");
    fi::Oracle oracle(*cluster, fi::Oracle::Config{});
    for (auto& st : streams) oracle.watch(*st, kRingTokens, kRingTokens);
    oracle.final_check();
    oracle_checks = oracle.checks_run();
    if (!oracle.ok() && out.error.empty()) {
      const fi::Oracle::Violation& v = oracle.violations().front();
      out.error = "oracle " + v.invariant + ": " + v.detail;
    }
  }
  for (std::size_t i = 0; i < n && out.error.empty(); ++i) {
    if (!streams[i]->complete()) {
      out.error = "stream " + std::to_string(i) + " incomplete: " +
                  std::to_string(streams[i]->missing()) + " missing";
    }
  }

  double isolated_s = 0;
  if (ctx.traced) {
    auto s = tr.span("metrics::Registry (isolated)", "metrics");
    isolated_s = measure_registry(L, *cluster, ctx.seed);
    L.set("core.recovery_virt_ms", recovery_virt_ms(*cluster));
  }

  t = Clock::now();
  {
    auto s = tr.span("gm::Cluster::~Cluster", "gm");
    streams.clear();
    cluster.reset();
  }
  L.set("gm.teardown_s", seconds_since(t));
  out.wall_s = seconds_since(ctx.t_main) - isolated_s;

  const std::uint64_t events = w1.events - w0.events;
  out.digest = digest;
  out.counts = {{"sim.events", events},
                {"net.packets", w1.pkts - w0.pkts},
                {"mcp.fragments", w1.fragments - w0.fragments},
                {"mcp.retransmissions", w1.retx - w0.retx},
                {"deliveries", out.delivered}};

  const double per = static_cast<double>(std::max<std::uint64_t>(1, out.delivered));
  auto per_msg = [per](std::uint64_t v) { return static_cast<double>(v) / per; };
  L.set("sim.events", static_cast<double>(events));
  L.set("sim.events_per_msg", per_msg(events));
  L.set("sim.ns_per_event",
        out.window_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, events)));
  L.set("sim.rearm_ns", ctx.traced ? isolated::rearm_ns(pending_mid, ctx.seed)
                                   : kNotObservable);
  L.set("net.pkts_per_msg", per_msg(w1.pkts - w0.pkts));
  L.set("net.stalls", static_cast<double>(w1.stalls - w0.stalls));
  L.set("lanai.cycles_per_msg", per_msg(w1.cycles - w0.cycles));
  L.set("lanai.hdma_bytes_per_msg", per_msg(w1.hdma_bytes - w0.hdma_bytes));
  const std::uint64_t frags = w1.fragments - w0.fragments;
  L.set("mcp.fragments_per_msg", per_msg(frags));
  L.set("mcp.retx_frac", static_cast<double>(w1.retx - w0.retx) /
                             static_cast<double>(std::max<std::uint64_t>(1, frags)));
  L.set("mcp.l_timer_runs", static_cast<double>(w1.l_timer_runs - w0.l_timer_runs));
  L.set("host.pci_txns_per_msg", per_msg(w1.pci_txns - w0.pci_txns));
  if (allocs0 >= 0) {
    L.set("gm.allocs_per_msg", per_msg(static_cast<std::uint64_t>(allocs1 - allocs0)));
  }
  L.set("gm.send_errors", static_cast<double>(w1.send_errors));
  L.set("core.recoveries", static_cast<double>(w1.recoveries));
  L.set("core.false_alarms", static_cast<double>(w1.false_alarms));
  // Routes are installed directly: no mapper runs on these workloads.
  L.set("mapper.remaps", 0);
  L.set("mapper.scouts_sent", 0);
  L.set("mapper.route_packets", 0);
  L.set("faultinject.oracle_checks", static_cast<double>(oracle_checks));
  L.set("faultinject.windows", 0);
  L.set("faultinject.drift_checks", 0);
  return out;
}

// ---- soak64: fixed fault counts through fi::ScenarioRunner -----------------

constexpr int kSoakNodes = 64;
constexpr std::uint8_t kSoakRadix = 10;
constexpr std::uint32_t kSoakTokens = 24;  // the runner's per-port allotment
constexpr int kSoakMsgs = 72;              // per ring stream, 250 ms apart
constexpr int kMembershipMsgs = 8;         // the runner's verification stream
// Faults land in [kFaultStart, kFaultStart + kFaultSpan) past the warm-up.
// The ring streams end at ~18 s plus the stalls recoveries cause (up to
// ~3 s, depending on the seed), and the route control plane settles
// seconds after the last fault. The last loss window closes the soak at
// kSoakEnd, late enough that nearly every seed has settled by then and
// so simulates the same virtual time. The horizon only bounds a wedged
// run.
constexpr sim::Time kFaultStart = sim::sec(1);
constexpr sim::Time kFaultSpan = sim::sec(16);
constexpr sim::Time kSoakEnd = sim::sec(28);
constexpr sim::Time kSoakHorizon = sim::sec(34);

/// Per-kind fault counts: fixed, whatever the seed.
constexpr int kHangs = 2;
constexpr int kCableOutages = 2;
constexpr int kSramFlips = 2;
constexpr int kLossWindows = 3;
constexpr int kJoinDrains = 2;
constexpr int kReplaces = 1;

fi::Scenario make_soak64(std::uint64_t seed) {
  using Kind = fi::ScenarioEvent::Kind;
  fi::Scenario s;
  s.seed = seed;
  s.nodes = kSoakNodes;
  s.fabric = net::FabricPreset::kFatTree;
  s.radix = kSoakRadix;
  s.mode = mcp::McpMode::kFtgm;
  s.msgs = kSoakMsgs;
  s.msg_len = 1800;
  s.send_gap = sim::msec(250);
  s.drop = 0.005;
  s.corrupt = 0.002;
  s.check_window = sim::msec(500);
  s.horizon = fi::Scenario::kWarmup + kSoakHorizon;

  sim::Rng rng(seed ^ 0x736f616b3634ull);
  auto uniform = [&rng](sim::Time lo, sim::Time hi) {
    return lo + rng.below(hi - lo);
  };
  auto push = [&s](fi::ScenarioEvent ev, sim::Time offset) {
    ev.at = fi::Scenario::kWarmup + kFaultStart + offset;
    s.events.push_back(ev);
  };

  // Victims. Never node 0 (mapper home, membership-stream sender); the
  // replaced node is never hung or flipped, and hang victims (odd ids)
  // and flip victims (even ids) are disjoint, as in fi::SoakProfile.
  const int replaced = 1 + static_cast<int>(rng.below(kSoakNodes - 1));
  std::vector<int> odd;
  std::vector<int> even;
  for (int v = 1; v < kSoakNodes; ++v) {
    if (v == replaced) continue;
    (v % 2 == 1 ? odd : even).push_back(v);
  }

  // Each repeated kind gets equal slots of the fault span, one event per
  // slot: hangs 8 s apart leave room for each ~2-4 s recovery.
  const sim::Time half = kFaultSpan / 2;
  for (int i = 0; i < kHangs; ++i) {
    fi::ScenarioEvent ev;
    ev.kind = Kind::kNicHang;
    ev.node = rng.pick(odd);
    push(ev, half * i + uniform(sim::msec(500), sim::sec(4)));
  }
  for (int i = 0; i < kSramFlips; ++i) {
    fi::ScenarioEvent ev;
    ev.kind = Kind::kSramFlip;
    ev.node = rng.pick(even);
    ev.offset = static_cast<std::uint32_t>(rng.below(1u << 16));
    ev.bit = static_cast<unsigned>(rng.below(8));
    push(ev, half * i + uniform(sim::msec(500), sim::sec(6)));
  }
  // One trunk down at a time: each 3 s outage ends inside its own slot.
  std::size_t trunks = 0;
  {
    sim::EventQueue eq;
    sim::Rng r(0);
    net::Topology topo(eq, r);
    trunks = net::FabricBuilder(topo, {s.fabric, s.nodes, s.radix})
                 .trunk_cables()
                 .size();
  }
  for (int i = 0; i < kCableOutages; ++i) {
    const sim::Time down = half * i + uniform(0, sim::msec(3500));
    fi::ScenarioEvent ev;
    ev.cable = static_cast<int>(rng.below(trunks));
    ev.kind = Kind::kCableDown;
    push(ev, down);
    ev.kind = Kind::kCableUp;
    push(ev, down + sim::sec(3));
  }
  fi::ScenarioEvent loss;
  loss.kind = Kind::kFaultWindow;
  loss.duration = sim::msec(50);
  loss.drop = 0.10;
  loss.corrupt = 0.05;
  const sim::Time slot = kFaultSpan / (kLossWindows - 1);
  for (int i = 0; i + 1 < kLossWindows; ++i) {
    push(loss, slot * i + uniform(0, slot - sim::msec(100)));
  }
  push(loss, kSoakEnd - kFaultStart);
  // Join/drain cycles: the joiner drains 3 s after joining, and the next
  // join comes after the drained port is handed back (drain + 4 s), since
  // the radix-10 fat tree has one spare port.
  for (int i = 0; i < kJoinDrains; ++i) {
    const sim::Time join = half * i + uniform(sim::msec(100), sim::sec(1));
    fi::ScenarioEvent ev;
    ev.kind = Kind::kNodeJoin;
    push(ev, join);
    ev.kind = Kind::kNodeDrain;
    ev.node = kSoakNodes + i;
    push(ev, join + sim::sec(3));
  }
  for (int i = 0; i < kReplaces; ++i) {
    fi::ScenarioEvent ev;
    ev.kind = Kind::kNodeReplace;
    ev.node = replaced;
    push(ev, uniform(sim::sec(2), kFaultSpan - sim::sec(2)));
  }
  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const fi::ScenarioEvent& a, const fi::ScenarioEvent& b) {
                     return a.at < b.at;
                   });
  const std::string bad = s.validate();
  if (!bad.empty()) throw std::logic_error("soak64 scenario invalid: " + bad);
  return s;
}

/// The runner's set-up, rebuilt from outside it: the same cluster,
/// failover manager, ports and watched ring streams, up to the warm-up's
/// end, where the runner posts its first message. Members are destroyed
/// in reverse order, the cluster last.
struct SoakSetup {
  std::unique_ptr<gm::Cluster> cluster;
  std::unique_ptr<myri::mapper::FailoverManager> fm;
  std::vector<std::unique_ptr<fi::StreamWorkload>> streams;
  std::unique_ptr<fi::Oracle> oracle;
};

void build_soak_setup(SoakSetup& su, const fi::Scenario& s, Tracer& tr) {
  gm::ClusterConfig cc;
  cc.nodes = s.nodes;
  cc.fabric = s.fabric;
  cc.switch_ports = s.radix;
  cc.mode = s.mode;
  cc.seed = s.seed;
  cc.faults = {s.drop, s.corrupt, s.misroute};
  {
    auto sp = tr.span("gm::Cluster", "gm");
    su.cluster = std::make_unique<gm::Cluster>(cc);
  }
  {
    auto sp = tr.span("mapper::FailoverManager", "mapper");
    su.fm = std::make_unique<myri::mapper::FailoverManager>(*su.cluster);
  }
  auto sp = tr.span("gm::Node::open_port", "gm");
  std::vector<gm::Port*> ports;
  for (int i = 0; i < s.nodes; ++i) {
    ports.push_back(
        &su.cluster->node(i).open_port(2, {kSoakTokens, kSoakTokens}));
  }
  fi::StreamWorkload::Config wc;
  wc.total_msgs = s.msgs;
  wc.msg_len = s.msg_len;
  wc.send_gap = s.send_gap;
  su.oracle = std::make_unique<fi::Oracle>(*su.cluster, fi::Oracle::Config{});
  su.oracle->set_route_authority(su.fm.get());
  for (int i = 0; i < s.nodes; ++i) {
    su.streams.push_back(std::make_unique<fi::StreamWorkload>(
        *ports[static_cast<std::size_t>(i)],
        *ports[static_cast<std::size_t>((i + 1) % s.nodes)], wc));
    su.oracle->watch(*su.streams.back(), kSoakTokens, kSoakTokens);
  }
}

}  // namespace

Outcome run_ring512(const RunContext& ctx) {
  // 512 nodes on the 3-level k-ary fat tree (radix 16), 1 KB messages.
  return run_stream_ring({512, net::FabricPreset::kFatTree3, 16, 1024, 200},
                         ctx);
}

Outcome run_bulk64(const RunContext& ctx) {
  // 64 nodes on the 2-level fat tree, 64 KB messages (16 x 4 KB fragments).
  return run_stream_ring({64, net::FabricPreset::kFatTree, 16, 64 * 1024, 100},
                         ctx);
}

Outcome run_soak64(const RunContext& ctx) {
  using Kind = fi::ScenarioEvent::Kind;
  Tracer& tr = *ctx.tracer;
  Outcome out;
  Layers& L = out.layers;

  fi::Scenario s;
  {
    auto sp = tr.span("fi::Scenario (soak64)", "faultinject");
    s = make_soak64(ctx.seed);
  }

  // ---- set-up, timed from outside the runner on an identical build ----
  const auto t_probe = Clock::now();
  const double rss0 = current_rss_mb();
  const std::int64_t allocs0 = allocations();
  std::optional<SoakSetup> su(std::in_place);
  auto t = Clock::now();
  build_soak_setup(*su, s, tr);
  L.set("gm.build_s", seconds_since(t));
  L.set("gm.build_rss_mb", current_rss_mb() - rss0);
  t = Clock::now();
  {
    auto sp = tr.span("gm::Cluster::run_for(warmup)", "gm");
    su->cluster->run_for(fi::Scenario::kWarmup);
  }
  L.set("gm.warmup_s", seconds_since(t));
  out.setup_s = seconds_since(ctx.t_main);
  const double probe_setup_s = seconds_since(t_probe);
  const std::int64_t setup_allocs = allocations() - allocs0;

  double isolated_s = 0;
  const std::size_t pending = su->cluster->eq().pending_events();
  if (ctx.traced) {
    auto sp = tr.span("metrics::Registry (isolated)", "metrics");
    isolated_s = measure_registry(L, *su->cluster, ctx.seed);
  }
  t = Clock::now();
  {
    auto sp = tr.span("gm::Cluster::~Cluster", "gm");
    su.reset();
  }
  const double probe_teardown_s = seconds_since(t);
  L.set("gm.teardown_s", probe_teardown_s);
  const double probe_s = seconds_since(t_probe) - isolated_s;

  // ---- the soak itself: build, windowed run, destruction ----
  const std::int64_t allocs1 = allocations();
  t = Clock::now();
  fi::RunReport rep;
  {
    auto sp = tr.span("fi::ScenarioRunner::run", "faultinject");
    rep = fi::ScenarioRunner::run(s);
  }
  const double run_s = seconds_since(t);
  const std::int64_t allocs2 = allocations();
  out.wall_s = seconds_since(ctx.t_main) - probe_s - isolated_s;
  // The runner's own set-up and teardown match the probe's; the window is
  // what remains of its call.
  out.window_s = std::max(1e-3, run_s - probe_setup_s - probe_teardown_s);
  out.virt_s = sim::to_sec(rep.end_time - fi::Scenario::kWarmup);

  // Streams a scheduled replace abandons by design are excluded: the
  // replaced node's own stream and the one feeding it.
  std::vector<bool> abandoned(rep.streams.size(), false);
  std::map<std::string, std::uint64_t> faults;
  for (const fi::ScenarioEvent& ev : s.events) {
    ++faults[std::string("faults.") + fi::to_string(ev.kind)];
    if (ev.kind != Kind::kNodeReplace) continue;
    abandoned[static_cast<std::size_t>(ev.node)] = true;
    abandoned[static_cast<std::size_t>((ev.node + s.nodes - 1) % s.nodes)] =
        true;
  }
  for (std::size_t i = 0; i < rep.streams.size(); ++i) {
    if (abandoned[i]) continue;
    const fi::StreamOutcome& so = rep.streams[i];
    const int total = i < static_cast<std::size_t>(s.nodes) ? s.msgs
                                                            : kMembershipMsgs;
    out.posted += static_cast<std::uint64_t>(total);
    out.delivered += static_cast<std::uint64_t>(
        so.complete ? total : std::max(0, total - so.missing - so.duplicates));
  }
  if (!rep.oracle_ok) {
    out.error = "oracle " + rep.violation + " at " +
                std::to_string(sim::to_sec(rep.violation_at)) + " s (window " +
                std::to_string(rep.violation_window) +
                "): " + rep.violation_detail;
  } else if (!rep.delivered) {
    out.error = "incomplete delivery: " + std::to_string(out.delivered) +
                " of " + std::to_string(out.posted);
  }

  out.digest = rep.digest;
  out.counts = {{"sim.events", rep.events_executed},
                {"deliveries", rep.deliveries},
                {"faultinject.windows", rep.windows_checked},
                {"core.recoveries", rep.recoveries},
                {"mapper.remaps", rep.remaps}};
  for (const auto& [kind, count] : faults) out.counts[kind] = count;

  const auto events = static_cast<double>(std::max<std::uint64_t>(1, rep.events_executed));
  L.set("sim.events", static_cast<double>(rep.events_executed));
  L.set("sim.events_per_msg",
        events / static_cast<double>(std::max<std::uint64_t>(1, rep.deliveries)));
  L.set("sim.ns_per_event", out.window_s * 1e9 / events);
  L.set("sim.rearm_ns",
        ctx.traced ? isolated::rearm_ns(pending, ctx.seed) : kNotObservable);
  if (allocs0 >= 0) {
    // The runner's allocations less those of its (identical) set-up.
    L.set("gm.allocs_per_msg",
          static_cast<double>((allocs2 - allocs1) - setup_allocs) /
              static_cast<double>(std::max<std::uint64_t>(1, rep.deliveries)));
  }
  L.set("core.recoveries", static_cast<double>(rep.recoveries));
  // The runner's oracle fails the run on any false alarm
  // (watchdog-soundness), so a passing run had none.
  if (rep.oracle_ok) L.set("core.false_alarms", 0);
  L.set("mapper.remaps", static_cast<double>(rep.remaps));
  L.set("faultinject.oracle_checks", static_cast<double>(rep.oracle_checks));
  L.set("faultinject.windows", static_cast<double>(rep.windows_checked));
  L.set("faultinject.drift_checks", static_cast<double>(rep.drift_checks));
  return out;
}

}  // namespace perfbench
