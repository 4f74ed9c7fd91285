// Event-core throughput: calendar queue vs the legacy binary heap.
//
// Two measurements, both reported as JSON (stdout + BENCH_event_throughput
// file) so CI can track the trajectory across commits:
//
//  1. Synthetic churn at 512-node scale: ~8k pending events, every fired
//     event schedules a successor at a mixed near/mid/far horizon plus a
//     far-out retransmit timer whose predecessor is cancelled — the
//     schedule/cancel mix a busy fault-tolerant cluster generates. The
//     identical deterministic workload runs on today's calendar queue and
//     on an embedded copy of the pre-rewrite shared_ptr binary-heap queue;
//     the speedup ratio is machine-portable even though absolute rates
//     are not.
//
//  2. A real 512-node kFatTree3 cluster pushing a full stream ring,
//     reporting events/sec and the sim-time/wall-time ratio, plus the
//     whole-process costs around it: set-up wall time (cluster build, port
//     opens, warm-up) and the process's peak RSS.
//
// With --baseline <json> the run gates itself against a committed
// baseline: >--max-regression (default 0.30) loss of cluster events/sec
// exits non-zero, which is what the CI perf-smoke job checks.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "faultinject/workload.hpp"
#include "gm/cluster.hpp"
#include "net/fabric.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace myri::bench {
namespace {

// ---- the pre-rewrite queue, embedded verbatim (renamed) ------------------
//
// This is the shared_ptr-per-event binary heap the calendar queue replaced
// (git history: src/sim/event_queue.{hpp,cpp} before the rewrite). Kept
// here so the speedup the rewrite bought stays measurable in-process on
// whatever machine runs the bench.
class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;

  struct Entry {
    sim::Time at = 0;
    std::uint64_t seq = 0;
    Callback cb;
    bool cancelled = false;
    bool fired = false;
    std::size_t* live_counter = nullptr;
  };

  class Handle {
   public:
    Handle() = default;
    void cancel() {
      if (auto e = entry_.lock()) {
        if (!e->fired && !e->cancelled) {
          e->cancelled = true;
          e->cb = nullptr;
          if (e->live_counter != nullptr) --*e->live_counter;
        }
      }
    }
    [[nodiscard]] bool pending() const {
      auto e = entry_.lock();
      return e && !e->fired && !e->cancelled;
    }

   private:
    friend class LegacyEventQueue;
    explicit Handle(std::shared_ptr<Entry> e) : entry_(std::move(e)) {}
    std::weak_ptr<Entry> entry_;
  };

  [[nodiscard]] sim::Time now() const noexcept { return now_; }

  Handle schedule_at(sim::Time at, Callback cb) {
    auto e = std::make_shared<Entry>();
    e->at = std::max(at, now_);
    e->seq = next_seq_++;
    e->cb = std::move(cb);
    e->live_counter = &live_;
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++live_;
    return Handle(e);
  }

  Handle schedule_after(sim::Time delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  bool step() {
    if (live_ == 0) {
      heap_.clear();
      return false;
    }
    return pop_and_run();
  }

  std::size_t run(std::size_t max_events = SIZE_MAX) {
    std::size_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
  }

  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  static bool later(const std::shared_ptr<Entry>& a,
                    const std::shared_ptr<Entry>& b) {
    if (a->at != b->at) return a->at > b->at;
    return a->seq > b->seq;
  }

  bool pop_and_run() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      auto e = std::move(heap_.back());
      heap_.pop_back();
      if (e->cancelled) continue;
      now_ = e->at;
      e->fired = true;
      --live_;
      ++executed_;
      Callback cb = std::move(e->cb);
      cb();
      return true;
    }
    return false;
  }

  std::vector<std::shared_ptr<Entry>> heap_;
  sim::Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::uint64_t executed_ = 0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- synthetic churn ----------------------------------------------------
//
// Each fired event: cancels the oldest outstanding "retransmit timer",
// arms a replacement timer far out, and schedules its own successor at a
// mixed horizon (in-bucket, mid-ring, overflow). Identical RNG consumption
// on both queue types, so the event sequences match exactly.
template <class Q>
struct Churn {
  Q eq;
  sim::Rng rng{2026};
  std::uint64_t fired = 0;
  std::uint64_t target = 0;
  // Closure padding: real callbacks capture packet-sized state, and the
  // legacy std::function heap-allocated every one of them.
  std::array<unsigned char, 64> pad{};
  std::deque<typename Q::Handle> timers;

  void arm(sim::Time at) {
    eq.schedule_at(at, [this, p = pad] {
      (void)p;
      ++fired;
      if (!timers.empty()) {
        timers.front().cancel();
        timers.pop_front();
      }
      timers.push_back(
          eq.schedule_after(sim::msec(40) + rng.below(sim::msec(10)), [] {}));
      if (fired < target) {
        const std::uint64_t r = rng.below(100);
        sim::Time d = 0;
        if (r < 50) {
          d = rng.below(4096);  // same/adjacent bucket
        } else if (r < 90) {
          d = 4096 + rng.below(500'000);  // mid-ring
        } else {
          d = sim::msec(1) + rng.below(sim::msec(30));  // overflow horizon
        }
        arm(eq.now() + d);
      }
    });
  }
};

struct SynthResult {
  std::uint64_t events = 0;
  double events_per_sec = 0;
};

template <class Q>
SynthResult run_synthetic(std::uint64_t target, int chains) {
  Churn<Q> churn;
  churn.target = target;
  for (int i = 0; i < chains; ++i) {
    churn.arm(static_cast<sim::Time>(churn.rng.below(sim::usec(100))));
  }
  const auto t0 = std::chrono::steady_clock::now();
  churn.eq.run();
  const double wall = seconds_since(t0);
  SynthResult r;
  r.events = churn.eq.executed();
  if (wall > 0) r.events_per_sec = static_cast<double>(r.events) / wall;
  return r;
}

// ---- real 512-node cluster ----------------------------------------------

struct ClusterResult {
  double setup_s = 0;
  std::uint64_t events = 0;
  double events_per_sec = 0;
  std::uint64_t sim_ns = 0;
  double wall_s = 0;
  double sim_per_wall = 0;
  bool complete = false;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

ClusterResult run_cluster512(int nodes, int msgs) {
  const auto t_setup = std::chrono::steady_clock::now();
  gm::ClusterConfig cc;
  cc.nodes = nodes;
  cc.fabric = net::FabricPreset::kFatTree3;
  cc.switch_ports = 16;
  gm::Cluster cluster(cc);
  std::vector<gm::Port*> tx, rx;
  tx.reserve(nodes);
  rx.reserve(nodes);
  for (int i = 0; i < nodes; ++i) {
    tx.push_back(&cluster.node(i).open_port(2));
    rx.push_back(&cluster.node(i).open_port(3));
  }
  fi::StreamWorkload::Config wc;
  wc.total_msgs = msgs;
  wc.msg_len = 1024;
  std::deque<fi::StreamWorkload> ring;
  for (int i = 0; i < nodes; ++i) {
    ring.emplace_back(*tx[i], *rx[(i + 1) % nodes], wc);
  }
  cluster.run_for(sim::usec(900));
  for (auto& wl : ring) wl.start();
  const double setup_s = seconds_since(t_setup);

  const std::uint64_t ev0 = cluster.eq().executed();
  const sim::Time t_sim0 = cluster.eq().now();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 200; ++i) {
    cluster.run_for(sim::msec(5));
    const bool all = std::all_of(ring.begin(), ring.end(),
                                 [](fi::StreamWorkload& w) {
                                   return w.complete();
                                 });
    if (all) break;
  }
  ClusterResult r;
  r.setup_s = setup_s;
  r.wall_s = seconds_since(t0);
  r.events = cluster.eq().executed() - ev0;
  r.sim_ns = cluster.eq().now() - t_sim0;
  if (r.wall_s > 0) {
    r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
    r.sim_per_wall = static_cast<double>(r.sim_ns) / (r.wall_s * 1e9);
  }
  r.complete = std::all_of(ring.begin(), ring.end(),
                           [](fi::StreamWorkload& w) { return w.complete(); });
  return r;
}

// ---- JSON out / baseline gate -------------------------------------------

double json_number_after(const std::string& text, const std::string& key) {
  const auto pos = text.find("\"" + key + "\":");
  if (pos == std::string::npos) return 0;
  return std::strtod(text.c_str() + pos + key.size() + 3, nullptr);
}

std::string read_file(const std::string& path) {
  std::string out;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

}  // namespace
}  // namespace myri::bench

int main(int argc, char** argv) {
  using namespace myri;
  using namespace myri::bench;

  std::string out_path = "BENCH_event_throughput.json";
  std::string baseline_path;
  double max_regression = 0.30;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (a == "--max-regression" && i + 1 < argc) {
      max_regression = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out json] [--baseline json] "
                   "[--max-regression frac]\n",
                   argv[0]);
      return 2;
    }
  }

  print_header("event core throughput (calendar queue vs legacy heap)");

  const auto synth_target = static_cast<std::uint64_t>(scaled(3'000'000));
  const int chains = 4096;  // ~8k pending with the timer population
  const SynthResult cal =
      run_synthetic<sim::EventQueue>(synth_target, chains);
  const SynthResult legacy =
      run_synthetic<LegacyEventQueue>(synth_target, chains);
  const double speedup =
      legacy.events_per_sec > 0 ? cal.events_per_sec / legacy.events_per_sec
                                : 0;
  std::printf("synthetic churn (%llu events, %d chains):\n",
              static_cast<unsigned long long>(cal.events), chains);
  std::printf("  calendar queue : %12.0f events/s\n", cal.events_per_sec);
  std::printf("  legacy heap    : %12.0f events/s\n", legacy.events_per_sec);
  std::printf("  speedup        : %12.2fx\n", speedup);
  if (cal.events != legacy.events) {
    std::fprintf(stderr,
                 "FAIL: queues diverged (%llu vs %llu events) — the "
                 "workload is deterministic, this is a correctness bug\n",
                 static_cast<unsigned long long>(cal.events),
                 static_cast<unsigned long long>(legacy.events));
    return 1;
  }

  const int nodes = std::max(8, scaled(512));
  const int msgs = 40;
  const ClusterResult cl = run_cluster512(nodes, msgs);
  std::printf("\n%d-node kFatTree3 stream ring (%d msgs/stream):\n", nodes,
              msgs);
  std::printf("  events         : %12llu%s\n",
              static_cast<unsigned long long>(cl.events),
              cl.complete ? "" : "  (ring INCOMPLETE)");
  std::printf("  events/sec     : %12.0f\n", cl.events_per_sec);
  std::printf("  sim/wall ratio : %12.3f (%llu sim-ns in %.2f s)\n",
              cl.sim_per_wall, static_cast<unsigned long long>(cl.sim_ns),
              cl.wall_s);
  const double rss_mb = peak_rss_mb();
  std::printf("  set-up         : %12.3f s\n", cl.setup_s);
  std::printf("  peak RSS       : %12.1f MB\n", rss_mb);
  if (!cl.complete) {
    std::fprintf(stderr, "FAIL: stream ring did not complete\n");
    return 1;
  }

  char json[1024];
  std::snprintf(
      json, sizeof json,
      "{\n"
      "  \"bench\": \"event_throughput\",\n"
      "  \"scale\": %.3f,\n"
      "  \"synthetic\": {\n"
      "    \"events\": %llu,\n"
      "    \"calendar_events_per_sec\": %.0f,\n"
      "    \"legacy_heap_events_per_sec\": %.0f,\n"
      "    \"speedup\": %.3f\n"
      "  },\n"
      "  \"cluster\": {\n"
      "    \"nodes\": %d,\n"
      "    \"events\": %llu,\n"
      "    \"events_per_sec\": %.0f,\n"
      "    \"sim_ns\": %llu,\n"
      "    \"sim_time_per_wall_time\": %.4f,\n"
      "    \"setup_s\": %.3f,\n"
      "    \"peak_rss_mb\": %.1f\n"
      "  }\n"
      "}\n",
      scale(), static_cast<unsigned long long>(cal.events),
      cal.events_per_sec, legacy.events_per_sec, speedup, nodes,
      static_cast<unsigned long long>(cl.events), cl.events_per_sec,
      static_cast<unsigned long long>(cl.sim_ns), cl.sim_per_wall,
      cl.setup_s, rss_mb);
  std::printf("\n%s", json);
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json, f);
    std::fclose(f);
    std::printf("(written to %s)\n", out_path.c_str());
  }

  if (!baseline_path.empty()) {
    const std::string base = read_file(baseline_path);
    if (base.empty()) {
      std::fprintf(stderr, "FAIL: baseline %s unreadable\n",
                   baseline_path.c_str());
      return 1;
    }
    const double base_eps = json_number_after(base, "events_per_sec");
    const double floor = base_eps * (1.0 - max_regression);
    std::printf("baseline gate: %.0f events/s now vs %.0f committed "
                "(floor %.0f at %.0f%% allowed regression)\n",
                cl.events_per_sec, base_eps, floor, max_regression * 100);
    if (base_eps > 0 && cl.events_per_sec < floor) {
      std::fprintf(stderr, "FAIL: events/sec regressed past the gate\n");
      return 1;
    }
  }
  return 0;
}
