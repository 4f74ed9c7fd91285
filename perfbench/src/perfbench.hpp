// Shared declarations of the whole-process benchmark (see ../NOTES.md).
//
// One process runs one workload once: it builds the cluster, runs the
// fixed amount of work to completion, checks every delivery, tears the
// cluster down and prints what it measured as one JSON line. run.py
// starts several such processes and reports their medians.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace myri::metrics {
class Registry;
}  // namespace myri::metrics

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Heap allocations this process has made so far, or -1 in the untraced
/// binary, which keeps the library's allocator (alloc_count_{on,off}.cpp).
[[nodiscard]] std::int64_t allocations();

/// Peak and current resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double current_rss_mb();

/// Value of a per-layer metric the benchmark cannot observe on a workload
/// from outside the program (see NOTES.md, "Not observable").
inline constexpr double kNotObservable = -1.0;

/// Per-layer metrics by name; every name of kLayerMetrics is present, at
/// kNotObservable until a workload measures it.
class Layers {
 public:
  Layers();
  void set(const std::string& name, double value);
  [[nodiscard]] const std::map<std::string, double>& values() const {
    return values_;
  }

 private:
  std::map<std::string, double> values_;
};

struct LayerMetric {
  const char* name;
  const char* unit;
};
/// Every per-layer metric a traced run reports, with its unit.
extern const std::vector<LayerMetric> kLayerMetrics;

/// What one workload process measured.
struct Outcome {
  std::string error;             // first failed check; empty when correct
  std::uint64_t posted = 0;      // messages the workload posted
  std::uint64_t delivered = 0;   // of those: exactly once, intact, in order
  std::uint64_t digest = 0;      // FNV-1a over the delivery log
  double setup_s = 0;            // main() until the first message is posted
  double window_s = 0;           // first post until the work is done
  double wall_s = 0;             // main() until the cluster is destroyed
  double virt_s = 0;             // virtual seconds simulated in the window
  /// Deterministic work counts: equal seeds give equal counts, and the
  /// seed-stability test bounds their spread across seeds.
  std::map<std::string, std::uint64_t> counts;
  Layers layers;                 // filled by traced runs only
};

struct RunContext {
  Clock::time_point t_main;      // entry to main()
  std::uint64_t seed = 1;
  double scale = 1.0;            // message-count multiplier (tests shrink it)
  Tracer* tracer = nullptr;
  bool traced = false;
};

// ---- workloads (workloads.cpp) ----
[[nodiscard]] Outcome run_ring512(const RunContext& ctx);
[[nodiscard]] Outcome run_bulk64(const RunContext& ctx);
[[nodiscard]] Outcome run_soak64(const RunContext& ctx);

// ---- isolated per-call costs (isolated.cpp), traced runs only ----
namespace isolated {
/// Median ns of one Packet::compute_crc over a `payload_bytes` payload.
[[nodiscard]] double crc_ns(std::uint32_t payload_bytes, std::uint64_t seed);
/// Median ms of one mcp::assemble_send_chunk.
[[nodiscard]] double assemble_ms();
/// Median ms of one host::HostMemory construction of `bytes`.
[[nodiscard]] double mem_ctor_ms(std::size_t bytes);
/// Median s of one net::FabricBuilder for the 512-node kFatTree3.
[[nodiscard]] double fabric_build_s();
/// Median ns of one schedule + cancel pair on an EventQueue that holds
/// `pending` live timers.
[[nodiscard]] double rearm_ns(std::size_t pending, std::uint64_t seed);
/// Median us of one fi::Oracle::check_now on a 64-node FTGM fat tree
/// whose 64 ring streams are in flight.
[[nodiscard]] double oracle_sweep_us(std::uint64_t seed);
/// Median ns of one Registry::counter(name) lookup of an existing
/// per-node counter in `reg`, a registry of an `nodes`-node cluster.
[[nodiscard]] double lookup_ns(myri::metrics::Registry& reg, int nodes,
                               std::uint64_t seed);
/// Instruments (counters, gauges, histograms) registered in `reg`.
[[nodiscard]] std::size_t instrument_count(const myri::metrics::Registry& reg);
}  // namespace isolated

}  // namespace perfbench
