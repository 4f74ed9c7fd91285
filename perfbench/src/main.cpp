// perfbench: one workload, one process, one JSON line.
//
//   perfbench --workload ring512|bulk64|soak64 --seed N [--scale F]
//   perfbench_traced ... --trace-out FILE
//
// Prints what the process measured as the last line of stdout and exits 1
// when a delivery or oracle check failed (the line names the failure).
// The traced binary also reports every per-layer metric, runs the isolated
// per-call timings after the workload, and writes its spans to FILE as
// Chrome trace-event JSON. run.py drives both; see ../NOTES.md.
#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

const std::vector<LayerMetric> kLayerMetrics = {
    {"sim.events", "count"},
    {"sim.events_per_msg", "count/msg"},
    {"sim.ns_per_event", "ns"},
    {"sim.rearm_ns", "ns"},
    {"net.pkts_per_msg", "count/msg"},
    {"net.stalls", "count"},
    {"net.crc_ns_1k", "ns"},
    {"net.crc_ns_4k", "ns"},
    {"net.fabric_build_s", "s"},
    {"lanai.cycles_per_msg", "cycles/msg"},
    {"lanai.hdma_bytes_per_msg", "B/msg"},
    {"mcp.fragments_per_msg", "count/msg"},
    {"mcp.retx_frac", "ratio"},
    {"mcp.l_timer_runs", "count"},
    {"mcp.assemble_ms", "ms"},
    {"host.pci_txns_per_msg", "count/msg"},
    {"host.mem_ctor_ms", "ms"},
    {"gm.build_s", "s"},
    {"gm.warmup_s", "s"},
    {"gm.teardown_s", "s"},
    {"gm.build_rss_mb", "MB"},
    {"gm.allocs_per_msg", "count/msg"},
    {"gm.send_errors", "count"},
    {"core.recoveries", "count"},
    {"core.false_alarms", "count"},
    {"core.recovery_virt_ms", "ms"},
    {"mapper.remaps", "count"},
    {"mapper.scouts_sent", "count"},
    {"mapper.route_packets", "count"},
    {"faultinject.oracle_checks", "count"},
    {"faultinject.windows", "count"},
    {"faultinject.drift_checks", "count"},
    {"faultinject.oracle_sweep_us", "us"},
    {"metrics.instruments", "count"},
    {"metrics.lookup_ns", "ns"},
};

Layers::Layers() {
  for (const LayerMetric& m : kLayerMetrics) values_[m.name] = kNotObservable;
}

void Layers::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    std::fprintf(stderr, "perfbench: unknown layer metric %s\n", name.c_str());
    std::abort();
  }
  it->second = value;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double current_rss_mb() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size = 0;
    if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void print_outcome(const std::string& workload, std::uint64_t seed,
                   const Outcome& o, double peak_mb, bool traced) {
  std::string j = "{\"workload\":\"" + workload + "\"";
  j += ",\"seed\":" + std::to_string(seed);
  j += ",\"error\":\"" + json_escape(o.error) + "\"";
  j += ",\"posted\":" + std::to_string(o.posted);
  j += ",\"delivered\":" + std::to_string(o.delivered);
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"0x%016" PRIx64 "\"", o.digest);
  j += ",\"digest\":" + std::string(buf);
  auto num = [&j](const char* key, double v) {
    char b[96];
    std::snprintf(b, sizeof b, ",\"%s\":%.9g", key, v);
    j += b;
  };
  num("setup_s", o.setup_s);
  num("window_s", o.window_s);
  num("wall_s", o.wall_s);
  num("virt_s", o.virt_s);
  num("peak_rss_mb", peak_mb);
  j += ",\"counts\":{";
  bool first = true;
  for (const auto& [name, v] : o.counts) {
    j += (first ? "\"" : ",\"") + name + "\":" + std::to_string(v);
    first = false;
  }
  j += "}";
  if (traced) {
    j += ",\"layers\":{";
    first = true;
    for (const LayerMetric& m : kLayerMetrics) {
      char b[192];
      std::snprintf(b, sizeof b, "%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}",
                    first ? "" : ",", m.name, o.layers.values().at(m.name),
                    m.unit);
      j += b;
      first = false;
    }
    j += "}";
  }
  j += "}";
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ring512|bulk64|soak64 --seed N "
               "[--scale F] [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  ctx.t_main = Clock::now();
  std::string workload;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      ctx.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--scale") {
      ctx.scale = std::atof(v);
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return usage(argv[0]);
    }
  }
  ctx.traced = !trace_out.empty();
  if (ctx.traced && allocations() < 0) {
    std::fprintf(stderr, "--trace-out needs the perfbench_traced binary\n");
    return 2;
  }
  if (ctx.scale <= 0) return usage(argv[0]);
  Outcome (*run)(const RunContext&) = nullptr;
  if (workload == "ring512") {
    run = run_ring512;
  } else if (workload == "bulk64") {
    run = run_bulk64;
  } else if (workload == "soak64") {
    run = run_soak64;
  } else {
    return usage(argv[0]);
  }

  Tracer tracer(ctx.traced, ctx.t_main);
  ctx.tracer = &tracer;
  Outcome out;
  try {
    auto s = tracer.span(workload.c_str(), "perfbench");
    out = run(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  const double peak_mb = peak_rss_mb();

  if (ctx.traced) {
    auto s = tracer.span("isolated per-call costs", "perfbench");
    Layers& L = out.layers;
    {
      auto c = tracer.span("net::Packet::compute_crc", "net");
      L.set("net.crc_ns_1k", isolated::crc_ns(1024, ctx.seed));
      L.set("net.crc_ns_4k", isolated::crc_ns(4096, ctx.seed));
    }
    {
      auto c = tracer.span("net::FabricBuilder(kFatTree3, 512)", "net");
      L.set("net.fabric_build_s", isolated::fabric_build_s());
    }
    {
      auto c = tracer.span("mcp::assemble_send_chunk", "mcp");
      L.set("mcp.assemble_ms", isolated::assemble_ms());
    }
    {
      auto c = tracer.span("host::HostMemory(8 MB)", "host");
      L.set("host.mem_ctor_ms", isolated::mem_ctor_ms(8u << 20));
    }
    {
      auto c = tracer.span("fi::Oracle::check_now", "faultinject");
      L.set("faultinject.oracle_sweep_us", isolated::oracle_sweep_us(ctx.seed));
    }
  }
  if (ctx.traced && !tracer.write_chrome_json(trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  print_outcome(workload, ctx.seed, out, peak_mb, ctx.traced);
  if (!out.error.empty()) {
    std::fprintf(stderr, "perfbench: %s seed %" PRIu64 " FAILED: %s\n",
                 workload.c_str(), ctx.seed, out.error.c_str());
    return 1;
  }
  return 0;
}
