// Span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code, around each call it
// makes into a simulator layer: {name, layer, start, end, parent}. They
// are kept in memory and written once, at exit, as Chrome trace-event
// JSON ("X" complete events), which Perfetto and chrome://tracing open.
// A disabled tracer records nothing, so untraced runs pay one branch per
// span.
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  /// An open span; closes when it goes out of scope. Spans nest: the span
  /// open when another begins is its parent.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_;
  };

  [[nodiscard]] Scope span(const char* name, const char* layer) {
    return Scope(*this, name, layer);
  }

  /// Write every recorded span as Chrome trace-event JSON; false on I/O
  /// error.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
  };
  [[nodiscard]] double now_us() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
