#include "tracer.hpp"

#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer& t, const char* name, const char* layer)
    : t_(t), index_(-1) {
  if (!t_.enabled_) return;
  index_ = static_cast<int>(t_.spans_.size());
  t_.spans_.push_back(Span{name, layer, t_.now_us(), 0, t_.open_});
  t_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& s = t_.spans_[static_cast<std::size_t>(index_)];
  s.end_us = t_.now_us();
  t_.open_ = s.parent;
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string parent =
        s.parent < 0 ? std::string("")
                     : spans_[static_cast<std::size_t>(s.parent)].name;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"parent_name\":\"%s\"}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.layer.c_str(),
                 s.start_us, s.end_us - s.start_us, i, s.parent,
                 parent.c_str());
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
