// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (the library itself is not instrumented
// here). Each span has a name, a start and end on the steady clock, the
// span that was open when it started, and a request id shared by the
// spans of one benchmark operation. Spans stay in memory until the run
// ends; write_jsonl() dumps them. With tracing off, Scope costs one
// branch and records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Trace {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  class Scope {
   public:
    Scope(Trace& trace, const char* name) : trace_(trace) {
      if (!trace_.enabled) return;
      index_ = static_cast<int>(trace_.spans_.size());
      trace_.spans_.push_back(
          {name, now_ns(), 0, trace_.open_, trace_.request_});
      trace_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& span = trace_.spans_[static_cast<std::size_t>(index_)];
      span.end_ns = now_ns();
      trace_.open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    int index_ = -1;
  };

  bool enabled = false;

  /// Starts a new request: later spans carry its id.
  void next_request() { ++request_; }

  /// Sum of the durations of every span called `name`, in ms.
  double total_ms(const std::string& name) const {
    double ns = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) ns += static_cast<double>(s.end_ns - s.start_ns);
    }
    return ns * 1e-6;
  }
  std::size_t count(const std::string& name) const {
    std::size_t n = 0;
    for (const Span& s : spans_) n += s.name == name ? 1u : 0u;
    return n;
  }

  void write_jsonl(std::ostream& out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
  std::uint64_t request_ = 0;
};

}  // namespace perfbench
