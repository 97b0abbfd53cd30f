// Span recording for the traced run. Spans are recorded by the benchmark
// around its calls into each layer's public functions (never inside the
// program), kept in memory, and written out as JSON lines at exit.
//
// A span names its replay (`replay`: which layered depth or publish replay
// produced it), its layer call (`name`), the request or publish it belongs
// to, its steady-clock interval, and its parent span (-1 for a root).

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* replay = "";
  const char* name = "";
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
};

class Tracer {
 public:
  /// Appends a finished span; returns its id (index) for children.
  int64_t Record(const char* replay, const char* name, uint64_t request,
                 int64_t start_ns, int64_t end_ns, int64_t parent = -1);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per request: total duration in microseconds of the spans named
  /// `name` in replay `replay` (a request may carry several, e.g. one
  /// kernel span per missed query).
  std::map<uint64_t, double> DurationsUs(const char* replay,
                                         const char* name) const;

  /// Writes one JSON object per span. False when the file cannot be
  /// written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
