#include "trace.h"

#include <cstring>
#include <fstream>

#include "common/json.h"

namespace perfbench {

int64_t Tracer::Record(const char* replay, const char* name, uint64_t request,
                       int64_t start_ns, int64_t end_ns, int64_t parent) {
  spans_.push_back(Span{replay, name, request, start_ns, end_ns, parent});
  return int64_t(spans_.size()) - 1;
}

std::map<uint64_t, double> Tracer::DurationsUs(const char* replay,
                                               const char* name) const {
  std::map<uint64_t, double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.replay, replay) == 0 && std::strcmp(s.name, name) == 0) {
      out[s.request] += double(s.end_ns - s.start_ns) / 1e3;
    }
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  using recpriv::JsonValue;
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonValue line = JsonValue::Object();
    line.Set("id", JsonValue::Uint(i));
    line.Set("parent", JsonValue::Int(s.parent));
    line.Set("replay", JsonValue::String(s.replay));
    line.Set("name", JsonValue::String(s.name));
    line.Set("request", JsonValue::Uint(s.request));
    line.Set("start_ns", JsonValue::Int(s.start_ns));
    line.Set("end_ns", JsonValue::Int(s.end_ns));
    out << line.ToString() << "\n";
  }
  return bool(out);
}

}  // namespace perfbench
