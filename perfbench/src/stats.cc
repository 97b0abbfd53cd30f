#include "stats.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace perfbench {

size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  const double exact = p * double(n);
  size_t rank = size_t(std::ceil(exact - 1e-9 * std::max(1.0, exact)));
  return std::clamp<size_t>(rank, 1, n);
}

size_t SamplesBeyond(size_t n, double p) { return n - NearestRank(n, p); }

bool SupportsPercentile(size_t n, double p) {
  return n > 0 && SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

size_t MinSamplesFor(double p) {
  size_t n = 1;
  while (!SupportsPercentile(n, p)) ++n;
  return n;
}

double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double p : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (SupportsPercentile(n, p)) best = p;
  }
  return best;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), p) - 1];
}

double QuietHalfPercentile(const std::vector<std::vector<double>>& windows,
                           double p) {
  std::vector<std::vector<double>> answered(windows.size());
  std::vector<double> pooled;
  for (size_t w = 0; w < windows.size(); ++w) {
    for (double v : windows[w]) {
      (std::isfinite(v) ? answered[w] : pooled).push_back(v);
    }
  }
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t w = 0; w < answered.size(); ++w) {
    ranked.emplace_back(Percentile(answered[w], p), w);
  }
  std::sort(ranked.begin(), ranked.end());
  for (size_t k = 0; k < (ranked.size() + 1) / 2; ++k) {
    const auto& w = answered[ranked[k].second];
    pooled.insert(pooled.end(), w.begin(), w.end());
  }
  return Percentile(std::move(pooled), p);
}

double QuietHalfRate(const std::vector<double>& window_rates) {
  if (window_rates.empty()) return 0.0;
  std::vector<double> sorted = window_rates;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  const size_t half = (sorted.size() + 1) / 2;
  double sum = 0.0;
  for (size_t k = 0; k < half; ++k) sum += sorted[k];
  return sum / double(half);
}

std::vector<double> WindowPercentiles(
    const std::vector<std::vector<double>>& windows, double p) {
  std::vector<double> out;
  for (const auto& w : windows) out.push_back(Percentile(w, p));
  return out;
}

size_t OddWindowCount(size_t capacity) {
  return capacity < 1 ? 1 : (capacity % 2 == 1 ? capacity : capacity - 1);
}

std::vector<double> WindowRates(
    const std::vector<std::pair<int64_t, uint64_t>>& events, int64_t start_ns,
    int64_t len_ns, size_t count) {
  std::vector<double> rates(count, 0.0);
  for (const auto& [t, weight] : events) {
    if (t < start_ns) continue;
    const size_t w = size_t((t - start_ns) / len_ns);
    if (w < count) rates[w] += double(weight);
  }
  for (double& r : rates) r /= double(len_ns) / 1e9;
  return rates;
}

double SubtractChildren(double parent, const std::vector<double>& children) {
  for (double c : children) parent -= c;
  return parent;
}

OpenLoopSchedule OpenLoopSchedule::Make(int64_t start_ns, double rate_per_s,
                                        double seconds) {
  OpenLoopSchedule s;
  s.start_ns = start_ns;
  s.interval_ns = int64_t(std::llround(1e9 / rate_per_s));
  s.count = size_t(std::floor(rate_per_s * seconds + 1e-9));
  return s;
}

DueTiming TimeFromDue(int64_t due_ns, int64_t sent_ns, int64_t done_ns) {
  DueTiming t;
  t.late_ms = double(std::max<int64_t>(0, sent_ns - due_ns)) / 1e6;
  t.latency_ms = double(done_ns - due_ns) / 1e6;
  return t;
}

double JsonSafe(double v) { return std::isfinite(v) ? v : 1e308; }

FailureCounts& FailureCounts::operator+=(const FailureCounts& o) {
  attempted += o.attempted;
  error_responses += o.error_responses;
  transport_failures += o.transport_failures;
  timeouts += o.timeouts;
  answer_mismatches += o.answer_mismatches;
  digest_mismatches += o.digest_mismatches;
  return *this;
}

}  // namespace perfbench
