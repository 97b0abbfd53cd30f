// Shared timing harness for the bench/ binaries.
//
// A ratio gate that times its two arms once each, back to back, measures
// the host as much as the code: one slow stretch (a noisy neighbour, a
// frequency drop) lands on one arm and decides the verdict. The helpers
// here time the arms in interleaved rounds instead, so each round's ratio
// compares the arms under the same host conditions, and report the median
// per-round ratio with its min and max. Gates compare the median.

#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace recpriv::bench {

/// Median, min and max of a sample (all zero when it is empty).
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline Spread SpreadOf(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const double median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  return {median, v.front(), v.back()};
}

/// Per-round costs of a baseline and a candidate arm, and their ratios.
struct PairedRounds {
  std::vector<double> baseline;   ///< cost of the baseline arm per round
  std::vector<double> candidate;  ///< cost of the candidate arm per round
  std::vector<double> ratios;     ///< baseline / candidate per round

  /// The candidate's speedup over the baseline: median, min and max of the
  /// per-round ratios.
  Spread speedup() const { return SpreadOf(ratios); }
};

/// Runs `baseline` and `candidate` in `rounds` interleaved rounds. Each
/// call runs one arm over the same fixed work and returns its cost in a
/// unit common to both arms (seconds, ns per op). Round r runs both arms
/// back to back — baseline first on even rounds, candidate first on odd
/// ones, so neither arm always inherits the other's cache and allocator
/// state.
inline PairedRounds TimeInterleaved(size_t rounds,
                                    const std::function<double()>& baseline,
                                    const std::function<double()>& candidate) {
  PairedRounds out;
  for (size_t r = 0; r < rounds; ++r) {
    double b = 0.0;
    double c = 0.0;
    if (r % 2 == 0) {
      b = baseline();
      c = candidate();
    } else {
      c = candidate();
      b = baseline();
    }
    out.baseline.push_back(b);
    out.candidate.push_back(c);
    out.ratios.push_back(c > 0.0 ? b / c : 0.0);
  }
  return out;
}

}  // namespace recpriv::bench
