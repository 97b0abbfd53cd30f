#include "anon/tcloseness.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace recpriv::anon {

using recpriv::table::FlatGroupIndex;
using recpriv::table::Table;

double TotalVariationDistance(std::span<const uint64_t> counts,
                              std::span<const uint64_t> reference) {
  RECPRIV_CHECK(counts.size() == reference.size())
      << "TV distance needs equal-length histograms";
  uint64_t total_a = 0, total_b = 0;
  for (uint64_t c : counts) total_a += c;
  for (uint64_t c : reference) total_b += c;
  if (total_a == 0 || total_b == 0) return 0.0;
  double distance = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    distance += std::abs(double(counts[i]) / double(total_a) -
                         double(reference[i]) / double(total_b));
  }
  return distance / 2.0;
}

namespace {

/// Global SA histogram: the sum of the group histograms.
std::vector<uint64_t> GlobalHistogram(const FlatGroupIndex& index) {
  std::vector<uint64_t> global(index.sa_domain(), 0);
  for (size_t g = 0; g < index.num_groups(); ++g) {
    const auto counts = index.sa_counts(g);
    for (size_t i = 0; i < global.size(); ++i) global[i] += counts[i];
  }
  return global;
}

}  // namespace

TClosenessReport CheckTCloseness(const FlatGroupIndex& index, double t) {
  RECPRIV_CHECK(t >= 0.0 && t <= 1.0) << "t must be in [0,1]";
  TClosenessReport report;
  report.num_groups = index.num_groups();
  const std::vector<uint64_t> global = GlobalHistogram(index);
  for (size_t gi = 0; gi < index.num_groups(); ++gi) {
    const double d = TotalVariationDistance(index.sa_counts(gi), global);
    report.max_distance = std::max(report.max_distance, d);
    if (d > t) {
      ++report.failing_groups;
      report.failing_group_ids.push_back(gi);
    }
  }
  return report;
}

namespace {

/// One smoothing pass: blends every group whose distance to the CURRENT
/// global distribution exceeds t. Returns the number of groups changed.
size_t SmoothingPass(Table& out, double t, bool force_full, Rng& rng) {
  const size_t m = out.schema()->sa_domain_size();
  const size_t sa_col = out.schema()->sensitive_index();
  const FlatGroupIndex index = FlatGroupIndex::Build(out);

  const std::vector<uint64_t> global = GlobalHistogram(index);
  std::vector<double> global_freq(m, 0.0);
  const double total = double(out.num_rows());
  for (size_t i = 0; i < m; ++i) global_freq[i] = double(global[i]) / total;

  size_t changed = 0;
  for (size_t g = 0; g < index.num_groups(); ++g) {
    const auto counts = index.sa_counts(g);
    const uint64_t group_size = index.group_size(g);
    const double d = TotalVariationDistance(counts, global);
    if (d <= t || group_size == 0) continue;
    ++changed;
    // Blend: new = (1-alpha) group + alpha global with alpha = 1 - t/d,
    // which puts the blended distribution at TV distance exactly t
    // (TV is a metric induced by an L1 norm, so it scales linearly under
    // convex combination toward the reference).
    // force_full blends all the way to the global distribution — used in
    // late passes when integer rounding of small groups blocks convergence
    // at intermediate blends.
    const double alpha = force_full ? 1.0 : 1.0 - t / d;
    const double size = double(group_size);
    std::vector<double> blended(m);
    for (size_t i = 0; i < m; ++i) {
      blended[i] = (1.0 - alpha) * double(counts[i]) / size +
                   alpha * global_freq[i];
    }
    // Largest-remainder apportionment of |g| records to the blended
    // distribution.
    std::vector<uint64_t> target(m, 0);
    std::vector<std::pair<double, size_t>> remainders;
    uint64_t assigned = 0;
    for (size_t i = 0; i < m; ++i) {
      const double exact = blended[i] * size;
      target[i] = uint64_t(std::floor(exact));
      assigned += target[i];
      remainders.emplace_back(exact - std::floor(exact), i);
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (size_t i = 0; assigned < group_size; ++i, ++assigned) {
      ++target[remainders[i % m].second];
    }
    // Rewrite the group's SA column: shuffle row order so which records
    // flip is random, then assign values to match `target`.
    std::vector<uint32_t> rows(index.rows(g).begin(), index.rows(g).end());
    Shuffle(rng, rows);
    size_t cursor = 0;
    for (size_t sa = 0; sa < m; ++sa) {
      for (uint64_t k = 0; k < target[sa]; ++k) {
        out.set(rows[cursor++], sa_col, uint32_t(sa));
      }
    }
    RECPRIV_DCHECK(cursor == rows.size());
  }
  return changed;
}

}  // namespace

Result<Table> EnforceTClosenessBySmoothing(const Table& data, double t,
                                           Rng& rng) {
  if (t < 0.0 || t > 1.0) {
    return Status::InvalidArgument("t must be in [0,1]");
  }
  Table out = data.Clone();
  // Blending a group toward the global distribution also shifts the global
  // distribution, so one pass can leave residual violations; iterate to a
  // fixpoint (each pass contracts the per-group distances, convergence is
  // fast in practice). Rounding can leave a group a hair over t, so allow a
  // small slack on the final check.
  // Integer apportionment of small groups cannot hit t exactly, and
  // late-stage oscillation is possible (smoothing one group moves the
  // global reference of the others), so accept a small slack.
  const double slack = 0.01;
  for (int pass = 0; pass < 50; ++pass) {
    if (CheckTCloseness(FlatGroupIndex::Build(out), std::min(1.0, t + slack))
            .satisfied()) {
      return out;
    }
    SmoothingPass(out, t, /*force_full=*/pass >= 25, rng);
  }
  TClosenessReport report =
      CheckTCloseness(FlatGroupIndex::Build(out), std::min(1.0, t + slack));
  if (!report.satisfied()) {
    return Status::Internal(
        "t-closeness smoothing did not converge; worst distance " +
        std::to_string(report.max_distance));
  }
  return out;
}

}  // namespace recpriv::anon
