// t-closeness [5] over personal groups, plus an enforcement-by-smoothing
// operator. t-closeness demands that every group's SA distribution be
// within distance t of the global SA distribution — the paper's example of
// a criterion that "requires to smooth the distribution in the published
// data" and thereby destroys the very statistical relationships an analyst
// wants (e.g. "smokers tend to have lung cancer" is EXACTLY a group
// distribution that deviates from the global one).
//
// For categorical SA with no ground distance, the EMD of [5] reduces to
// total variation distance: TV(P, Q) = (1/2) sum_i |P_i - Q_i|.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "table/flat_group_index.h"
#include "table/table.h"

namespace recpriv::anon {

/// Audit outcome of a t-closeness check.
struct TClosenessReport {
  size_t num_groups = 0;
  size_t failing_groups = 0;
  std::vector<size_t> failing_group_ids;
  double max_distance = 0.0;  ///< worst group's TV distance to global

  bool satisfied() const { return failing_groups == 0; }
};

/// Total variation distance between two count histograms (as fractions).
double TotalVariationDistance(std::span<const uint64_t> counts,
                              std::span<const uint64_t> reference);

/// Checks t-closeness of every personal group against the global SA
/// distribution. Requires t in [0, 1].
TClosenessReport CheckTCloseness(const recpriv::table::FlatGroupIndex& index,
                                 double t);

/// Enforces t-closeness by SMOOTHING: for each failing group, blends its SA
/// distribution toward the global one just enough to reach distance t, and
/// rewrites the group's SA values to realize the blended distribution
/// (largest-remainder apportionment; which records flip is random).
/// Returns the smoothed table. This is the utility-destroying alternative
/// the paper argues against; the bench suite quantifies the damage.
Result<recpriv::table::Table> EnforceTClosenessBySmoothing(
    const recpriv::table::Table& data, double t, Rng& rng);

}  // namespace recpriv::anon
