// l-diversity [4] over personal groups — one of the posterior/prior
// criteria the paper's introduction contrasts with reconstruction privacy
// ("consider NIR as a privacy violation ... limits the utility of learning
// statistical relationships").
//
// Implemented checks:
//  * distinct l-diversity — every group contains at least l distinct SA
//    values;
//  * entropy l-diversity — every group's SA entropy is at least log(l).
//
// These are *audits* over the raw (pre-perturbation) groups: the criteria
// family operates on published micro-data, so a table failing them would
// have to be generalized/suppressed/smoothed before publication.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "table/flat_group_index.h"

namespace recpriv::anon {

/// Audit outcome for one diversity criterion.
struct DiversityReport {
  size_t num_groups = 0;
  size_t failing_groups = 0;
  std::vector<size_t> failing_group_ids;
  /// The weakest group's statistic: min #distinct values (distinct check)
  /// or min entropy in nats (entropy check).
  double weakest = 0.0;

  bool satisfied() const { return failing_groups == 0; }
  double FailingFraction() const {
    return num_groups == 0 ? 0.0
                           : static_cast<double>(failing_groups) /
                                 static_cast<double>(num_groups);
  }
};

/// Distinct l-diversity: each group has >= l SA values with count > 0.
/// Requires l >= 1.
DiversityReport CheckDistinctLDiversity(
    const recpriv::table::FlatGroupIndex& index, size_t l);

/// Entropy l-diversity: each group's SA entropy >= ln(l). Requires l >= 1.
DiversityReport CheckEntropyLDiversity(
    const recpriv::table::FlatGroupIndex& index, double l);

/// Shannon entropy (nats) of a count histogram; 0 for empty histograms.
double HistogramEntropy(std::span<const uint64_t> counts);

}  // namespace recpriv::anon
