// Violation audit: the v_g / v_r measurements of the paper's Figures 2 & 4.
//
// v_g = fraction of personal groups violating (lambda,delta)-reconstruction
//       privacy under plain uniform perturbation;
// v_r = fraction of records contained in a violating group ("coverage":
//       every record of a violating group is exposed to the same accurate
//       personal reconstruction).

#pragma once

#include <cstdint>
#include <vector>

#include "core/reconstruction_privacy.h"
#include "table/flat_group_index.h"

namespace recpriv::core {

/// Result of auditing one dataset against one privacy specification.
struct ViolationReport {
  size_t num_groups = 0;
  size_t num_records = 0;
  size_t violating_groups = 0;
  uint64_t violating_records = 0;
  std::vector<size_t> violating_group_ids;  ///< group ids of the audited index

  /// v_g: fraction of groups violating.
  double GroupViolationRate() const {
    return num_groups == 0
               ? 0.0
               : static_cast<double>(violating_groups) /
                     static_cast<double>(num_groups);
  }
  /// v_r: fraction of records in violating groups.
  double RecordViolationRate() const {
    return num_records == 0
               ? 0.0
               : static_cast<double>(violating_records) /
                     static_cast<double>(num_records);
  }
};

/// Audits every personal group of `index` against `params` (Corollary 4).
/// This asks: if D* were produced by plain UP at params.retention_p, which
/// groups would admit an accurate personal reconstruction?
ViolationReport AuditViolations(const recpriv::table::FlatGroupIndex& index,
                                const PrivacyParams& params);

/// Audit over raw (group size, max frequency) pairs — used by the count-path
/// experiment harness.
ViolationReport AuditViolations(
    const std::vector<std::pair<uint64_t, double>>& group_profiles,
    const PrivacyParams& params);

}  // namespace recpriv::core
