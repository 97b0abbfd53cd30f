// Utility evaluation of perturbed data against a count-query pool
// (paper §6.1): est = |S*| F' over the matched aggregated personal groups,
// relative error |est - ans| / ans, averaged over the pool.

#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/reconstruction_privacy.h"
#include "core/sps.h"
#include "query/count_query.h"
#include "table/flat_group_index.h"

namespace recpriv::query {

/// Per-personal-group observed SA histograms of a perturbed release —
/// the count-level representation of D* (UP) or D*_2 (SPS). Parallel to
/// the group ids (NA-lexicographic order) of the FlatGroupIndex it was
/// produced from.
struct PerturbedGroups {
  std::vector<std::vector<uint64_t>> observed;
  /// |g*| per group (sum of the observed histogram).
  std::vector<uint64_t> sizes;
  /// SPS bookkeeping (zeros for plain UP).
  recpriv::core::SpsStats sps_stats;
};

/// Plain uniform perturbation of every group (the paper's UP baseline).
Result<PerturbedGroups> PerturbAllGroups(
    const recpriv::table::FlatGroupIndex& index, double retention_p, Rng& rng);

/// SPS of every group (the paper's proposed method).
Result<PerturbedGroups> SpsAllGroups(
    const recpriv::table::FlatGroupIndex& index,
    const recpriv::core::PrivacyParams& params, Rng& rng);

/// Outcome of evaluating one pool against one perturbed release.
struct EvaluationResult {
  double mean_relative_error = 0.0;
  size_t queries_evaluated = 0;
  /// Queries skipped because their true answer was zero (cannot happen for
  /// pools with a positive selectivity floor over the same index).
  size_t skipped_zero_answer = 0;
};

/// Evaluates the pool: for each query, ans from the raw histograms of
/// `index`, est = |S*| F' from `perturbed` restricted to the matching
/// groups (Lemma 2(ii) with the matched |S*|).
EvaluationResult EvaluateRelativeError(
    const std::vector<CountQuery>& pool,
    const recpriv::table::FlatGroupIndex& index,
    const PerturbedGroups& perturbed, double retention_p);

}  // namespace recpriv::query
