#include "core/sps.h"

#include <cmath>

#include "perturb/uniform_perturbation.h"
#include "table/flat_group_index.h"

namespace recpriv::core {

using recpriv::perturb::PerturbCounts;
using recpriv::perturb::PerturbValue;
using recpriv::perturb::UniformPerturbation;
using recpriv::table::FlatGroupIndex;
using recpriv::table::Table;

std::vector<uint64_t> FrequencyPreservingSample(
    std::span<const uint64_t> counts, double tau, Rng& rng) {
  std::vector<uint64_t> sample(counts.size(), 0);
  for (size_t i = 0; i < counts.size(); ++i) {
    const double target = static_cast<double>(counts[i]) * tau;
    uint64_t base = static_cast<uint64_t>(std::floor(target));
    if (rng.NextBernoulli(target - std::floor(target))) ++base;
    sample[i] = std::min<uint64_t>(base, counts[i]);
  }
  return sample;
}

std::vector<uint64_t> ScaleCounts(const std::vector<uint64_t>& observed,
                                  double tau_prime, Rng& rng) {
  std::vector<uint64_t> out(observed.size(), 0);
  const uint64_t whole = static_cast<uint64_t>(std::floor(tau_prime));
  const double frac = tau_prime - std::floor(tau_prime);
  for (size_t i = 0; i < observed.size(); ++i) {
    out[i] = observed[i] * whole + SampleBinomial(rng, observed[i], frac);
  }
  return out;
}

Result<SpsCountsResult> SpsPerturbGroupCounts(
    const PrivacyParams& params, std::span<const uint64_t> counts, Rng& rng) {
  RECPRIV_RETURN_NOT_OK(params.Validate());
  if (counts.size() != params.domain_m) {
    return Status::InvalidArgument("counts length must equal m");
  }
  const UniformPerturbation up{params.retention_p, params.domain_m};

  uint64_t group_size = 0;
  uint64_t max_count = 0;
  for (uint64_t c : counts) {
    group_size += c;
    max_count = std::max(max_count, c);
  }
  SpsCountsResult result;
  if (group_size == 0) {
    result.observed.assign(params.domain_m, 0);
    return result;
  }
  const double max_f = static_cast<double>(max_count) /
                       static_cast<double>(group_size);
  const double s_g = MaxGroupSize(params, max_f);

  if (static_cast<double>(group_size) <= s_g) {
    // Group already satisfies reconstruction privacy: plain UP, no sampling.
    RECPRIV_ASSIGN_OR_RETURN(result.observed, PerturbCounts(up, counts, rng));
    return result;
  }

  // 1. Sampling.
  const double tau = s_g / static_cast<double>(group_size);
  std::vector<uint64_t> g1 = FrequencyPreservingSample(counts, tau, rng);
  uint64_t sample_size = 0;
  for (uint64_t c : g1) sample_size += c;
  result.sampled = true;
  result.sample_size = sample_size;
  if (sample_size == 0) {
    // Degenerate: s_g < 1 and every Bernoulli came up empty. Nothing can be
    // published for this group without violating privacy.
    result.observed.assign(params.domain_m, 0);
    return result;
  }

  // 2. Perturbing.
  RECPRIV_ASSIGN_OR_RETURN(std::vector<uint64_t> g1_star,
                           PerturbCounts(up, g1, rng));

  // 3. Scaling back to the original group size.
  const double tau_prime = static_cast<double>(group_size) /
                           static_cast<double>(sample_size);
  result.observed = ScaleCounts(g1_star, tau_prime, rng);
  return result;
}

Result<SpsTableResult> SpsPerturbTable(const PrivacyParams& params,
                                       const Table& input, Rng& rng) {
  RECPRIV_RETURN_NOT_OK(params.Validate());
  if (params.domain_m != input.schema()->sa_domain_size()) {
    return Status::InvalidArgument(
        "params.domain_m does not match table SA domain size");
  }
  const UniformPerturbation up{params.retention_p, params.domain_m};
  const size_t sa_col = input.schema()->sensitive_index();
  const size_t num_attrs = input.schema()->num_attributes();

  // Preprocessing: sort into personal groups (one O(|D| log |D|) pass).
  const FlatGroupIndex index = FlatGroupIndex::Build(input);

  SpsTableResult result{Table(input.schema()), SpsStats{}};
  result.stats.num_groups = index.num_groups();
  result.stats.records_in = input.num_rows();
  result.table.Reserve(input.num_rows());

  std::vector<uint32_t> row(num_attrs);
  auto emit = [&](size_t src_row, uint32_t perturbed_sa, uint64_t copies) {
    if (copies == 0) return;
    for (size_t c = 0; c < num_attrs; ++c) row[c] = input.at(src_row, c);
    row[sa_col] = perturbed_sa;
    for (uint64_t k = 0; k < copies; ++k) {
      result.table.AppendRowUnchecked(row);
    }
    result.stats.records_out += copies;
  };

  for (size_t g = 0; g < index.num_groups(); ++g) {
    const uint64_t size = index.group_size(g);
    const double s_g = MaxGroupSize(params, index.MaxFrequency(g));
    if (static_cast<double>(size) <= s_g) {
      // No sampling: perturb every record in place, in ascending row order.
      for (uint32_t r : index.rows(g)) {
        emit(r, PerturbValue(up, input.at(r, sa_col), rng), 1);
      }
      continue;
    }
    ++result.stats.groups_sampled;

    // 1. Sampling: per SA value take floor(c tau) + Bernoulli(frac) records.
    // Records within a (group, SA value) bucket are identical, so taking a
    // prefix of the bucket is "pick any".
    const double tau = s_g / static_cast<double>(size);
    std::vector<std::vector<uint32_t>> buckets(params.domain_m);
    for (uint32_t r : index.rows(g)) buckets[input.at(r, sa_col)].push_back(r);

    std::vector<uint32_t> sampled_rows;
    for (const auto& bucket : buckets) {
      const double target = static_cast<double>(bucket.size()) * tau;
      uint64_t take = static_cast<uint64_t>(std::floor(target));
      if (rng.NextBernoulli(target - std::floor(target))) ++take;
      take = std::min<uint64_t>(take, bucket.size());
      for (uint64_t k = 0; k < take; ++k) sampled_rows.push_back(bucket[k]);
    }
    result.stats.records_sampled += sampled_rows.size();
    if (sampled_rows.empty()) continue;  // degenerate tiny s_g

    // 2+3. Perturb each sampled record, then scale by duplication. The
    // single fused scan the paper describes: sample -> perturb -> duplicate.
    const double tau_prime = static_cast<double>(size) /
                             static_cast<double>(sampled_rows.size());
    const uint64_t whole = static_cast<uint64_t>(std::floor(tau_prime));
    const double frac = tau_prime - std::floor(tau_prime);
    for (uint32_t r : sampled_rows) {
      uint32_t perturbed = PerturbValue(up, input.at(r, sa_col), rng);
      uint64_t copies = whole + (rng.NextBernoulli(frac) ? 1 : 0);
      emit(r, perturbed, copies);
    }
  }
  return result;
}

}  // namespace recpriv::core
