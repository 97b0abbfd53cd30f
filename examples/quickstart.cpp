// Quickstart: the complete recpriv publish pipeline in ~80 lines.
//
//   1. build a table (public attributes + one sensitive attribute)
//   2. generalize NA values that have the same impact on SA   (paper §3.4)
//   3. audit (lambda, delta)-reconstruction privacy            (paper §4)
//   4. enforce it with the SPS algorithm                       (paper §5)
//   5. reconstruct aggregate statistics from the release       (paper §4.1)
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/examples/example_quickstart

#include <iostream>

#include "recpriv.h"

using namespace recpriv;  // for brevity in the example

int main() {
  // --- 1. a hospital table: D(Gender, Job, Disease), Disease sensitive ---
  datagen::SimpleDatasetSpec spec;
  spec.public_attributes = {"Gender", "Job"};
  spec.sensitive_attribute = "Disease";
  spec.sa_domain = {"flu", "diabetes", "hepatitis", "hiv", "asthma", "gout"};
  // Each job has its own disease profile, identical across genders (so the
  // chi-squared merge collapses Gender). Group sizes vary: the large
  // skewed groups will violate reconstruction privacy, the small ones
  // won't.
  const std::vector<std::string> jobs = {"eng",   "law",    "doctor",
                                         "nurse", "teacher", "clerk"};
  const std::vector<std::vector<double>> profiles = {
      {55, 12, 9, 4, 12, 8},  {20, 40, 10, 6, 10, 14}, {25, 15, 20, 12, 16, 12},
      {30, 14, 12, 10, 24, 10}, {38, 18, 8, 6, 22, 8},  {26, 30, 12, 8, 12, 12},
  };
  const std::vector<size_t> sizes = {5000, 3000, 800, 700, 2500, 300};
  for (size_t j = 0; j < jobs.size(); ++j) {
    for (const char* gender : {"male", "female"}) {
      spec.groups.push_back(
          datagen::GroupSpec{{gender, jobs[j]}, sizes[j], profiles[j]});
    }
  }
  Rng rng(7);
  table::Table data = *datagen::GenerateSimple(spec, rng);
  std::cout << "raw data: " << data.num_rows() << " records\n";

  // --- 2. merge NA values with the same impact on SA ---
  core::Generalization plan = *core::ComputeGeneralization(data);
  table::Table publishable = *core::ApplyGeneralization(plan, data);
  for (size_t a = 0; a + 1 < publishable.num_columns(); ++a) {
    std::cout << "  " << data.schema()->attribute(a).name << ": "
              << plan.merges[a].domain_before << " -> "
              << plan.merges[a].domain_after << " generalized values\n";
  }

  // --- 3. audit reconstruction privacy under plain perturbation ---
  core::PrivacyParams params;
  params.lambda = 0.3;      // tolerated relative reconstruction error
  params.delta = 0.3;       // minimum tail-probability bound
  params.retention_p = 0.5; // perturbation retention probability
  params.domain_m = publishable.schema()->sa_domain_size();

  const table::FlatGroupIndex index = table::FlatGroupIndex::Build(publishable);
  core::ViolationReport audit = core::AuditViolations(index, params);
  std::cout << "under plain uniform perturbation: " << audit.violating_groups
            << "/" << audit.num_groups << " personal groups would violate ("
            << FormatPercent(audit.RecordViolationRate())
            << " of records)\n";

  // --- 4. enforce with SPS ---
  core::SpsTableResult release = *core::SpsPerturbTable(params, publishable,
                                                        rng);
  std::cout << "SPS release: " << release.table.num_rows() << " records, "
            << release.stats.groups_sampled << " groups sampled\n";

  // --- 5. aggregate reconstruction still works ---
  // One release is one sample; the estimator is unbiased (Theorem 5), so
  // we show the single-release estimate and the mean over 20 releases.
  perturb::UniformPerturbation up{params.retention_p, params.domain_m};
  auto observed = release.table.SaHistogram();
  auto truth = publishable.SaHistogram();
  std::vector<double> mean_est(observed.size(), 0.0);
  const int releases = 20;
  for (int i = 0; i < releases; ++i) {
    auto another = *core::SpsPerturbTable(params, publishable, rng);
    auto hist = another.table.SaHistogram();
    for (size_t sa = 0; sa < hist.size(); ++sa) {
      mean_est[sa] += perturb::MleFrequency(up, hist[sa],
                                            another.table.num_rows());
    }
  }
  std::cout << "\nglobal disease distribution (true / one release / mean of "
            << releases << " releases):\n";
  for (size_t sa = 0; sa < observed.size(); ++sa) {
    double estimate = perturb::MleFrequency(up, observed[sa],
                                            release.table.num_rows());
    double actual = double(truth[sa]) / double(data.num_rows());
    std::cout << "  " << publishable.schema()->sensitive().domain.value(sa)
              << ": " << FormatPercent(actual) << " / "
              << FormatPercent(estimate) << " / "
              << FormatPercent(mean_est[sa] / releases) << "\n";
  }
  std::cout << "\npersonal reconstruction for any single group is capped at "
               "s_g trials,\nso no individual can be targeted with < "
            << FormatPercent(params.delta) << " error-bound confidence.\n";
  return 0;
}
