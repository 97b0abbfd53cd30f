// Integration tests: the full publish pipeline of the paper —
// generate -> generalize -> audit -> enforce (SPS) -> reconstruct -> query —
// exercised end-to-end on small but realistic datasets.

#include <gtest/gtest.h>

#include <optional>

#include "core/generalization.h"
#include "core/reconstruction_privacy.h"
#include "core/sps.h"
#include "core/violation.h"
#include "datagen/adult.h"
#include "datagen/census.h"
#include "exp/experiment.h"
#include "perturb/mle.h"
#include "perturb/uniform_perturbation.h"
#include "query/evaluation.h"
#include "query/query_pool.h"
#include "table/flat_group_index.h"

namespace recpriv {
namespace {

using core::PrivacyParams;
using exp::PreparedDataset;
using table::FlatGroupIndex;
using table::Table;

TEST(IntegrationTest, AdultPipelineEndToEnd) {
  auto ds = exp::PrepareAdult(8000, 300, 2015);
  ASSERT_TRUE(ds.ok()) << ds.status();

  // Generalization shrinks the group space.
  EXPECT_LT(ds->index.num_groups(), ds->raw_index.num_groups());
  EXPECT_EQ(ds->index.num_records(), 8000u);
  EXPECT_EQ(ds->pool.size(), 300u);

  // Violations exist under plain UP on the generalized groups.
  PrivacyParams params = exp::DefaultParams(2);
  core::ViolationReport before = core::AuditViolations(ds->index, params);
  EXPECT_GT(before.violating_groups, 0u);

  // SPS releases a table of roughly the same size, with sampled groups.
  Rng rng(1);
  auto sps = core::SpsPerturbTable(params, ds->generalized, rng);
  ASSERT_TRUE(sps.ok());
  EXPECT_EQ(sps->stats.groups_sampled, before.violating_groups);
  EXPECT_NEAR(double(sps->table.num_rows()), 8000.0, 0.15 * 8000.0);
}

TEST(IntegrationTest, SpsOutputsSampledWithinCapEverywhere) {
  auto ds = exp::PrepareAdult(6000, 0, 7);
  ASSERT_TRUE(ds.ok());
  PrivacyParams params = exp::DefaultParams(2);
  Rng rng(3);
  // Count-level run over every generalized personal group: each sampled
  // group's trial count must respect Eq. (10) — Theorem 4's premise.
  for (size_t g = 0; g < ds->index.num_groups(); ++g) {
    auto r = core::SpsPerturbGroupCounts(params, ds->index.sa_counts(g), rng);
    ASSERT_TRUE(r.ok());
    if (r->sampled) {
      const double s_g =
          core::MaxGroupSize(params, ds->index.MaxFrequency(g));
      EXPECT_LE(double(r->sample_size), s_g + double(params.domain_m));
    }
  }
}

TEST(IntegrationTest, AggregateReconstructionStaysAccurate) {
  // Theorem 5 in action: aggregate over ALL groups, reconstruct the global
  // SA distribution from the SPS release, compare with truth.
  auto ds = exp::PrepareAdult(20000, 0, 2015);
  ASSERT_TRUE(ds.ok());
  PrivacyParams params = exp::DefaultParams(2);
  const perturb::UniformPerturbation up{params.retention_p, params.domain_m};

  auto truth = ds->generalized.SaHistogram();
  const double true_f1 = double(truth[1]) / 20000.0;

  Rng rng(11);
  double sum = 0.0;
  const int runs = 30;
  for (int i = 0; i < runs; ++i) {
    auto sps = *query::SpsAllGroups(ds->index, params, rng);
    uint64_t o1 = 0, total = 0;
    for (size_t gi = 0; gi < sps.observed.size(); ++gi) {
      o1 += sps.observed[gi][1];
      total += sps.sizes[gi];
    }
    sum += perturb::MleFrequency(up, o1, total);
  }
  EXPECT_NEAR(sum / runs, true_f1, 0.02);
}

TEST(IntegrationTest, PersonalReconstructionDegradedBySps) {
  // The split-role principle measured directly: pick the largest violating
  // group; the MLE error for its top SA value is much worse under SPS than
  // under plain UP.
  auto ds = exp::PrepareAdult(30000, 0, 2015);
  ASSERT_TRUE(ds.ok());
  PrivacyParams params = exp::DefaultParams(2);
  const perturb::UniformPerturbation up{params.retention_p, params.domain_m};

  const FlatGroupIndex& idx = ds->index;
  std::optional<size_t> target;
  for (size_t g = 0; g < idx.num_groups(); ++g) {
    if (!core::GroupIsPrivate(params, idx.group_size(g),
                              idx.MaxFrequency(g))) {
      if (!target || idx.group_size(g) > idx.group_size(*target)) target = g;
    }
  }
  ASSERT_TRUE(target.has_value()) << "no violating group found";
  const auto target_counts = idx.sa_counts(*target);
  const uint64_t target_size = idx.group_size(*target);
  const double f = idx.MaxFrequency(*target);
  size_t sa = 0;
  for (size_t i = 0; i < target_counts.size(); ++i) {
    if (idx.Frequency(*target, i) == f) sa = i;
  }

  Rng rng(13);
  const int runs = 200;
  double up_sq = 0.0, sps_sq = 0.0;
  for (int i = 0; i < runs; ++i) {
    auto up_obs = *perturb::PerturbCounts(up, target_counts, rng);
    double up_est = perturb::MleFrequency(up, up_obs[sa], target_size);
    up_sq += (up_est - f) * (up_est - f);

    auto sps_r = *core::SpsPerturbGroupCounts(params, target_counts, rng);
    uint64_t total = 0;
    for (uint64_t c : sps_r.observed) total += c;
    ASSERT_GT(total, 0u);
    double sps_est = perturb::MleFrequency(up, sps_r.observed[sa], total);
    sps_sq += (sps_est - f) * (sps_est - f);
  }
  // SPS inflates the personal-reconstruction MSE substantially.
  EXPECT_GT(sps_sq, 3.0 * up_sq);
}

TEST(IntegrationTest, CensusPipelineSmall) {
  auto ds = exp::PrepareCensus(40000, 300, 2015);
  ASSERT_TRUE(ds.ok()) << ds.status();
  // Age collapses; the generalized group space is near 2*14*6*9.
  EXPECT_EQ(ds->plan.merges[0].domain_after, 1u);
  EXPECT_LE(ds->index.num_groups(), 1512u);
  EXPECT_GT(ds->index.num_groups(), 400u);

  PrivacyParams params = exp::DefaultParams(50);
  Rng rng(5);
  auto point = exp::MeasureRelativeError(ds->index, ds->pool, params, 3, rng);
  ASSERT_TRUE(point.ok());
  // UP is accurate; SPS stays close (the paper's CENSUS utility claim).
  EXPECT_LT(point->up.mean, 0.5);
  EXPECT_GE(point->sps.mean, point->up.mean * 0.8);
}

TEST(IntegrationTest, RecordAndCountEvaluationsAgree) {
  // The count-level fast path used by the sweep harness must agree with a
  // record-level SPS release evaluated the long way.
  auto ds = exp::PrepareAdult(10000, 200, 42);
  ASSERT_TRUE(ds.ok());
  PrivacyParams params = exp::DefaultParams(2);
  const double p = params.retention_p;

  // Record path: materialize D*2, index it, and build PerturbedGroups from
  // its observed histograms keyed by the same NA codes.
  Rng rng_rec(21);
  auto sps_table = *core::SpsPerturbTable(params, ds->generalized, rng_rec);
  FlatGroupIndex out_idx = FlatGroupIndex::Build(sps_table.table);
  query::PerturbedGroups from_records;
  from_records.observed.resize(ds->index.num_groups());
  from_records.sizes.resize(ds->index.num_groups(), 0);
  for (size_t gi = 0; gi < ds->index.num_groups(); ++gi) {
    from_records.observed[gi].assign(params.domain_m, 0);
    auto found = out_idx.FindGroup(ds->index.na_codes(gi));
    if (found.ok()) {
      const auto counts = out_idx.sa_counts(*found);
      from_records.observed[gi].assign(counts.begin(), counts.end());
      from_records.sizes[gi] = out_idx.group_size(*found);
    }
  }
  auto rec_result =
      query::EvaluateRelativeError(ds->pool, ds->index, from_records, p);

  // Count path, averaged over a few runs to smooth run-to-run noise.
  Rng rng_cnt(22);
  double count_err = 0.0;
  const int runs = 5;
  for (int i = 0; i < runs; ++i) {
    auto sps_counts = *query::SpsAllGroups(ds->index, params, rng_cnt);
    count_err += query::EvaluateRelativeError(ds->pool, ds->index,
                                              sps_counts, p)
                     .mean_relative_error;
  }
  count_err /= runs;
  EXPECT_NEAR(rec_result.mean_relative_error, count_err,
              0.5 * count_err + 0.02);
}

TEST(IntegrationTest, EnvOverridesAreHonoured) {
  EXPECT_EQ(exp::NumRuns(10), 10u);  // no env var in tests
  EXPECT_FALSE(exp::FullScale());
  auto params = exp::DefaultParams(7);
  EXPECT_EQ(params.domain_m, 7u);
  EXPECT_DOUBLE_EQ(params.lambda, 0.3);
  EXPECT_DOUBLE_EQ(params.delta, 0.3);
  EXPECT_DOUBLE_EQ(params.retention_p, 0.5);
}

}  // namespace
}  // namespace recpriv
