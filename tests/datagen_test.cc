// Tests for the synthetic data generators: calibration of ADULT, structure
// of CENSUS, the effective-class machinery, and the simple builder.

#include <gtest/gtest.h>

#include <cmath>

#include "datagen/adult.h"
#include "datagen/census.h"
#include "datagen/effective_model.h"
#include "datagen/simple.h"
#include "stats/chi_squared.h"
#include "table/flat_group_index.h"
#include "table/predicate.h"

namespace recpriv::datagen {
namespace {

using recpriv::table::FlatGroupIndex;
using recpriv::table::Predicate;
using recpriv::table::Table;

TEST(ClassedAttributeTest, BuildAndSample) {
  auto attr = ClassedAttribute::Make(
      "Job", {EffectiveClass{{"eng", "dev"}, {3.0, 1.0}},
              EffectiveClass{{"law"}, {1.0}}});
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->num_classes(), 2u);
  EXPECT_EQ(attr->num_values(), 3u);
  EXPECT_EQ(attr->ClassOf(0), 0u);
  EXPECT_EQ(attr->ClassOf(2), 1u);
  EXPECT_NEAR(attr->WithinClassShare(0), 0.75, 1e-12);
  EXPECT_NEAR(attr->WithinClassShare(2), 1.0, 1e-12);

  Rng rng(3);
  std::vector<int> hist(3, 0);
  for (int i = 0; i < 40000; ++i) ++hist[attr->SampleValue(0, rng)];
  EXPECT_EQ(hist[2], 0);  // class 0 never yields law
  EXPECT_NEAR(hist[0] / 40000.0, 0.75, 0.01);
}

TEST(ClassedAttributeTest, Validation) {
  EXPECT_FALSE(ClassedAttribute::Make("A", {}).ok());
  EXPECT_FALSE(
      ClassedAttribute::Make("A", {EffectiveClass{{"x"}, {1.0, 2.0}}}).ok());
  EXPECT_FALSE(
      ClassedAttribute::Make("A", {EffectiveClass{{"x"}, {0.0}}}).ok());
  EXPECT_FALSE(ClassedAttribute::Make(
                   "A", {EffectiveClass{{"x"}, {1.0}},
                         EffectiveClass{{"x"}, {1.0}}})
                   .ok());
}

TEST(AdultTest, SchemaShape) {
  Rng rng(1);
  Table t = *GenerateAdult({.num_records = 2000}, rng);
  EXPECT_EQ(t.num_rows(), 2000u);
  ASSERT_EQ(t.num_columns(), 5u);
  EXPECT_EQ(t.schema()->attribute(0).name, "Education");
  EXPECT_EQ(t.schema()->attribute(0).domain.size(), 16u);
  EXPECT_EQ(t.schema()->attribute(1).domain.size(), 14u);
  EXPECT_EQ(t.schema()->attribute(2).domain.size(), 5u);
  EXPECT_EQ(t.schema()->attribute(3).domain.size(), 2u);
  EXPECT_EQ(t.schema()->sensitive().name, "Income");
  EXPECT_EQ(t.schema()->sa_domain_size(), 2u);
}

TEST(AdultTest, CalibrationTargets) {
  AdultModelInfo info = GetAdultModelInfo({});
  // Overall >50K rate calibrated to the UCI value.
  EXPECT_NEAR(info.expected_high_income, 0.2478, 1e-4);
  // Example-1 cell: support near 500, confidence near 0.84.
  EXPECT_NEAR(info.headline_expected_support, 500.0, 60.0);
  EXPECT_NEAR(info.headline_confidence, 0.84, 0.06);
}

TEST(AdultTest, EmpiricalIncomeRateMatchesCalibration) {
  Rng rng(2015);
  Table t = *GenerateAdult({}, rng);
  auto hist = t.SaHistogram();
  const double rate = double(hist[1]) / double(t.num_rows());
  EXPECT_NEAR(rate, 0.2478, 0.01);
}

TEST(AdultTest, HeadlineRuleHoldsEmpirically) {
  Rng rng(2015);
  Table t = *GenerateAdult({}, rng);
  auto pred = *Predicate::FromBindings(
      *t.schema(), {{"Education", "Prof-school"},
                    {"Occupation", "Prof-specialty"},
                    {"Race", "White"},
                    {"Gender", "Male"}});
  auto rows = pred.MatchingRows(t);
  EXPECT_GT(rows.size(), 300u);
  EXPECT_LT(rows.size(), 750u);
  uint64_t high = 0;
  for (size_t r : rows) high += t.at(r, 4) == 1;
  const double conf = double(high) / double(rows.size());
  EXPECT_GT(conf, 0.75);  // far above the 24.78% base rate
}

TEST(AdultTest, GenderGapInIncome) {
  // The model gives males a higher conditional rate everywhere.
  Rng rng(10);
  Table t = *GenerateAdult({.num_records = 30000}, rng);
  uint64_t male_n = 0, male_hi = 0, female_n = 0, female_hi = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (t.at(r, 3) == 0) {
      ++male_n;
      male_hi += t.at(r, 4);
    } else {
      ++female_n;
      female_hi += t.at(r, 4);
    }
  }
  EXPECT_GT(double(male_hi) / male_n, double(female_hi) / female_n);
}

TEST(AdultTest, RejectsZeroRecords) {
  Rng rng(1);
  EXPECT_FALSE(GenerateAdult({.num_records = 0}, rng).ok());
}

TEST(CensusTest, SchemaShape) {
  Rng rng(4);
  Table t = *GenerateCensus({.num_records = 5000}, rng);
  ASSERT_EQ(t.num_columns(), 6u);
  EXPECT_EQ(t.schema()->attribute(0).name, "Age");
  EXPECT_EQ(t.schema()->attribute(0).domain.size(), 77u);
  EXPECT_EQ(t.schema()->attribute(1).domain.size(), 2u);
  EXPECT_EQ(t.schema()->attribute(2).domain.size(), 14u);
  EXPECT_EQ(t.schema()->attribute(3).domain.size(), 6u);
  EXPECT_EQ(t.schema()->attribute(4).domain.size(), 9u);
  EXPECT_EQ(t.schema()->sensitive().name, "Occupation");
  EXPECT_EQ(t.schema()->sa_domain_size(), 50u);
}

TEST(CensusTest, OccupationsAreBalanced) {
  Rng rng(6);
  Table t = *GenerateCensus({.num_records = 100000}, rng);
  auto hist = t.SaHistogram();
  // "Balanced": every occupation within a factor ~4 of uniform.
  for (uint64_t c : hist) {
    EXPECT_GT(c, 100000 / 50 / 4);
    EXPECT_LT(c, 100000 / 50 * 4);
  }
}

TEST(CensusTest, AgeIndependentOfOccupation) {
  // Correlation check: occupation histogram conditioned on young vs old
  // should match within sampling noise (chi-squared well under critical).
  Rng rng(8);
  Table t = *GenerateCensus({.num_records = 200000}, rng);
  std::vector<uint64_t> young(50, 0), old(50, 0);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    (t.at(r, 0) < 38 ? young : old)[t.at(r, 5)]++;
  }
  auto test = recpriv::stats::TwoSampleBinnedChiSquared(young, old);
  ASSERT_TRUE(test.ok());
  EXPECT_FALSE(test->reject_null);
}

TEST(CensusTest, ModelSeedStableAcrossSizes) {
  // The same underlying population: per-combo occupation distributions are
  // identical across dataset sizes (the paper samples 100K..500K from one
  // data set). Check a marginal: P(occ | gender=male) across two sizes.
  auto dist = [](size_t n, uint64_t seed) {
    Rng rng(seed);
    Table t = *GenerateCensus({.num_records = n}, rng);
    std::vector<double> d(50, 0.0);
    size_t males = 0;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (t.at(r, 1) == 0) {
        ++males;
        d[t.at(r, 5)] += 1.0;
      }
    }
    for (double& v : d) v /= double(males);
    return d;
  };
  auto small = dist(60000, 1);
  auto large = dist(240000, 2);
  for (size_t o = 0; o < 50; ++o) {
    EXPECT_NEAR(small[o], large[o], 0.006) << "occupation " << o;
  }
}

TEST(CensusTest, Validation) {
  Rng rng(1);
  EXPECT_FALSE(GenerateCensus({.num_records = 0}, rng).ok());
  CensusConfig bad;
  bad.tilt_alpha = -0.1;
  EXPECT_FALSE(GenerateCensus(bad, rng).ok());
}

TEST(SimpleTest, ExactApportionment) {
  SimpleDatasetSpec spec;
  spec.public_attributes = {"G"};
  spec.sensitive_attribute = "S";
  spec.sa_domain = {"a", "b", "c"};
  spec.groups.push_back(GroupSpec{{"x"}, 10, {1.0, 1.0, 2.0}});
  Table t = *GenerateSimpleExact(spec);
  EXPECT_EQ(t.num_rows(), 10u);
  auto hist = t.SaHistogram();
  EXPECT_EQ(hist[2], 5u);
  EXPECT_EQ(hist[0] + hist[1], 5u);
}

TEST(SimpleTest, SampledCountsMatchWeights) {
  SimpleDatasetSpec spec;
  spec.public_attributes = {"G"};
  spec.sensitive_attribute = "S";
  spec.sa_domain = {"a", "b"};
  spec.groups.push_back(GroupSpec{{"x"}, 50000, {3.0, 1.0}});
  Rng rng(77);
  Table t = *GenerateSimple(spec, rng);
  auto hist = t.SaHistogram();
  EXPECT_NEAR(double(hist[0]) / 50000.0, 0.75, 0.01);
}

TEST(SimpleTest, Validation) {
  SimpleDatasetSpec spec;
  spec.public_attributes = {"G"};
  spec.sensitive_attribute = "S";
  spec.sa_domain = {"only-one"};
  EXPECT_FALSE(GenerateSimpleExact(spec).ok());

  spec.sa_domain = {"a", "b"};
  spec.groups.push_back(GroupSpec{{"x", "extra"}, 5, {1.0, 1.0}});
  EXPECT_FALSE(GenerateSimpleExact(spec).ok());

  spec.groups.clear();
  spec.groups.push_back(GroupSpec{{"x"}, 5, {0.0, 0.0}});
  EXPECT_FALSE(GenerateSimpleExact(spec).ok());
}

TEST(SimpleTest, MultipleGroupsFormIndex) {
  SimpleDatasetSpec spec;
  spec.public_attributes = {"G", "H"};
  spec.sensitive_attribute = "S";
  spec.sa_domain = {"a", "b"};
  spec.groups.push_back(GroupSpec{{"x", "1"}, 10, {1.0, 0.0}});
  spec.groups.push_back(GroupSpec{{"y", "2"}, 20, {0.0, 1.0}});
  Table t = *GenerateSimpleExact(spec);
  FlatGroupIndex idx = FlatGroupIndex::Build(t);
  EXPECT_EQ(idx.num_groups(), 2u);
  EXPECT_EQ(idx.num_records(), 30u);
}

}  // namespace
}  // namespace recpriv::datagen
