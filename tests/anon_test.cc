// Tests for the l-diversity / t-closeness audits and the smoothing
// enforcement operator.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "anon/ldiversity.h"
#include "anon/tcloseness.h"
#include "common/random.h"
#include "datagen/simple.h"
#include "table/flat_group_index.h"

namespace recpriv::anon {
namespace {

using recpriv::datagen::GroupSpec;
using recpriv::datagen::SimpleDatasetSpec;
using recpriv::table::FlatGroupIndex;
using recpriv::table::Table;

Table MakeTable() {
  SimpleDatasetSpec spec;
  spec.public_attributes = {"Job"};
  spec.sensitive_attribute = "Disease";
  spec.sa_domain = {"flu", "hiv", "bc"};
  // eng: diverse; law: two values; doc: single value (worst case).
  spec.groups.push_back(GroupSpec{{"eng"}, 900, {50, 30, 20}});
  spec.groups.push_back(GroupSpec{{"law"}, 600, {70, 30, 0}});
  spec.groups.push_back(GroupSpec{{"doc"}, 300, {100, 0, 0}});
  return *recpriv::datagen::GenerateSimpleExact(spec);
}

using Counts = std::vector<uint64_t>;

TEST(HistogramEntropyTest, KnownValues) {
  EXPECT_DOUBLE_EQ(HistogramEntropy(Counts{0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(HistogramEntropy(Counts{10, 0}), 0.0);
  EXPECT_NEAR(HistogramEntropy(Counts{5, 5}), std::log(2.0), 1e-12);
  EXPECT_NEAR(HistogramEntropy(Counts{1, 1, 1, 1}), std::log(4.0), 1e-12);
}

TEST(LDiversityTest, DistinctCheck) {
  FlatGroupIndex idx = FlatGroupIndex::Build(MakeTable());
  auto l1 = CheckDistinctLDiversity(idx, 1);
  EXPECT_TRUE(l1.satisfied());
  auto l2 = CheckDistinctLDiversity(idx, 2);
  EXPECT_EQ(l2.failing_groups, 1u);  // doc
  auto l3 = CheckDistinctLDiversity(idx, 3);
  EXPECT_EQ(l3.failing_groups, 2u);  // law + doc
  EXPECT_EQ(l3.weakest, 1.0);
  EXPECT_NEAR(l3.FailingFraction(), 2.0 / 3.0, 1e-12);
}

TEST(LDiversityTest, EntropyCheck) {
  FlatGroupIndex idx = FlatGroupIndex::Build(MakeTable());
  // doc has entropy 0 < ln(1.01); law has entropy H(0.7,0.3) ~ 0.611.
  auto strict = CheckEntropyLDiversity(idx, 2.0);  // threshold ln 2 ~ 0.693
  EXPECT_EQ(strict.failing_groups, 2u);
  auto loose = CheckEntropyLDiversity(idx, 1.5);  // threshold ~ 0.405
  EXPECT_EQ(loose.failing_groups, 1u);  // only doc
  EXPECT_NEAR(loose.weakest, 0.0, 1e-12);
}

TEST(TotalVariationTest, KnownValues) {
  EXPECT_DOUBLE_EQ(TotalVariationDistance(Counts{5, 5}, Counts{1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(TotalVariationDistance(Counts{10, 0}, Counts{0, 10}), 1.0);
  EXPECT_NEAR(TotalVariationDistance(Counts{7, 3}, Counts{5, 5}), 0.2, 1e-12);
}

TEST(TClosenessTest, AuditAgainstGlobal) {
  FlatGroupIndex idx = FlatGroupIndex::Build(MakeTable());
  // Global distribution: flu (450+420+300)/1800 = 0.65, hiv 0.25, bc 0.10.
  auto tight = CheckTCloseness(idx, 0.05);
  EXPECT_GT(tight.failing_groups, 0u);
  auto vacuous = CheckTCloseness(idx, 1.0);
  EXPECT_TRUE(vacuous.satisfied());
  EXPECT_GT(vacuous.max_distance, 0.2);  // doc is far from global
}

TEST(TClosenessTest, SmoothingReachesTarget) {
  Table data = MakeTable();
  Rng rng(3);
  const double t = 0.1;
  auto smoothed = EnforceTClosenessBySmoothing(data, t, rng);
  ASSERT_TRUE(smoothed.ok());
  EXPECT_EQ(smoothed->num_rows(), data.num_rows());
  FlatGroupIndex idx = FlatGroupIndex::Build(*smoothed);
  auto audit = CheckTCloseness(idx, t + 0.01);  // rounding slack
  EXPECT_TRUE(audit.satisfied())
      << "max distance " << audit.max_distance;
}

TEST(TClosenessTest, SmoothingDestroysGroupSignal) {
  // The paper's core criticism: after smoothing, the "law -> hiv" signal is
  // attenuated toward the global rate.
  Table data = MakeTable();
  Rng rng(5);
  Table smoothed = *EnforceTClosenessBySmoothing(data, 0.05, rng);
  FlatGroupIndex before = FlatGroupIndex::Build(data);
  FlatGroupIndex after = FlatGroupIndex::Build(smoothed);
  // doc group: flu rate 1.0 before; after smoothing it must be pulled far
  // toward the global 0.65.
  const std::vector<uint32_t> doc{2};
  auto doc_before = before.Frequency(*before.FindGroup(doc), 0);
  auto doc_after = after.Frequency(*after.FindGroup(doc), 0);
  EXPECT_DOUBLE_EQ(doc_before, 1.0);
  EXPECT_LT(doc_after, 0.75);
}

TEST(TClosenessTest, SmoothingLeavesCompliantGroupsAlone) {
  Table data = MakeTable();
  Rng rng(7);
  // With a huge t nothing changes.
  Table smoothed = *EnforceTClosenessBySmoothing(data, 0.99, rng);
  for (size_t r = 0; r < data.num_rows(); ++r) {
    EXPECT_EQ(smoothed.at(r, 1), data.at(r, 1));
  }
}

TEST(TClosenessTest, SmoothingValidation) {
  Table data = MakeTable();
  Rng rng(9);
  EXPECT_FALSE(EnforceTClosenessBySmoothing(data, -0.1, rng).ok());
  EXPECT_FALSE(EnforceTClosenessBySmoothing(data, 1.1, rng).ok());
}

}  // namespace
}  // namespace recpriv::anon
