// Tests for the (lambda, delta)-reconstruction-privacy criterion:
// Eq. (10) closed form, Corollary 4 test, and consistency with the
// Chernoff-bound diagnostics.

#include "core/reconstruction_privacy.h"

#include <gtest/gtest.h>

#include <cmath>

#include "datagen/simple.h"
#include "table/flat_group_index.h"

namespace recpriv::core {
namespace {

PrivacyParams Params(double lambda, double delta, double p, size_t m) {
  PrivacyParams params;
  params.lambda = lambda;
  params.delta = delta;
  params.retention_p = p;
  params.domain_m = m;
  return params;
}

TEST(PrivacyParamsTest, Validation) {
  EXPECT_TRUE(Params(0.3, 0.3, 0.5, 2).Validate().ok());
  EXPECT_FALSE(Params(0.0, 0.3, 0.5, 2).Validate().ok());
  EXPECT_FALSE(Params(0.3, -0.1, 0.5, 2).Validate().ok());
  EXPECT_FALSE(Params(0.3, 1.1, 0.5, 2).Validate().ok());
  EXPECT_FALSE(Params(0.3, 0.3, 0.0, 2).Validate().ok());
  EXPECT_FALSE(Params(0.3, 0.3, 1.0, 2).Validate().ok());
  EXPECT_FALSE(Params(0.3, 0.3, 0.5, 1).Validate().ok());
}

TEST(MaxGroupSizeTest, MatchesEq10ClosedForm) {
  // s_g = -2 (f p + (1-p)/m) ln(delta) / (lambda p f)^2.
  const double lambda = 0.3, delta = 0.3, p = 0.5, f = 0.6;
  const size_t m = 2;
  const double expected = -2.0 * (f * p + (1 - p) / m) * std::log(delta) /
                          ((lambda * p * f) * (lambda * p * f));
  EXPECT_NEAR(MaxGroupSize(Params(lambda, delta, p, m), f), expected, 1e-9);
}

TEST(MaxGroupSizeTest, PaperFigure1Shape) {
  // Figure 1: s_g decreases in f and (for fixed f) increases as p falls.
  auto params_p5 = Params(0.3, 0.3, 0.5, 2);
  EXPECT_GT(MaxGroupSize(params_p5, 0.5), MaxGroupSize(params_p5, 0.7));
  EXPECT_GT(MaxGroupSize(params_p5, 0.7), MaxGroupSize(params_p5, 0.9));

  auto params_p3 = Params(0.3, 0.3, 0.3, 2);
  auto params_p7 = Params(0.3, 0.3, 0.7, 2);
  EXPECT_GT(MaxGroupSize(params_p3, 0.7), MaxGroupSize(params_p7, 0.7));
}

TEST(MaxGroupSizeTest, SmallFrequencyBoostsThreshold) {
  // CENSUS effect: f small => s_g large (paper §6.1 discussion of Fig. 1).
  auto params = Params(0.3, 0.3, 0.5, 50);
  EXPECT_GT(MaxGroupSize(params, 0.05), MaxGroupSize(params, 0.5));
  EXPECT_GT(MaxGroupSize(params, 0.05), 1000.0);
}

TEST(MaxGroupSizeTest, DegenerateParameters) {
  EXPECT_TRUE(std::isinf(MaxGroupSize(Params(0.3, 0.3, 0.5, 2), 0.0)));
  EXPECT_TRUE(std::isinf(MaxGroupSize(Params(0.3, 0.0, 0.5, 2), 0.5)));
  EXPECT_EQ(MaxGroupSize(Params(0.3, 1.0, 0.5, 2), 0.5), 0.0);
}

TEST(MaxGroupSizeTest, LambdaBeyondLowerTailUsesUpperBound) {
  // For lambda > 1 + ((1-p)/m)/(p f) the lower-tail Chernoff form does not
  // apply and the threshold switches to the upper-tail expression. It must
  // remain positive, finite, and decreasing in lambda (the exponent
  // omega^2/(2+omega) grows with omega).
  stats::GroupBoundParams g{1.0, 0.9, 0.5, 2.0};
  const double lambda_max = stats::MaxLambdaForLowerTail(g);
  const double s_at = MaxGroupSize(Params(lambda_max, 0.3, 0.5, 2), 0.9);
  const double s_beyond =
      MaxGroupSize(Params(lambda_max * 1.5, 0.3, 0.5, 2), 0.9);
  EXPECT_GT(s_at, 0.0);
  EXPECT_GT(s_beyond, 0.0);
  EXPECT_TRUE(std::isfinite(s_beyond));
  EXPECT_LT(s_beyond, s_at);
}

TEST(MaxGroupSizeTest, MonotoneDecreasingInLambdaTimesConstant) {
  // s_g ~ 1/lambda^2: doubling lambda quarters the threshold (within the
  // lower-tail regime).
  auto p1 = Params(0.1, 0.3, 0.5, 10);
  auto p2 = Params(0.2, 0.3, 0.5, 10);
  EXPECT_NEAR(MaxGroupSize(p1, 0.3) / MaxGroupSize(p2, 0.3), 4.0, 1e-9);
}

TEST(MaxGroupSizeTest, LogarithmicInDelta) {
  auto d1 = Params(0.3, 0.5, 0.5, 10);
  auto d2 = Params(0.3, 0.25, 0.5, 10);
  EXPECT_NEAR(MaxGroupSize(d2, 0.3) / MaxGroupSize(d1, 0.3),
              std::log(0.25) / std::log(0.5), 1e-9);
}

TEST(CorollaryFourTest, ThresholdIsSharp) {
  auto params = Params(0.3, 0.3, 0.5, 2);
  const double f = 0.7;
  const double s = MaxGroupSize(params, f);
  EXPECT_TRUE(ValueIsPrivate(params, uint64_t(std::floor(s)), f));
  EXPECT_FALSE(ValueIsPrivate(params, uint64_t(std::ceil(s)) + 1, f));
}

TEST(CorollaryFourTest, ZeroFrequencyAlwaysPrivate) {
  auto params = Params(0.3, 0.3, 0.5, 2);
  EXPECT_TRUE(ValueIsPrivate(params, 1'000'000'000ULL, 0.0));
}

TEST(CorollaryFourTest, ConsistentWithBestTailBound) {
  // A value is private iff the best Chernoff bound is >= delta, within the
  // lower-tail lambda range. Cross-check the two code paths on a grid.
  for (double p : {0.3, 0.5, 0.7}) {
    for (double f : {0.1, 0.4, 0.8}) {
      for (uint64_t size : {10ULL, 100ULL, 1000ULL, 20000ULL}) {
        auto params = Params(0.3, 0.3, p, 4);
        const bool via_threshold = ValueIsPrivate(params, size, f);
        const bool via_bound = BestTailBound(params, size, f) >= 0.3;
        EXPECT_EQ(via_threshold, via_bound)
            << "p=" << p << " f=" << f << " size=" << size;
      }
    }
  }
}

TEST(GroupIsPrivateTest, UsesMaxFrequency) {
  // One personal group of 1000 records with SA counts {800, 200}.
  recpriv::datagen::SimpleDatasetSpec spec;
  spec.public_attributes = {"Job"};
  spec.sensitive_attribute = "Disease";
  spec.sa_domain = {"flu", "hiv"};
  spec.groups.push_back({{"eng"}, 1000, {0.8, 0.2}});
  const auto idx = recpriv::table::FlatGroupIndex::Build(
      *recpriv::datagen::GenerateSimpleExact(spec));
  ASSERT_EQ(idx.num_groups(), 1u);
  ASSERT_EQ(idx.group_size(0), 1000u);
  EXPECT_DOUBLE_EQ(idx.MaxFrequency(0), 0.8);
  auto params = Params(0.3, 0.3, 0.5, 2);
  EXPECT_EQ(GroupIsPrivate(params, idx.group_size(0), idx.MaxFrequency(0)),
            GroupIsPrivate(params, 1000, 0.8));
  // 1000 > s_g(0.8) ~ 90
  EXPECT_FALSE(
      GroupIsPrivate(params, idx.group_size(0), idx.MaxFrequency(0)));
}

TEST(BestTailBoundTest, OneForZeroFrequency) {
  EXPECT_EQ(BestTailBound(Params(0.3, 0.3, 0.5, 2), 100, 0.0), 1.0);
}

TEST(BestTailBoundTest, DecaysWithGroupSize) {
  auto params = Params(0.3, 0.3, 0.5, 2);
  double prev = 1.1;
  for (uint64_t size : {10ULL, 100ULL, 1000ULL, 10000ULL}) {
    double bound = BestTailBound(params, size, 0.6);
    EXPECT_LT(bound, prev);
    prev = bound;
  }
}

}  // namespace
}  // namespace recpriv::core
