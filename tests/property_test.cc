// Randomized property tests across module boundaries:
//
//  * generalization recovery — for random effective-class models with
//    adequate separation and support, the chi-squared merge recovers the
//    planted class partition;
//  * SPS record/count path equivalence — the two execution paths produce
//    observed frequencies whose run-level means agree within standard
//    error;
//  * MLE + SPS end-to-end unbiasedness over random group profiles;
//  * JSON round-trip over randomly generated documents.
//
// All randomness is seeded per test case: deterministic, not flaky.

#include <gtest/gtest.h>

#include <cmath>

#include "common/json.h"
#include <memory>
#include "common/random.h"
#include "core/generalization.h"
#include "core/sps.h"
#include "datagen/simple.h"
#include "perturb/mle.h"
#include "perturb/uniform_perturbation.h"
#include "stats/chi_squared.h"
#include "stats/descriptive.h"
#include "table/flat_group_index.h"

namespace recpriv {
namespace {

using core::PrivacyParams;
using datagen::GroupSpec;
using datagen::SimpleDatasetSpec;
using table::Table;

PrivacyParams Params(double p, size_t m) {
  PrivacyParams params;
  params.lambda = 0.3;
  params.delta = 0.3;
  params.retention_p = p;
  params.domain_m = m;
  return params;
}

class GeneralizationRecoveryTest : public ::testing::TestWithParam<uint64_t> {
};

/// Plant a random class partition of one attribute; SA distributions per
/// class are well separated; verify the merge recovers the partition.
TEST_P(GeneralizationRecoveryTest, RecoversPlantedPartition) {
  Rng rng(GetParam());
  const size_t m = 4;                              // SA values
  const size_t num_classes = 2 + rng.NextUint64(3);  // 2..4 classes
  SimpleDatasetSpec spec;
  spec.public_attributes = {"A"};
  spec.sensitive_attribute = "S";
  spec.sa_domain = {"s0", "s1", "s2", "s3"};

  // Separated class distributions: class c concentrates ~70% mass on SA
  // value c (mod m), the rest uniform — pairwise TV distance ~ 0.6.
  std::vector<uint32_t> planted_class;
  size_t value_counter = 0;
  for (size_t c = 0; c < num_classes; ++c) {
    std::vector<double> weights(m, 10.0);
    weights[c % m] = 70.0;
    const size_t values_in_class = 1 + rng.NextUint64(3);  // 1..3 values
    for (size_t v = 0; v < values_in_class; ++v) {
      spec.groups.push_back(GroupSpec{
          {"v" + std::to_string(value_counter++)},
          2000 + size_t(rng.NextUint64(2000)), weights});
      planted_class.push_back(uint32_t(c));
    }
  }

  Table t = *datagen::GenerateSimple(spec, rng);
  auto plan = *core::ComputeGeneralization(t);
  const auto& mapping = plan.merges[0].code_mapping;
  ASSERT_EQ(mapping.size(), planted_class.size());
  EXPECT_EQ(plan.merges[0].domain_after, num_classes)
      << "seed " << GetParam();
  // Same planted class <=> same generalized value.
  for (size_t a = 0; a < mapping.size(); ++a) {
    for (size_t b = a + 1; b < mapping.size(); ++b) {
      EXPECT_EQ(planted_class[a] == planted_class[b],
                mapping[a] == mapping[b])
          << "values " << a << "," << b << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneralizationRecoveryTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

class SpsPathEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

/// Record-level and count-level SPS runs on the same group must produce
/// identically distributed observed histograms; compare run-level means.
TEST_P(SpsPathEquivalenceTest, HistogramsIndistinguishable) {
  Rng seed_rng(GetParam());
  const size_t m = 2 + seed_rng.NextUint64(4);  // 2..5 SA values
  const double p = 0.2 + 0.6 * seed_rng.NextDouble();
  auto params = Params(p, m);

  // Random group profile, large enough to trigger sampling.
  std::vector<uint64_t> counts(m);
  std::vector<double> weights(m);
  for (size_t i = 0; i < m; ++i) weights[i] = 1.0 + seed_rng.NextDouble() * 9;
  double total_w = 0;
  for (double w : weights) total_w += w;
  const uint64_t group_size = 4000;
  uint64_t assigned = 0;
  for (size_t i = 0; i + 1 < m; ++i) {
    counts[i] = uint64_t(group_size * weights[i] / total_w);
    assigned += counts[i];
  }
  counts[m - 1] = group_size - assigned;

  // Per-run observed frequencies for both paths; within-run counts are
  // correlated (sampling and scaling act on whole groups), so we compare
  // run-level means with run-level standard errors rather than pooling
  // counts into one chi-squared test.
  Rng rng_counts(GetParam() * 3 + 1), rng_table(GetParam() * 5 + 2);
  const int runs = 60;
  std::vector<stats::RunningStats> count_freq(m), table_freq(m);
  // Record path table: one personal group, schema built directly.
  std::vector<table::Attribute> attrs;
  attrs.push_back(
      table::Attribute{"A", *table::Dictionary::FromValues({"only"})});
  std::vector<std::string> sa_values;
  for (size_t i = 0; i < m; ++i) sa_values.push_back("s" + std::to_string(i));
  attrs.push_back(
      table::Attribute{"S", *table::Dictionary::FromValues(sa_values)});
  auto schema = std::make_shared<table::Schema>(
      *table::Schema::Make(std::move(attrs), 1));
  Table input(schema);
  for (size_t i = 0; i < m; ++i) {
    for (uint64_t k = 0; k < counts[i]; ++k) {
      ASSERT_TRUE(input.AppendRow(std::vector<uint32_t>{0, uint32_t(i)}).ok());
    }
  }

  for (int run = 0; run < runs; ++run) {
    auto rc = *core::SpsPerturbGroupCounts(params, counts, rng_counts);
    uint64_t rc_size = 0;
    for (uint64_t c : rc.observed) rc_size += c;
    ASSERT_GT(rc_size, 0u);
    for (size_t i = 0; i < m; ++i) {
      count_freq[i].Add(double(rc.observed[i]) / double(rc_size));
    }
    auto rt = *core::SpsPerturbTable(params, input, rng_table);
    std::vector<uint64_t> hist(m, 0);
    for (uint32_t v : rt.table.column(1)) ++hist[v];
    const double rt_size = double(rt.table.num_rows());
    ASSERT_GT(rt_size, 0.0);
    for (size_t i = 0; i < m; ++i) {
      table_freq[i].Add(double(hist[i]) / rt_size);
    }
  }
  for (size_t i = 0; i < m; ++i) {
    const double se = std::sqrt(
        count_freq[i].standard_error() * count_freq[i].standard_error() +
        table_freq[i].standard_error() * table_freq[i].standard_error());
    EXPECT_NEAR(count_freq[i].mean(), table_freq[i].mean(), 6 * se + 1e-4)
        << "value " << i << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpsPathEquivalenceTest,
                         ::testing::Values(101, 202, 303, 404, 505));

class SpsUnbiasednessTest : public ::testing::TestWithParam<uint64_t> {};

/// Theorem 5 over random profiles: E[F'] = f after SPS, for every SA value.
TEST_P(SpsUnbiasednessTest, AllFrequenciesUnbiased) {
  Rng seed_rng(GetParam());
  const size_t m = 2 + seed_rng.NextUint64(5);
  const double p = 0.3 + 0.4 * seed_rng.NextDouble();
  auto params = Params(p, m);
  const perturb::UniformPerturbation up{p, m};

  std::vector<uint64_t> counts(m);
  uint64_t group_size = 0;
  for (size_t i = 0; i < m; ++i) {
    counts[i] = 100 + seed_rng.NextUint64(3000);
    group_size += counts[i];
  }

  Rng rng(GetParam() ^ 0xABCDEF);
  const int runs = 2500;
  std::vector<double> sums(m, 0.0);
  for (int run = 0; run < runs; ++run) {
    auto r = *core::SpsPerturbGroupCounts(params, counts, rng);
    uint64_t size = 0;
    for (uint64_t c : r.observed) size += c;
    ASSERT_GT(size, 0u);
    for (size_t i = 0; i < m; ++i) {
      sums[i] += perturb::MleFrequency(up, r.observed[i], size);
    }
  }
  for (size_t i = 0; i < m; ++i) {
    const double truth = double(counts[i]) / double(group_size);
    // Per-run SE is governed by the ~s_g effective trials; with 2500 runs
    // a generous 2.5-point band is > 6 SEs for all profiles used here.
    EXPECT_NEAR(sums[i] / runs, truth, 0.025)
        << "value " << i << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpsUnbiasednessTest,
                         ::testing::Values(7, 13, 29, 71));

/// Random JSON document generator for the round-trip property.
JsonValue RandomJson(Rng& rng, int depth) {
  const uint64_t kind = rng.NextUint64(depth <= 0 ? 4 : 6);
  switch (kind) {
    case 0:
      return JsonValue::Null();
    case 1:
      return JsonValue::Bool(rng.NextBernoulli(0.5));
    case 2:
      // Round numbers survive the %.17g round trip exactly.
      return JsonValue::Number(double(rng.NextInt64(-1000000, 1000000)) / 64.0);
    case 3: {
      std::string s;
      const size_t len = rng.NextUint64(12);
      for (size_t i = 0; i < len; ++i) {
        const char* alphabet =
            "abcXYZ012 _-\"\\\n\t{}[]:,";
        s += alphabet[rng.NextUint64(23)];
      }
      return JsonValue::String(s);
    }
    case 4: {
      JsonValue arr = JsonValue::Array();
      const size_t n = rng.NextUint64(4);
      for (size_t i = 0; i < n; ++i) arr.Append(RandomJson(rng, depth - 1));
      return arr;
    }
    default: {
      JsonValue obj = JsonValue::Object();
      const size_t n = rng.NextUint64(4);
      for (size_t i = 0; i < n; ++i) {
        obj.Set("k" + std::to_string(rng.NextUint64(100)),
                RandomJson(rng, depth - 1));
      }
      return obj;
    }
  }
}

class JsonRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonRoundTripTest, SerializeParseSerializeIsStable) {
  Rng rng(GetParam());
  for (int doc = 0; doc < 50; ++doc) {
    JsonValue original = RandomJson(rng, 4);
    const std::string compact = original.ToString();
    auto parsed = JsonValue::Parse(compact);
    ASSERT_TRUE(parsed.ok()) << compact << " :: " << parsed.status();
    EXPECT_EQ(parsed->ToString(), compact);
    // Pretty round trip too.
    auto pretty = JsonValue::Parse(original.ToString(2));
    ASSERT_TRUE(pretty.ok());
    EXPECT_EQ(pretty->ToString(), compact);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace recpriv
