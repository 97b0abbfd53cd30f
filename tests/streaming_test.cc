// Tests for the streaming publisher (paper §3.1's record-insertion story).

#include "core/streaming.h"

#include <gtest/gtest.h>

#include <memory>

#include "perturb/mle.h"
#include "perturb/uniform_perturbation.h"
#include "table/flat_group_index.h"

namespace recpriv::core {
namespace {

using recpriv::table::Attribute;
using recpriv::table::Dictionary;
using recpriv::table::Schema;
using recpriv::table::SchemaPtr;

SchemaPtr MakeSchema() {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute{"Job", *Dictionary::FromValues({"eng", "law"})});
  attrs.push_back(
      Attribute{"Disease", *Dictionary::FromValues({"flu", "hiv", "bc"})});
  return std::make_shared<Schema>(*Schema::Make(std::move(attrs), 1));
}

PrivacyParams Params() {
  PrivacyParams p;
  p.lambda = 0.3;
  p.delta = 0.3;
  p.retention_p = 0.5;
  p.domain_m = 3;
  return p;
}

TEST(StreamingTest, MakeValidation) {
  EXPECT_FALSE(StreamingPublisher::Make(nullptr, Params()).ok());
  PrivacyParams wrong_m = Params();
  wrong_m.domain_m = 7;
  EXPECT_FALSE(StreamingPublisher::Make(MakeSchema(), wrong_m).ok());
  EXPECT_TRUE(StreamingPublisher::Make(MakeSchema(), Params()).ok());
}

TEST(StreamingTest, InsertValidatesRows) {
  auto pub = *StreamingPublisher::Make(MakeSchema(), Params());
  EXPECT_TRUE(pub.Insert(std::vector<uint32_t>{0, 1}).ok());
  EXPECT_FALSE(pub.Insert(std::vector<uint32_t>{0}).ok());       // arity
  EXPECT_FALSE(pub.Insert(std::vector<uint32_t>{0, 9}).ok());    // domain
  EXPECT_EQ(pub.num_records(), 1u);
}

TEST(StreamingTest, InsertAndReleaseKeepsNaPerturbsSa) {
  auto pub = *StreamingPublisher::Make(MakeSchema(), Params());
  Rng rng(3);
  size_t changed = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    auto released = *pub.InsertAndRelease(std::vector<uint32_t>{0, 1}, rng);
    EXPECT_EQ(released[0], 0u);  // NA untouched
    EXPECT_LT(released[1], 3u);
    changed += (released[1] != 1u);
  }
  EXPECT_EQ(pub.num_records(), size_t(n));
  // Pr[changed] = (1-p)(1 - 1/m) = 0.5 * 2/3 = 1/3.
  EXPECT_NEAR(changed / double(n), 1.0 / 3.0, 0.04);
}

TEST(StreamingTest, AuditTracksGrowth) {
  auto pub = *StreamingPublisher::Make(MakeSchema(), Params());
  // Insert a skewed group until it violates: f ~ 0.9, s_g is finite.
  const double s_g = MaxGroupSize(Params(), 0.9);
  size_t inserted = 0;
  bool saw_private_phase = false;
  for (size_t i = 0; i < size_t(s_g) + 200; ++i) {
    uint32_t sa = (i % 10) == 0 ? 1u : 0u;  // 90% flu
    ASSERT_TRUE(pub.Insert(std::vector<uint32_t>{0, sa}).ok());
    ++inserted;
    if (inserted == 20) {
      saw_private_phase = (pub.Audit().violating_groups == 0);
    }
  }
  EXPECT_TRUE(saw_private_phase);  // small buffers are private
  EXPECT_EQ(pub.Audit().violating_groups, 1u);  // the grown group violates
}

TEST(StreamingTest, PublishEnforcesSps) {
  auto pub = *StreamingPublisher::Make(MakeSchema(), Params());
  for (size_t i = 0; i < 5000; ++i) {
    uint32_t sa = (i % 10) < 8 ? 0u : 2u;
    ASSERT_TRUE(pub.Insert(std::vector<uint32_t>{i % 2 == 0 ? 0u : 1u, sa})
                    .ok());
  }
  Rng rng(5);
  auto release = pub.Publish(rng);
  ASSERT_TRUE(release.ok());
  EXPECT_GT(release->stats.groups_sampled, 0u);
  EXPECT_NEAR(double(release->table.num_rows()), 5000.0, 0.15 * 5000.0);
}

TEST(StreamingTest, AppendOnlyStreamSupportsReconstruction) {
  // The released UP stream reconstructs the true SA distribution.
  auto pub = *StreamingPublisher::Make(MakeSchema(), Params());
  Rng rng(7);
  std::vector<uint64_t> observed(3, 0);
  const size_t n = 30000;
  for (size_t i = 0; i < n; ++i) {
    uint32_t sa = (i % 10) < 6 ? 0u : ((i % 10) < 9 ? 1u : 2u);  // 60/30/10
    auto released = *pub.InsertAndRelease(std::vector<uint32_t>{0, sa}, rng);
    ++observed[released[1]];
  }
  const recpriv::perturb::UniformPerturbation up{0.5, 3};
  EXPECT_NEAR(recpriv::perturb::MleFrequency(up, observed[0], n), 0.6, 0.02);
  EXPECT_NEAR(recpriv::perturb::MleFrequency(up, observed[1], n), 0.3, 0.02);
  EXPECT_NEAR(recpriv::perturb::MleFrequency(up, observed[2], n), 0.1, 0.02);
}

}  // namespace
}  // namespace recpriv::core
