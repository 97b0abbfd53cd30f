// FlatGroupIndex tests: layout invariants, the packed/wide key paths, the
// personal-group semantics on a small hand-built table, and a randomized
// property suite asserting the columnar index agrees with a naive model —
// a std::map from NA key to (row set, SA histogram) — on groups, SA
// histograms, MatchingGroups, FindGroup, CountAnswer and AnswerInto across
// schemas, including domains too wide for the packed-key fast path.

#include "table/flat_group_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"

namespace recpriv::table {
namespace {

using recpriv::Rng;

SchemaPtr MakeSchema(const std::vector<size_t>& public_domains,
                     size_t sa_domain) {
  std::vector<Attribute> attrs;
  for (size_t a = 0; a < public_domains.size(); ++a) {
    Dictionary d;
    for (size_t v = 0; v < public_domains[a]; ++v) {
      d.GetOrAdd("a" + std::to_string(a) + "v" + std::to_string(v));
    }
    attrs.push_back(Attribute{"A" + std::to_string(a), std::move(d)});
  }
  Dictionary sa;
  for (size_t v = 0; v < sa_domain; ++v) sa.GetOrAdd("s" + std::to_string(v));
  attrs.push_back(Attribute{"SA", std::move(sa)});
  const size_t sa_index = attrs.size() - 1;
  return std::make_shared<Schema>(*Schema::Make(std::move(attrs), sa_index));
}

Table RandomTable(const SchemaPtr& schema, size_t rows, Rng& rng) {
  Table t(schema);
  std::vector<uint32_t> codes(schema->num_attributes());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < schema->num_attributes(); ++a) {
      codes[a] = uint32_t(rng.NextUint64(schema->attribute(a).domain.size()));
    }
    t.AppendRowUnchecked(codes);
  }
  return t;
}

/// One personal group of the naive model.
struct NaiveGroup {
  std::vector<uint32_t> rows;
  std::vector<uint64_t> sa_counts;
};

/// The naive reference: NA key (public-index order) -> group, built by
/// one pass over the rows. std::map orders keys lexicographically, so the
/// i-th entry is the group FlatGroupIndex must number i.
using NaiveModel = std::map<std::vector<uint32_t>, NaiveGroup>;

NaiveModel BuildNaive(const Table& t) {
  const Schema& schema = *t.schema();
  const size_t sa_col = schema.sensitive_index();
  NaiveModel model;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<uint32_t> key;
    for (size_t attr : schema.public_indices()) key.push_back(t.at(r, attr));
    NaiveGroup& g = model[key];
    g.sa_counts.resize(schema.sa_domain_size(), 0);
    g.rows.push_back(uint32_t(r));
    ++g.sa_counts[t.at(r, sa_col)];
  }
  return model;
}

/// Group ids (model order) whose key satisfies every bound NA condition.
std::vector<uint32_t> NaiveMatches(const NaiveModel& model,
                                   const std::vector<size_t>& pub,
                                   const Predicate& pred) {
  std::vector<uint32_t> out;
  uint32_t gi = 0;
  for (const auto& [key, group] : model) {
    bool match = true;
    for (size_t k = 0; k < pub.size() && match; ++k) {
      match = !pred.is_bound(pub[k]) || pred.code(pub[k]) == key[k];
    }
    if (match) out.push_back(gi);
    ++gi;
  }
  return out;
}

/// Full agreement check between the index and the naive model of one
/// table. Row sets are compared with their order ignored.
void ExpectAgreement(const Table& t, FlatGroupIndex::KeyMode mode,
                     Rng& rng) {
  const NaiveModel model = BuildNaive(t);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t, mode);

  ASSERT_EQ(flat.num_groups(), model.size());
  ASSERT_EQ(flat.num_records(), t.num_rows());
  EXPECT_DOUBLE_EQ(flat.AverageGroupSize(),
                   model.empty() ? 0.0 : double(t.num_rows()) / model.size());

  std::vector<const NaiveGroup*> groups;
  size_t gi = 0;
  for (const auto& [key, g] : model) {
    groups.push_back(&g);
    // Same group order (NA-lexicographic), same keys, same histograms.
    ASSERT_EQ(std::vector<uint32_t>(flat.na_codes(gi).begin(),
                                    flat.na_codes(gi).end()),
              key)
        << "group " << gi;
    EXPECT_EQ(std::vector<uint64_t>(flat.sa_counts(gi).begin(),
                                    flat.sa_counts(gi).end()),
              g.sa_counts);
    EXPECT_EQ(flat.group_size(gi), g.rows.size());
    const uint64_t max_count =
        *std::max_element(g.sa_counts.begin(), g.sa_counts.end());
    EXPECT_DOUBLE_EQ(flat.MaxFrequency(gi),
                     double(max_count) / double(g.rows.size()));
    // Same row sets.
    std::vector<uint32_t> flat_rows(flat.rows(gi).begin(),
                                    flat.rows(gi).end());
    std::sort(flat_rows.begin(), flat_rows.end());
    EXPECT_EQ(flat_rows, g.rows);

    // FindGroup locates every group by its own key.
    auto found = flat.FindGroup(key);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(*found, gi);
    ++gi;
  }

  // Random predicates (wildcards, bound values, out-of-domain codes):
  // MatchingGroups, CountAnswer and AnswerInto must agree with the model.
  const auto& pub = flat.public_indices();
  const size_t n_attr = t.schema()->num_attributes();
  const size_t m = t.schema()->sa_domain_size();
  for (int trial = 0; trial < 40; ++trial) {
    Predicate pred(n_attr);
    for (size_t attr : pub) {
      const size_t dom = t.schema()->attribute(attr).domain.size();
      switch (rng.NextUint64(4)) {
        case 0:  // wildcard
          break;
        case 1:  // out-of-domain code: matches nothing on this attribute
          pred.Bind(attr, uint32_t(dom + rng.NextUint64(1000)));
          break;
        default:
          pred.Bind(attr, uint32_t(rng.NextUint64(dom)));
      }
    }
    const std::vector<uint32_t> slow = NaiveMatches(model, pub, pred);
    ASSERT_EQ(flat.MatchingGroups(pred), slow) << pred.ToString(*t.schema());

    const uint32_t sa = uint32_t(rng.NextUint64(m));
    uint64_t slow_obs = 0, slow_size = 0;
    for (uint32_t g : slow) {
      slow_obs += groups[g]->sa_counts[sa];
      slow_size += groups[g]->rows.size();
    }
    EXPECT_EQ(flat.CountAnswer(pred, sa), slow_obs);
    uint64_t obs = 0, size = 0;
    flat.AnswerInto(pred, sa, &obs, &size);
    EXPECT_EQ(obs, slow_obs);
    EXPECT_EQ(size, slow_size);
  }

  // Missing keys are NotFound in both; present keys agree on the id.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint32_t> key;
    for (size_t attr : pub) {
      key.push_back(uint32_t(
          rng.NextUint64(t.schema()->attribute(attr).domain.size() + 3)));
    }
    const auto it = model.find(key);
    const auto flat_found = flat.FindGroup(key);
    EXPECT_EQ(flat_found.ok(), it != model.end());
    if (it != model.end() && flat_found.ok()) {
      EXPECT_EQ(*flat_found, size_t(std::distance(model.begin(), it)));
    }
  }
}

TEST(FlatGroupIndexTest, AgreesWithNaiveModelAcrossRandomSchemas) {
  Rng rng(20150407);
  for (int round = 0; round < 12; ++round) {
    const size_t n_pub = 1 + rng.NextUint64(4);
    std::vector<size_t> domains;
    for (size_t a = 0; a < n_pub; ++a) {
      domains.push_back(1 + rng.NextUint64(6));
    }
    const size_t m = 2 + rng.NextUint64(5);
    SchemaPtr schema = MakeSchema(domains, m);
    Table t = RandomTable(schema, rng.NextUint64(400), rng);
    {
      SCOPED_TRACE("round " + std::to_string(round) + " auto");
      const FlatGroupIndex flat = FlatGroupIndex::Build(t);
      EXPECT_TRUE(flat.packed());  // narrow domains: fast path expected
      ExpectAgreement(t, FlatGroupIndex::KeyMode::kAuto, rng);
    }
    {
      // The wide fallback must agree on the same narrow data.
      SCOPED_TRACE("round " + std::to_string(round) + " forced-wide");
      const FlatGroupIndex wide =
          FlatGroupIndex::Build(t, FlatGroupIndex::KeyMode::kForceWide);
      EXPECT_FALSE(wide.packed());
      ExpectAgreement(t, FlatGroupIndex::KeyMode::kForceWide, rng);
    }
  }
}

TEST(FlatGroupIndexTest, WideDomainsFallBackAndAgree) {
  // 9 public attributes x 8 bits (129-value domains) = 72 key bits: the
  // packed path cannot hold the key, Build must choose the wide layout and
  // still agree with the naive model.
  Rng rng(77);
  std::vector<size_t> domains(9, 129);
  SchemaPtr schema = MakeSchema(domains, 3);
  Table t = RandomTable(schema, 600, rng);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  EXPECT_FALSE(flat.packed());
  ExpectAgreement(t, FlatGroupIndex::KeyMode::kAuto, rng);
}

TEST(FlatGroupIndexTest, SixtyFourBitKeyStillPacks) {
  // 4 x 65536-value domains = exactly 64 bits: boundary of the fast path.
  Rng rng(99);
  std::vector<size_t> domains(4, 65536);
  SchemaPtr schema = MakeSchema(domains, 2);
  Table t = RandomTable(schema, 300, rng);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  EXPECT_TRUE(flat.packed());
  ExpectAgreement(t, FlatGroupIndex::KeyMode::kAuto, rng);
}

TEST(FlatGroupIndexTest, EmptyTable) {
  SchemaPtr schema = MakeSchema({2, 3}, 2);
  Table t(schema);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  EXPECT_EQ(flat.num_groups(), 0u);
  EXPECT_EQ(flat.AverageGroupSize(), 0.0);
  EXPECT_FALSE(flat.FindGroup(std::vector<uint32_t>{0, 0}).ok());
  Predicate all(3);
  EXPECT_TRUE(flat.MatchingGroups(all).empty());
  EXPECT_EQ(flat.CountAnswer(all, 0), 0u);
}

TEST(FlatGroupIndexTest, NoPublicAttributes) {
  // A schema that is all-SA has one personal group holding every record.
  SchemaPtr schema = MakeSchema({}, 3);
  Rng rng(5);
  Table t = RandomTable(schema, 50, rng);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  ASSERT_EQ(flat.num_groups(), 1u);
  EXPECT_EQ(flat.group_size(0), 50u);
  uint64_t total = 0;
  for (uint64_t c : flat.sa_counts(0)) total += c;
  EXPECT_EQ(total, 50u);
  auto found = flat.FindGroup(std::span<const uint32_t>{});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 0u);
  Predicate all(1);
  EXPECT_EQ(flat.MatchingGroups(all).size(), 1u);
}

TEST(FlatGroupIndexTest, RowsAreAscendingWithinGroups) {
  // Both key paths are stable sorts, so CSR row slices come out ascending —
  // a locality guarantee scan consumers may rely on.
  Rng rng(123);
  SchemaPtr schema = MakeSchema({3, 3}, 2);
  Table t = RandomTable(schema, 500, rng);
  for (auto mode : {FlatGroupIndex::KeyMode::kAuto,
                    FlatGroupIndex::KeyMode::kForceWide}) {
    const FlatGroupIndex flat = FlatGroupIndex::Build(t, mode);
    for (size_t gi = 0; gi < flat.num_groups(); ++gi) {
      const auto rows = flat.rows(gi);
      EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
    }
  }
}

// --- personal-group semantics on a hand-built table ------------------------

SchemaPtr MakeTestSchema() {
  std::vector<Attribute> attrs;
  attrs.push_back(
      Attribute{"Gender", *Dictionary::FromValues({"male", "female"})});
  attrs.push_back(Attribute{"Job", *Dictionary::FromValues({"eng", "law"})});
  attrs.push_back(
      Attribute{"Disease", *Dictionary::FromValues({"flu", "hiv", "bc"})});
  return std::make_shared<Schema>(*Schema::Make(std::move(attrs), 2));
}

Table MakeTestTable() {
  Table t(MakeTestSchema());
  // (male, eng): flu, flu, hiv    (male, law): bc
  // (female, eng): hiv, hiv       (female, law): flu, bc
  const uint32_t rows[][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 1}, {0, 1, 2},
                              {1, 0, 1}, {1, 0, 1}, {1, 1, 0}, {1, 1, 2}};
  for (const auto& r : rows) {
    EXPECT_TRUE(t.AppendRow(std::vector<uint32_t>{r[0], r[1], r[2]}).ok());
  }
  return t;
}

using Key = std::vector<uint32_t>;

TEST(FlatGroupIndexTest, BuildsAllPersonalGroups) {
  const FlatGroupIndex idx = FlatGroupIndex::Build(MakeTestTable());
  EXPECT_EQ(idx.num_groups(), 4u);
  EXPECT_EQ(idx.num_records(), 8u);
  EXPECT_DOUBLE_EQ(idx.AverageGroupSize(), 2.0);

  const size_t gi = *idx.FindGroup(Key{0, 0});  // male, eng
  EXPECT_EQ(idx.group_size(gi), 3u);
  EXPECT_EQ(std::vector<uint64_t>(idx.sa_counts(gi).begin(),
                                  idx.sa_counts(gi).end()),
            (std::vector<uint64_t>{2, 1, 0}));
  EXPECT_NEAR(idx.Frequency(gi, 0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(idx.MaxFrequency(gi), 2.0 / 3.0, 1e-12);
}

TEST(FlatGroupIndexTest, GroupRowsPointIntoTable) {
  const Table t = MakeTestTable();
  const FlatGroupIndex idx = FlatGroupIndex::Build(t);
  for (size_t g = 0; g < idx.num_groups(); ++g) {
    for (uint32_t r : idx.rows(g)) {
      EXPECT_EQ(t.at(r, 0), idx.na_code(g, 0));
      EXPECT_EQ(t.at(r, 1), idx.na_code(g, 1));
    }
  }
}

TEST(FlatGroupIndexTest, SaCountsSumToGroupSize) {
  const FlatGroupIndex idx = FlatGroupIndex::Build(MakeTestTable());
  for (size_t g = 0; g < idx.num_groups(); ++g) {
    uint64_t total = 0;
    for (uint64_t c : idx.sa_counts(g)) total += c;
    EXPECT_EQ(total, idx.group_size(g));
  }
}

TEST(FlatGroupIndexTest, MatchingGroupsHonoursWildcards) {
  const FlatGroupIndex idx = FlatGroupIndex::Build(MakeTestTable());

  Predicate all(3);
  EXPECT_EQ(idx.MatchingGroups(all).size(), 4u);

  Predicate male(3);
  male.Bind(0, 0);
  EXPECT_EQ(idx.MatchingGroups(male).size(), 2u);

  Predicate male_law(3);
  male_law.Bind(0, 0);
  male_law.Bind(1, 1);
  auto matches = idx.MatchingGroups(male_law);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(Key(idx.na_codes(matches[0]).begin(),
                idx.na_codes(matches[0]).end()),
            (Key{0, 1}));
}

TEST(FlatGroupIndexTest, FindGroupLocatesEveryGroupAndRejectsNearMisses) {
  for (auto mode : {FlatGroupIndex::KeyMode::kAuto,
                    FlatGroupIndex::KeyMode::kForceWide}) {
    const FlatGroupIndex idx = FlatGroupIndex::Build(MakeTestTable(), mode);
    for (size_t gi = 0; gi < idx.num_groups(); ++gi) {
      auto found = idx.FindGroup(idx.na_codes(gi));
      ASSERT_TRUE(found.ok());
      EXPECT_EQ(*found, gi);
    }
    EXPECT_FALSE(idx.FindGroup(Key{0, 7}).ok());
    EXPECT_FALSE(idx.FindGroup(Key{7, 0}).ok());
    EXPECT_FALSE(idx.FindGroup(Key{0}).ok());        // short key
    EXPECT_FALSE(idx.FindGroup(Key{0, 1, 0}).ok());  // long key
  }
}

TEST(FlatGroupIndexTest, FindGroupMissing) {
  Table t(MakeTestSchema());
  ASSERT_TRUE(t.AppendRow(std::vector<uint32_t>{0, 0, 0}).ok());
  const FlatGroupIndex idx = FlatGroupIndex::Build(t);
  EXPECT_FALSE(idx.FindGroup(Key{1, 1}).ok());
}

TEST(FlatGroupIndexTest, NoIndexHoldsAnEmptyGroup) {
  // Build never emits an empty group and FromStorage rejects one, so the
  // frequency accessors never see a zero group size. One record in
  // (male, law) is valid storage; adding an empty (male, eng) group in
  // front of it is not.
  const std::vector<uint32_t> rows{0};
  FlatGroupIndex::Storage valid;
  const std::vector<uint32_t> valid_na{0, 1};
  const std::vector<uint64_t> valid_counts{1, 0, 0};
  const std::vector<uint64_t> valid_offsets{0, 1};
  valid.num_groups = 1;
  valid.num_records = 1;
  valid.na_codes = valid_na;
  valid.sa_counts = valid_counts;
  valid.row_offsets = valid_offsets;
  valid.row_values = rows;
  auto accepted = FlatGroupIndex::FromStorage(MakeTestSchema(), valid);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_DOUBLE_EQ(accepted->MaxFrequency(0), 1.0);

  FlatGroupIndex::Storage empty_group = valid;
  const std::vector<uint32_t> na{0, 0, 0, 1};
  const std::vector<uint64_t> counts{0, 0, 0, 1, 0, 0};
  const std::vector<uint64_t> offsets{0, 0, 1};
  empty_group.num_groups = 2;
  empty_group.na_codes = na;
  empty_group.sa_counts = counts;
  empty_group.row_offsets = offsets;
  auto rejected = FlatGroupIndex::FromStorage(MakeTestSchema(), empty_group);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss);
}

TEST(GroupPostingIndexTest, AgreesWithLinearScan) {
  const FlatGroupIndex flat = FlatGroupIndex::Build(MakeTestTable());
  const GroupPostingIndex postings(flat);
  for (int g = -1; g < 2; ++g) {
    for (int j = -1; j < 2; ++j) {
      Predicate p(3);
      if (g >= 0) p.Bind(0, uint32_t(g));
      if (j >= 0) p.Bind(1, uint32_t(j));
      EXPECT_EQ(postings.MatchingGroups(p), flat.MatchingGroups(p))
          << "g=" << g << " j=" << j;
    }
  }
}

TEST(GroupPostingIndexTest, CountAnswerSumsHistograms) {
  const FlatGroupIndex flat = FlatGroupIndex::Build(MakeTestTable());
  const GroupPostingIndex postings(flat);
  Predicate eng(3);
  eng.Bind(1, 0);  // Job = eng
  // eng groups: (male,eng) flu=2, (female,eng) flu=0.
  EXPECT_EQ(postings.CountAnswer(eng, 0), 2u);
  EXPECT_EQ(postings.CountAnswer(eng, 1), 3u);  // hiv: 1 + 2
}

TEST(GroupPostingIndexTest, OutOfDomainCodeMatchesNothing) {
  const FlatGroupIndex flat = FlatGroupIndex::Build(MakeTestTable());
  const GroupPostingIndex postings(flat);
  Predicate p(3);
  p.Bind(0, 77);  // no such code
  EXPECT_TRUE(postings.MatchingGroups(p).empty());
}

TEST(GroupPostingIndexTest, CountAnswerMatchesFusedKernel) {
  Rng rng(321);
  SchemaPtr schema = MakeSchema({4, 3, 2}, 3);
  Table t = RandomTable(schema, 800, rng);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  const GroupPostingIndex postings(flat);
  for (int trial = 0; trial < 60; ++trial) {
    Predicate pred(4);
    for (size_t attr = 0; attr < 3; ++attr) {
      if (rng.NextUint64(2) == 0) {
        pred.Bind(attr, uint32_t(rng.NextUint64(
                            schema->attribute(attr).domain.size())));
      }
    }
    const uint32_t sa = uint32_t(rng.NextUint64(3));
    EXPECT_EQ(postings.CountAnswer(pred, sa), flat.CountAnswer(pred, sa));
  }
}

// --- GroupPostingIndex differential suite ----------------------------------
//
// The density-adaptive filter must answer exactly as the fused scan of the
// flat index does: same match list, same O* and |S*|, through every entry
// point, on packed and wide keys, for every way a query can resolve
// (unbound, all bound values dense, all sparse, mixed, a code outside its
// domain, a value no group carries).

/// How the filter resolves `pred` (in-domain codes only classify).
enum class QueryKind { kUnbound, kAllDense, kAllSparse, kMixed, kNoMatch };

QueryKind Classify(const FlatGroupIndex& flat, const GroupPostingIndex& filter,
                   const Predicate& pred) {
  const Schema& schema = *flat.schema();
  const auto& pub = flat.public_indices();
  size_t dense = 0, sparse = 0;
  for (size_t k = 0; k < pub.size(); ++k) {
    if (!pred.is_bound(pub[k])) continue;
    const uint32_t code = pred.code(pub[k]);
    if (code >= schema.attribute(pub[k]).domain.size()) {
      return QueryKind::kNoMatch;
    }
    ++(filter.IsDense(k, code) ? dense : sparse);
  }
  if (dense + sparse == 0) return QueryKind::kUnbound;
  if (sparse == 0) return QueryKind::kAllDense;
  return dense == 0 ? QueryKind::kAllSparse : QueryKind::kMixed;
}

/// Every GroupPostingIndex entry point against the flat index's scan.
void ExpectFilterAgrees(const FlatGroupIndex& flat,
                        const GroupPostingIndex& filter, const Predicate& pred,
                        uint32_t sa) {
  const std::vector<uint32_t> want = flat.MatchingGroups(pred);
  EXPECT_EQ(filter.MatchingGroups(pred), want);
  std::vector<uint32_t> out = {7, 7, 7};  // stale contents must be cleared
  filter.MatchingGroupsInto(pred, out);
  EXPECT_EQ(out, want);
  std::vector<uint32_t> unused;
  filter.MatchingGroupsInto(pred, unused, out);
  EXPECT_EQ(out, want);

  uint64_t observed = 0, matched = 0;
  flat.AnswerInto(pred, sa, &observed, &matched);
  uint64_t filter_observed = 1, filter_matched = 1;
  filter.AnswerInto(pred, sa, &filter_observed, &filter_matched);
  EXPECT_EQ(filter_observed, observed);
  EXPECT_EQ(filter_matched, matched);
  EXPECT_EQ(filter.CountAnswer(pred, sa), observed);
}

/// A table whose value frequencies are skewed, so one attribute carries
/// both bitmap (frequent) and array (rare) values, and whose top code is
/// never drawn, so some values have no group at all.
Table SkewedTable(const SchemaPtr& schema, size_t rows, Rng& rng) {
  Table t(schema);
  std::vector<uint32_t> codes(schema->num_attributes());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < schema->num_attributes(); ++a) {
      const uint64_t dom = schema->attribute(a).domain.size();
      const uint64_t drawn = dom >= 3 ? dom - 1 : dom;
      codes[a] = rng.NextUint64(2) == 0 ? 0u : uint32_t(rng.NextUint64(drawn));
    }
    t.AppendRowUnchecked(codes);
  }
  return t;
}

TEST(GroupPostingIndexTest, AgreesWithFlatScanAcrossRandomSchemas) {
  Rng rng(20150407);
  std::map<QueryKind, size_t> seen;
  bool saw_tail_word = false;
  for (int round = 0; round < 16; ++round) {
    const size_t n_pub = 1 + rng.NextUint64(5);
    std::vector<size_t> domains;
    for (size_t a = 0; a < n_pub; ++a) {
      // Domain 1 (a zero-width key field), small (dense values) and large
      // (mostly sparse values) domains.
      const uint64_t pick = rng.NextUint64(4);
      domains.push_back(pick == 0   ? 1
                        : pick == 1 ? 2 + rng.NextUint64(3)
                                    : 20 + rng.NextUint64(120));
    }
    const size_t m = 2 + rng.NextUint64(5);
    SchemaPtr schema = MakeSchema(domains, m);
    Table t = SkewedTable(schema, rng.NextUint64(4000), rng);
    for (auto mode : {FlatGroupIndex::KeyMode::kAuto,
                      FlatGroupIndex::KeyMode::kForceWide}) {
      SCOPED_TRACE("round " + std::to_string(round) +
                   (mode == FlatGroupIndex::KeyMode::kAuto ? " auto"
                                                           : " forced-wide"));
      const FlatGroupIndex flat = FlatGroupIndex::Build(t, mode);
      const GroupPostingIndex filter(flat);
      saw_tail_word |= flat.num_groups() > 64 && flat.num_groups() % 64 != 0;
      for (int trial = 0; trial < 120; ++trial) {
        Predicate pred(schema->num_attributes());
        for (size_t attr = 0; attr < n_pub; ++attr) {
          if (rng.NextUint64(2) == 0) continue;  // wildcard
          const uint64_t dom = domains[attr];
          switch (rng.NextUint64(8)) {
            case 0:  // outside the domain: matches nothing
              pred.Bind(attr, uint32_t(dom + rng.NextUint64(5)));
              break;
            case 1:  // the undrawn top code: often a value with no group
              pred.Bind(attr, uint32_t(dom - 1));
              break;
            case 2:
            case 3:  // the frequent code
              pred.Bind(attr, 0);
              break;
            default:
              pred.Bind(attr, uint32_t(rng.NextUint64(dom)));
          }
        }
        ++seen[Classify(flat, filter, pred)];
        ExpectFilterAgrees(flat, filter, pred, uint32_t(rng.NextUint64(m)));
      }
    }
  }
  EXPECT_TRUE(saw_tail_word);
  for (QueryKind kind : {QueryKind::kUnbound, QueryKind::kAllDense,
                         QueryKind::kAllSparse, QueryKind::kMixed,
                         QueryKind::kNoMatch}) {
    EXPECT_GT(seen[kind], 0u) << "query kind " << int(kind) << " never drawn";
  }
}

TEST(GroupPostingIndexTest, DensityRuleBoundaryAndEdgeValues) {
  // 352 groups (5.5 words: the last bitmap word is half used), each with a
  // distinct A1. A0 = 0 on exactly 352/32 = 11 groups (the smallest list
  // that becomes a bitmap), 1 on 10 (stays an array), 2 on the other 331.
  // A2 alternates, A3 has a one-value domain (a zero-width key field), and
  // A1 codes 352..399 belong to no group.
  const size_t kGroups = 352;
  SchemaPtr schema = MakeSchema({3, 400, 2, 1}, 3);
  Table t(schema);
  for (size_t g = 0; g < kGroups; ++g) {
    const uint32_t a0 = g < 11 ? 0 : g < 21 ? 1 : 2;
    for (uint32_t sa = 0; sa < 1 + g % 3; ++sa) {
      const uint32_t row[] = {a0, uint32_t(g), uint32_t(g % 2), 0, sa};
      t.AppendRowUnchecked(row);
    }
  }
  for (auto mode : {FlatGroupIndex::KeyMode::kAuto,
                    FlatGroupIndex::KeyMode::kForceWide}) {
    const FlatGroupIndex flat = FlatGroupIndex::Build(t, mode);
    ASSERT_EQ(flat.num_groups(), kGroups);
    const GroupPostingIndex filter(flat);
    EXPECT_TRUE(filter.IsDense(0, 0));
    EXPECT_FALSE(filter.IsDense(0, 1));
    EXPECT_TRUE(filter.IsDense(0, 2));
    EXPECT_FALSE(filter.IsDense(1, 5));
    EXPECT_FALSE(filter.IsDense(1, 399));  // no group: an empty array
    EXPECT_TRUE(filter.IsDense(2, 0));
    EXPECT_TRUE(filter.IsDense(3, 0));
    // Four bitmaps of 6 words; one id per group for A1 plus A0 = 1's ten.
    EXPECT_EQ(filter.dense_bytes(), 5 * 6 * sizeof(uint64_t));
    EXPECT_EQ(filter.sparse_bytes(), (kGroups + 10) * sizeof(uint32_t));

    // {A0, A1, A2, A3} bindings, -1 = wildcard.
    const std::vector<std::vector<int64_t>> queries = {
        {-1, -1, -1, -1},  // unbound
        {0, -1, -1, -1},   // one bitmap, exactly at the threshold
        {2, -1, 1, 0},     // all dense, three bitmaps ANDed
        {0, -1, 1, -1},    // all dense
        {1, -1, -1, -1},   // one array
        {-1, 7, -1, -1},   // one array, a single group
        {1, 15, -1, -1},   // all sparse, arrays of different lengths
        {1, 16, 0, 0},     // mixed: candidates from the shorter array
        {0, 3, 1, 0},      // mixed, the candidate fails the bitmap check
        {2, 300, 0, 0},    // mixed, matches
        {-1, 399, -1, -1},  // a value no group carries
        {0, 399, 1, 0},    // the same, beside bitmaps
        {3, -1, -1, -1},   // code outside A0's domain
        {-1, -1, -1, 1},   // code outside the one-value domain
        {-1, -1, 2, -1},   // code outside A2's domain
    };
    for (const auto& binding : queries) {
      Predicate pred(5);
      for (size_t attr = 0; attr < binding.size(); ++attr) {
        if (binding[attr] >= 0) pred.Bind(attr, uint32_t(binding[attr]));
      }
      SCOPED_TRACE(pred.ToString(*schema));
      for (uint32_t sa = 0; sa < 3; ++sa) {
        ExpectFilterAgrees(flat, filter, pred, sa);
      }
    }
  }
}

TEST(GroupPostingIndexTest, EmptyIndexMatchesNothing) {
  SchemaPtr schema = MakeSchema({2, 70}, 2);
  const Table t(schema);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  const GroupPostingIndex filter(flat);
  EXPECT_EQ(filter.dense_bytes(), 0u);
  EXPECT_EQ(filter.sparse_bytes(), 0u);
  Predicate unbound(3);
  Predicate bound(3);
  bound.Bind(0, 1);
  bound.Bind(1, 69);
  for (const Predicate* pred : {&unbound, &bound}) {
    EXPECT_TRUE(filter.MatchingGroups(*pred).empty());
    ExpectFilterAgrees(flat, filter, *pred, 1);
  }
}

TEST(GroupPostingIndexTest, SixtyFourBitKeyWithZeroWidthField) {
  // A one-value attribute ahead of 64 key bits: its zero-width field sits
  // at shift 64, which neither key matcher may shift by.
  Rng rng(64);
  SchemaPtr schema = MakeSchema({1, 65536, 65536, 65536, 65536}, 2);
  Table t = RandomTable(schema, 300, rng);
  const FlatGroupIndex flat = FlatGroupIndex::Build(t);
  ASSERT_TRUE(flat.packed());
  const GroupPostingIndex filter(flat);
  for (int trial = 0; trial < 40; ++trial) {
    const uint32_t row = uint32_t(rng.NextUint64(t.num_rows()));
    Predicate pred(6);
    pred.Bind(0, trial % 7 == 0 ? 1 : 0);
    for (size_t attr = 1; attr < 5; ++attr) {
      if (rng.NextUint64(3) != 0) pred.Bind(attr, t.at(row, attr));
    }
    ExpectFilterAgrees(flat, filter, pred, uint32_t(rng.NextUint64(2)));
  }
}

}  // namespace
}  // namespace recpriv::table
