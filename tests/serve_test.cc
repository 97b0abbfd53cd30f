// Tests for the release-serving subsystem: thread pool, canonical query
// encoding, LRU answer cache, ReleaseStore copy-on-publish snapshots, the
// parallel batched QueryEngine (both evaluation strategies), cache
// invalidation on republish, a concurrent reader/republisher stress test,
// and the line-delimited JSON wire protocol.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/thread_pool.h"
#include "core/sps.h"
#include "core/streaming.h"
#include "datagen/simple.h"
#include "perturb/mle.h"
#include "query/canonical.h"
#include "query/evaluation.h"
#include "query/query_pool.h"
#include "serve/answer_cache.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "serve/wire.h"

namespace recpriv::serve {
namespace {

using recpriv::analysis::ReleaseBundle;
using recpriv::core::PrivacyParams;
using recpriv::datagen::GroupSpec;
using recpriv::datagen::SimpleDatasetSpec;
using recpriv::query::CountQuery;
using recpriv::table::Table;

// --- fixtures --------------------------------------------------------------

SimpleDatasetSpec MakeSpec() {
  SimpleDatasetSpec spec;
  spec.public_attributes = {"Job", "City"};
  spec.sensitive_attribute = "Disease";
  spec.sa_domain = {"flu", "hiv", "bc"};
  spec.groups.push_back(GroupSpec{{"eng", "north"}, 4000, {70, 20, 10}});
  spec.groups.push_back(GroupSpec{{"eng", "south"}, 3000, {70, 20, 10}});
  spec.groups.push_back(GroupSpec{{"law", "north"}, 2000, {20, 30, 50}});
  spec.groups.push_back(GroupSpec{{"law", "south"}, 1000, {20, 30, 50}});
  return spec;
}

PrivacyParams Params(size_t m) {
  PrivacyParams p;
  p.lambda = 0.3;
  p.delta = 0.3;
  p.retention_p = 0.5;
  p.domain_m = m;
  return p;
}

/// An SPS release bundle of the simple dataset, deterministic in `seed`.
ReleaseBundle MakeBundle(uint64_t seed = 2015) {
  Table raw = *recpriv::datagen::GenerateSimpleExact(MakeSpec());
  Rng rng(seed);
  auto sps = *recpriv::core::SpsPerturbTable(Params(3), raw, rng);
  return ReleaseBundle{std::move(sps.table), Params(3), "Disease", {}};
}

/// A store+engine pair serving MakeBundle() under "simple".
struct Served {
  std::shared_ptr<ReleaseStore> store;
  std::unique_ptr<QueryEngine> engine;
};

Served MakeServed(QueryEngineOptions options = {}) {
  Served s;
  s.store = std::make_shared<ReleaseStore>();
  EXPECT_TRUE(s.store->Publish("simple", MakeBundle()).ok());
  s.engine = std::make_unique<QueryEngine>(s.store, options);
  return s;
}

/// All (d<=2, sa) conjunctive queries over the simple schema: 3*3 NA
/// choices (eng, law, *) x (north, south, *) x 3 SA values = 27 queries.
std::vector<CountQuery> AllQueries(const Table& t) {
  std::vector<CountQuery> out;
  const auto& schema = *t.schema();
  for (int job = -1; job < 2; ++job) {
    for (int city = -1; city < 2; ++city) {
      for (uint32_t sa = 0; sa < 3; ++sa) {
        CountQuery q(schema.num_attributes());
        if (job >= 0) q.na_predicate.Bind(0, uint32_t(job));
        if (city >= 0) q.na_predicate.Bind(1, uint32_t(city));
        q.sa_code = sa;
        q.dimensionality = q.na_predicate.num_bound();
        out.push_back(q);
      }
    }
  }
  return out;
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(0, touched.size(), 7, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) touched[i]++;
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRunsInlineOnTinyRanges) {
  ThreadPool pool(4);
  size_t calls = 0;
  pool.ParallelFor(10, 15, 100, [&](size_t lo, size_t hi) {
    ++calls;  // single inline chunk: no data race possible
    EXPECT_EQ(lo, 10u);
    EXPECT_EQ(hi, 15u);
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPoolTest, SubmitAndWaitDrainsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done++; });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  pool.ParallelFor(5, 5, 1, [](size_t, size_t) { FAIL(); });
}

TEST(ThreadPoolTest, GrainForBalancesChunks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.GrainFor(0), 1u);          // min_grain floor
  EXPECT_EQ(pool.GrainFor(16000), 1000u);   // 4 chunks per worker
  EXPECT_EQ(pool.GrainFor(10, 64), 64u);    // explicit floor wins
}

// --- canonical keys --------------------------------------------------------

TEST(CanonicalTest, BindOrderDoesNotChangeKey) {
  CountQuery a(5);
  a.na_predicate.Bind(3, 7);
  a.na_predicate.Bind(1, 2);
  a.sa_code = 4;
  CountQuery b(5);
  b.na_predicate.Bind(1, 2);
  b.na_predicate.Bind(3, 7);
  b.sa_code = 4;
  EXPECT_EQ(recpriv::query::CanonicalKey(a), recpriv::query::CanonicalKey(b));
  EXPECT_EQ(recpriv::query::CanonicalHash(a),
            recpriv::query::CanonicalHash(b));
}

TEST(CanonicalTest, DistinctQueriesGetDistinctKeys) {
  CountQuery base(3);
  base.na_predicate.Bind(0, 1);
  base.sa_code = 0;

  CountQuery other_sa = base;
  other_sa.sa_code = 1;
  CountQuery other_code = base;
  other_code.na_predicate.Bind(0, 2);
  CountQuery other_attr = base;
  other_attr.na_predicate.Unbind(0);
  other_attr.na_predicate.Bind(1, 1);

  const std::string key = recpriv::query::CanonicalKey(base);
  EXPECT_NE(key, recpriv::query::CanonicalKey(other_sa));
  EXPECT_NE(key, recpriv::query::CanonicalKey(other_code));
  EXPECT_NE(key, recpriv::query::CanonicalKey(other_attr));
}

TEST(CanonicalTest, PredicateKeyOmitsSa) {
  CountQuery a(3);
  a.na_predicate.Bind(0, 1);
  a.sa_code = 0;
  CountQuery b = a;
  b.sa_code = 2;
  EXPECT_EQ(recpriv::query::CanonicalPredicateKey(a.na_predicate),
            recpriv::query::CanonicalPredicateKey(b.na_predicate));
  EXPECT_NE(recpriv::query::CanonicalKey(a), recpriv::query::CanonicalKey(b));
}

// --- AnswerCache -----------------------------------------------------------

TEST(AnswerCacheTest, InsertLookupRoundTrip) {
  AnswerCache cache(4);
  cache.Insert("k1", CachedAnswer{10, 100, 17.5});
  CachedAnswer out;
  ASSERT_TRUE(cache.Lookup("k1", &out));
  EXPECT_EQ(out.observed, 10u);
  EXPECT_EQ(out.matched_size, 100u);
  EXPECT_DOUBLE_EQ(out.estimate, 17.5);
  EXPECT_FALSE(cache.Lookup("k2", &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(AnswerCacheTest, EvictsLeastRecentlyUsed) {
  AnswerCache cache(2);
  cache.Insert("a", {});
  cache.Insert("b", {});
  CachedAnswer out;
  ASSERT_TRUE(cache.Lookup("a", &out));  // promote a; b is now LRU
  cache.Insert("c", {});                 // evicts b
  EXPECT_TRUE(cache.Lookup("a", &out));
  EXPECT_FALSE(cache.Lookup("b", &out));
  EXPECT_TRUE(cache.Lookup("c", &out));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(AnswerCacheTest, ZeroCapacityDisables) {
  AnswerCache cache(0);
  cache.Insert("a", {});
  CachedAnswer out;
  EXPECT_FALSE(cache.Lookup("a", &out));
  EXPECT_EQ(cache.size(), 0u);
}

// --- ReleaseStore ----------------------------------------------------------

TEST(ReleaseStoreTest, PublishGetAndList) {
  ReleaseStore store;
  EXPECT_FALSE(store.Get("simple").ok());
  auto snap = store.Publish("simple", MakeBundle());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->epoch, 1u);
  // The SPS release of the 10,000-record input (sampling can shift |D*_2|
  // slightly).
  EXPECT_NEAR(double((*snap)->index.num_records()), 10000.0, 1000.0);

  auto got = store.Get("simple");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), snap->get());

  auto list = store.List();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].name, "simple");
  EXPECT_EQ(list[0].epoch, 1u);
  EXPECT_EQ(list[0].num_groups, 4u);
}

TEST(ReleaseStoreTest, RepublishBumpsEpochAndKeepsOldSnapshotAlive) {
  ReleaseStore store;
  auto first = *store.Publish("simple", MakeBundle(1));
  auto second = *store.Publish("simple", MakeBundle(2));
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_EQ(store.Get("simple")->get(), second.get());
  // Copy-on-publish: the old snapshot is untouched and still queryable.
  EXPECT_NEAR(double(first->index.num_records()), 10000.0, 1000.0);
  EXPECT_EQ(first->index.num_groups(), 4u);
}

TEST(ReleaseStoreTest, RejectsEmptyNameAndBadBundle) {
  ReleaseStore store;
  EXPECT_FALSE(store.Publish("", MakeBundle()).ok());
  ReleaseBundle bad = MakeBundle();
  bad.params.domain_m = 7;  // schema has 3 SA values
  EXPECT_FALSE(store.Publish("simple", std::move(bad)).ok());
}

TEST(ReleaseStoreTest, PublishFromStreamingRepublishes) {
  Table raw = *recpriv::datagen::GenerateSimpleExact(MakeSpec());
  auto publisher =
      *recpriv::core::StreamingPublisher::Make(raw.schema(), Params(3));
  std::vector<uint32_t> row(raw.num_columns());
  for (size_t r = 0; r < raw.num_rows(); ++r) {
    for (size_t c = 0; c < raw.num_columns(); ++c) row[c] = raw.at(r, c);
    ASSERT_TRUE(publisher.Insert(row).ok());
  }
  ReleaseStore store;
  Rng rng(7);
  auto snap = store.PublishFromStreaming("stream", publisher, rng);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->epoch, 1u);
  EXPECT_GT((*snap)->index.num_records(), 0u);
  EXPECT_EQ((*snap)->bundle.sensitive_attribute, "Disease");

  auto again = store.PublishFromStreaming("stream", publisher, rng);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->epoch, 2u);
}

// --- QueryEngine -----------------------------------------------------------

TEST(QueryEngineTest, BatchMatchesSingleQueryReference) {
  // The engine's one evaluation path (the group filter) against the fused
  // scan reference, with the answer cache off (every query evaluated,
  // in-batch duplicates deduplicated by canonical key) and on (a cold batch
  // of misses, then the same batch served from the cache).
  for (size_t cache_capacity : {size_t(0), size_t(1) << 16}) {
    SCOPED_TRACE("cache_capacity " + std::to_string(cache_capacity));
    QueryEngineOptions options;
    options.num_threads = 4;
    options.cache_capacity = cache_capacity;
    Served s = MakeServed(options);
    auto snap = *s.store->Get("simple");

    std::vector<CountQuery> batch = AllQueries(snap->bundle.data);
    // Repeat the batch inside itself so the duplicate-copy path runs too.
    const size_t distinct = batch.size();
    for (size_t i = 0; i < distinct; ++i) batch.push_back(batch[i]);
    for (bool warm : {false, true}) {
      auto result = s.engine->AnswerBatch("simple", batch);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->answers.size(), batch.size());
      EXPECT_EQ(result->strategy_used, EvalStrategy::kPostings);
      const bool expect_cached = warm && cache_capacity > 0;
      EXPECT_EQ(result->cache_hits, expect_cached ? batch.size() : 0u);
      for (size_t i = 0; i < batch.size(); ++i) {
        const Answer ref = EvaluateUncached(*snap, batch[i]);
        EXPECT_EQ(result->answers[i].observed, ref.observed) << "query " << i;
        EXPECT_EQ(result->answers[i].matched_size, ref.matched_size);
        EXPECT_DOUBLE_EQ(result->answers[i].estimate, ref.estimate);
        EXPECT_EQ(result->answers[i].cached, expect_cached);
      }
    }
  }
}

TEST(QueryEngineTest, ObservedCountsAreExactForUnboundQuery) {
  Served s = MakeServed();
  auto snap = *s.store->Get("simple");
  CountQuery q(3);  // no NA conditions: matches the whole release
  q.sa_code = 0;
  auto a = s.engine->AnswerOne("simple", q);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->matched_size, snap->index.num_records());
  EXPECT_EQ(a->observed, snap->bundle.data.SaHistogram()[0]);
}

TEST(QueryEngineTest, SecondBatchIsFullyCached) {
  QueryEngineOptions options;
  options.num_threads = 2;
  Served s = MakeServed(options);
  std::vector<CountQuery> batch =
      AllQueries((*s.store->Get("simple"))->bundle.data);

  auto cold = *s.engine->AnswerBatch("simple", batch);
  EXPECT_EQ(cold.cache_hits, 0u);
  auto warm = *s.engine->AnswerBatch("simple", batch);
  EXPECT_EQ(warm.cache_hits, batch.size());
  EXPECT_EQ(warm.cache_misses, 0u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(warm.answers[i].cached);
    EXPECT_EQ(warm.answers[i].observed, cold.answers[i].observed);
    EXPECT_DOUBLE_EQ(warm.answers[i].estimate, cold.answers[i].estimate);
  }
}

TEST(QueryEngineTest, DuplicateQueriesInOneBatchShareEvaluation) {
  Served s = MakeServed();
  CountQuery q(3);
  q.na_predicate.Bind(0, 0);
  q.sa_code = 1;
  std::vector<CountQuery> batch{q, q, q};
  auto result = *s.engine->AnswerBatch("simple", batch);
  EXPECT_EQ(result.cache_misses, 3u);  // none served from the cache...
  for (size_t i = 1; i < batch.size(); ++i) {  // ...but all agree
    EXPECT_EQ(result.answers[i].observed, result.answers[0].observed);
    EXPECT_DOUBLE_EQ(result.answers[i].estimate, result.answers[0].estimate);
  }
}

TEST(QueryEngineTest, RepublishInvalidatesCacheViaEpoch) {
  Served s = MakeServed();
  std::vector<CountQuery> batch =
      AllQueries((*s.store->Get("simple"))->bundle.data);

  auto cold = *s.engine->AnswerBatch("simple", batch);
  EXPECT_EQ(cold.epoch, 1u);
  ASSERT_TRUE(s.store->Publish("simple", MakeBundle(99)).ok());

  // New epoch: nothing may be served from the stale epoch's entries.
  auto after = *s.engine->AnswerBatch("simple", batch);
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_EQ(after.cache_hits, 0u);
  // The new epoch's answers come from the new (differently-seeded) release.
  auto snap = *s.store->Get("simple");
  for (size_t i = 0; i < batch.size(); ++i) {
    const Answer ref = EvaluateUncached(*snap, batch[i]);
    EXPECT_EQ(after.answers[i].observed, ref.observed);
  }
}

// The pinned-snapshot overload keeps serving the epoch the caller resolved
// its queries against, even after a republish (the wire front end depends
// on this to avoid evaluating old codes on a new dictionary).
TEST(QueryEngineTest, PinnedSnapshotSurvivesRepublish) {
  Served s = MakeServed();
  auto pinned = *s.store->Get("simple");
  std::vector<CountQuery> batch = AllQueries(pinned->bundle.data);
  ASSERT_TRUE(s.store->Publish("simple", MakeBundle(77)).ok());

  auto result = *s.engine->AnswerBatch("simple", pinned, batch);
  EXPECT_EQ(result.epoch, 1u);  // still the pinned epoch, not 2
  for (size_t i = 0; i < batch.size(); ++i) {
    const Answer ref = EvaluateUncached(*pinned, batch[i]);
    EXPECT_EQ(result.answers[i].observed, ref.observed);
  }
  EXPECT_FALSE(s.engine->AnswerBatch("simple", nullptr, batch).ok());
}

TEST(QueryEngineTest, ValidatesQueriesAgainstReleaseSchema) {
  Served s = MakeServed();
  EXPECT_FALSE(s.engine->AnswerBatch("missing", {}).ok());

  CountQuery bad_arity(5);
  bad_arity.sa_code = 0;
  EXPECT_FALSE(s.engine->AnswerOne("simple", bad_arity).ok());

  CountQuery bad_sa(3);
  bad_sa.sa_code = 3;  // m = 3: codes 0..2
  EXPECT_FALSE(s.engine->AnswerOne("simple", bad_sa).ok());

  CountQuery binds_sa(3);
  binds_sa.na_predicate.Bind(2, 0);  // attribute 2 is the SA
  EXPECT_FALSE(s.engine->AnswerOne("simple", binds_sa).ok());
}

// Readers keep answering (from some consistent epoch) while a republisher
// swaps snapshots underneath them: every batch must be internally
// consistent with the snapshot of the epoch it reports.
TEST(QueryEngineTest, ConcurrentReadersAndRepublisherStayConsistent) {
  QueryEngineOptions options;
  options.num_threads = 2;
  Served s = MakeServed(options);
  std::vector<CountQuery> batch =
      AllQueries((*s.store->Get("simple"))->bundle.data);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto result = s.engine->AnswerBatch("simple", batch);
        if (!result.ok()) {
          failures++;
          continue;
        }
        // Every answer's matched size must be bounded by the release size
        // of SOME epoch — all our releases are ~10,000 records, so a torn
        // read mixing epochs would show up as a wild value.
        for (const Answer& a : result->answers) {
          if (a.matched_size > 12000u) failures++;
        }
      }
    });
  }
  std::thread republisher([&] {
    for (uint64_t i = 0; i < 20; ++i) {
      if (!s.store->Publish("simple", MakeBundle(100 + i)).ok()) failures++;
    }
    stop.store(true);
  });
  republisher.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*s.store->Get("simple"))->epoch, 21u);
}

// --- consistency with the offline evaluation path --------------------------

// The engine's estimates against an SPS release must agree with what the
// offline EvaluateRelativeError pipeline computes from the same observed
// histograms: both implement est = |S*| F' (Lemma 2(ii)).
TEST(QueryEngineTest, AgreesWithOfflineEvaluationPipeline) {
  Table raw = *recpriv::datagen::GenerateSimpleExact(MakeSpec());

  Served s = MakeServed();
  auto snap = *s.store->Get("simple");
  std::vector<CountQuery> batch = AllQueries(raw);
  auto result = *s.engine->AnswerBatch("simple", batch);

  const recpriv::perturb::UniformPerturbation up{0.5, 3};
  for (size_t i = 0; i < batch.size(); ++i) {
    // Recompute est from the snapshot's group histograms by hand.
    uint64_t observed = 0;
    uint64_t matched = 0;
    for (uint32_t gi : snap->index.MatchingGroups(batch[i].na_predicate)) {
      observed += snap->index.sa_count(gi, batch[i].sa_code);
      matched += snap->index.group_size(gi);
    }
    EXPECT_EQ(result.answers[i].observed, observed);
    EXPECT_DOUBLE_EQ(result.answers[i].estimate,
                     recpriv::perturb::MleCount(up, observed, matched));
  }
}

// --- wire protocol ---------------------------------------------------------

TEST(WireTest, ListQueryStatsRoundTrip) {
  Served s = MakeServed();

  JsonValue list = *JsonValue::Parse(
      HandleRequestLine(R"({"op":"list"})", *s.engine));
  EXPECT_TRUE((*list.Get("ok"))->AsBool().ValueOrDie());
  ASSERT_EQ((*list.Get("releases"))->size(), 1u);

  const std::string query_line =
      R"({"op":"query","release":"simple","queries":[)"
      R"({"where":{"Job":"eng"},"sa":"flu"},)"
      R"({"sa":"bc"}]})";
  JsonValue response = *JsonValue::Parse(
      HandleRequestLine(query_line, *s.engine));
  ASSERT_TRUE((*response.Get("ok"))->AsBool().ValueOrDie());
  EXPECT_EQ((*response.Get("epoch"))->AsInt().ValueOrDie(), 1);
  const JsonValue& answers = **response.Get("answers");
  ASSERT_EQ(answers.size(), 2u);

  // First answer must equal the engine's own answer for the same query.
  auto snap = *s.store->Get("simple");
  CountQuery q(3);
  q.na_predicate.Bind(0, 0);  // Job=eng has code 0 (first group)
  q.sa_code = 0;              // flu
  const Answer ref = EvaluateUncached(*snap, q);
  const JsonValue& first = **answers.At(0);
  EXPECT_EQ((*first.Get("observed"))->AsInt().ValueOrDie(),
            int64_t(ref.observed));
  EXPECT_DOUBLE_EQ((*first.Get("estimate"))->AsDouble().ValueOrDie(),
                   ref.estimate);

  JsonValue stats = *JsonValue::Parse(
      HandleRequestLine(R"({"op":"stats"})", *s.engine));
  EXPECT_TRUE((*stats.Get("ok"))->AsBool().ValueOrDie());
  EXPECT_EQ((*(*stats.Get("cache"))->Get("misses"))->AsInt().ValueOrDie(), 2);
}

TEST(WireTest, ErrorsAreResponsesNotCrashes) {
  Served s = MakeServed();
  for (const char* line : {
           "not json at all",
           R"({"no_op":1})",
           R"({"op":"frobnicate"})",
           R"({"op":"query","release":"nope","queries":[]})",
           R"({"op":"query","release":"simple","queries":[{"sa":"typo"}]})",
           R"({"op":"query","release":"simple","queries":[)"
           R"({"where":{"Nope":"x"},"sa":"flu"}]})",
           R"({"op":"query","release":"simple","queries":[)"
           R"({"where":{"Disease":"flu"},"sa":"flu"}]})",
       }) {
    JsonValue response = *JsonValue::Parse(HandleRequestLine(line, *s.engine));
    EXPECT_FALSE((*response.Get("ok"))->AsBool().ValueOrDie()) << line;
    EXPECT_TRUE(response.Has("error")) << line;
  }
}

TEST(WireTest, ServeLinesSkipsBlanksAndCountsRequests) {
  Served s = MakeServed();
  std::istringstream in("{\"op\":\"list\"}\n\n   \n{\"op\":\"stats\"}\n");
  std::ostringstream out;
  EXPECT_EQ(ServeLines(in, out, *s.engine), 2u);
  // Two lines out, both parseable objects.
  std::istringstream lines(out.str());
  std::string line;
  size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonValue::Parse(line).ok());
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

}  // namespace
}  // namespace recpriv::serve
