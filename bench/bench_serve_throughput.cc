// Serving throughput: the parallel batched QueryEngine vs. a single-threaded
// loop over per-query evaluation (the offline EvaluatePool style: one
// allocating linear group scan per query), on the paper's workload — a
// 5,000-count-query pool (§6.1) against an SPS release of the synthetic
// CENSUS dataset served on its raw personal groups (~17k groups at 45k
// records; generalization would collapse them to a few hundred and make
// every query trivially fast — ungeneralized is the serving-relevant
// regime).
//
// Measures queries/sec vs. worker-thread count and vs. batch size (up to the
// micro-batcher's default 1,024-query cap and the whole pool), then the
// answer-cache effect: a repeated (warm) batch must be served at least an
// order of magnitude faster than the cold batch. Exits non-zero if batched
// serving fails to beat the baseline or the cache win is below 10x, so CI
// can gate on it.
//
// The pool repeats many queries, and the engine evaluates the duplicates
// of one batch once, so with its cache off a larger batch evaluates fewer
// distinct queries. Each batch-size row reports that count (distinct
// canonical keys per batch, summed over the row's batches) next to its
// q/s. With the cache on, as in these tables, repeats across batches are
// cache hits too, so every cold row evaluates the pool's distinct
// queries once.
//
// RECPRIV_FULL=1 doubles the dataset.

#include <algorithm>
#include <iostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"
#include "core/sps.h"
#include "datagen/census.h"
#include "exp/experiment.h"
#include "exp/reporting.h"
#include "query/canonical.h"
#include "query/evaluation.h"
#include "query/query_pool.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "testing_util.h"

namespace {

using namespace recpriv;  // NOLINT

constexpr size_t kPoolSize = 5000;

struct Timed {
  double seconds = 0.0;
  double qps = 0.0;
};

/// Distinct queries of `batch` by canonical key: what a cold engine
/// evaluates for it, since in-batch duplicates are answered once.
size_t DistinctQueries(const std::vector<query::CountQuery>& batch) {
  std::unordered_set<std::string> keys;
  for (const query::CountQuery& q : batch) keys.insert(query::CanonicalKey(q));
  return keys.size();
}

Timed Time(size_t queries, const std::function<void()>& fn) {
  WallTimer timer;
  fn();
  Timed t;
  t.seconds = timer.Seconds();
  t.qps = t.seconds > 0 ? double(queries) / t.seconds : 0.0;
  return t;
}

int Run() {
  exp::PrintBanner(std::cout,
                   "Serving throughput: batched parallel engine vs "
                   "single-threaded query loop",
                   "workload of EDBT'15 §6.1 (5,000-query pool, Eq. 11)");

  const size_t num_records = exp::FullScale() ? 90444 : 45222;
  std::cout << "preparing CENSUS (" << FormatWithCommas(int64_t(num_records))
            << " records, pool " << kPoolSize << ")...\n";
  Rng rng(recpriv::testing::HarnessSeed(2015));
  auto raw = *datagen::GenerateCensus({.num_records = num_records}, rng);
  auto raw_index = table::FlatGroupIndex::Build(raw);
  query::QueryPoolConfig pool_config;
  pool_config.pool_size = kPoolSize;
  std::vector<query::CountQuery> pool =
      *query::GenerateQueryPool(raw_index, pool_config, rng);
  if (pool.size() < kPoolSize) {
    std::cerr << "pool generation fell short: " << pool.size() << "\n";
    return 1;
  }

  // The served artifact: an SPS release on the raw personal groups.
  auto params = exp::DefaultParams(raw.schema()->sa_domain_size());
  auto sps = *core::SpsPerturbTable(params, raw, rng);
  std::string sensitive = sps.table.schema()->sensitive().name;
  auto store = std::make_shared<serve::ReleaseStore>();
  auto snap = *store->Publish(
      "census", analysis::ReleaseBundle{std::move(sps.table), params,
                                       std::move(sensitive), {}});
  std::cout << "release: " << FormatWithCommas(int64_t(snap->index.num_records()))
            << " records, " << FormatWithCommas(int64_t(snap->index.num_groups()))
            << " groups\n\n";

  // --- baseline: single-threaded loop over per-query evaluation ----------
  // (what an offline EvaluatePool-style consumer does: one allocating
  // linear scan of all groups per query)
  std::vector<serve::Answer> baseline_answers(pool.size());
  const Timed baseline = Time(pool.size(), [&] {
    for (size_t i = 0; i < pool.size(); ++i) {
      baseline_answers[i] = serve::EvaluateUncached(*snap, pool[i]);
    }
  });
  std::cout << "single-threaded loop baseline:  "
            << FormatWithCommas(int64_t(baseline.qps)) << " q/s ("
            << FormatDouble(baseline.seconds * 1e3, 4) << " ms)\n\n";

  // --- engine: queries/sec vs thread count --------------------------------
  exp::AsciiTable by_threads(
      {"threads", "cold_qps", "warm_qps", "speedup_vs_baseline"});
  double best_cold_qps = 0.0;
  double cold_1thread_seconds = 0.0;
  double warm_1thread_seconds = 0.0;
  for (size_t threads : {size_t(1), size_t(2), size_t(4)}) {
    serve::QueryEngineOptions options;
    options.num_threads = threads;
    serve::QueryEngine engine(store, options);

    serve::BatchResult cold_result;
    const Timed cold = Time(pool.size(), [&] {
      cold_result = *engine.AnswerBatch("census", pool);
    });
    serve::BatchResult warm_result;
    const Timed warm = Time(pool.size(), [&] {
      warm_result = *engine.AnswerBatch("census", pool);
    });
    if (warm_result.cache_hits != pool.size()) {
      std::cerr << "warm batch was not fully cached: "
                << warm_result.cache_hits << "\n";
      return 1;
    }
    // Answers must match the baseline exactly.
    for (size_t i = 0; i < pool.size(); ++i) {
      if (cold_result.answers[i].observed != baseline_answers[i].observed ||
          warm_result.answers[i].observed != baseline_answers[i].observed) {
        std::cerr << "answer mismatch at query " << i << "\n";
        return 1;
      }
    }
    best_cold_qps = std::max(best_cold_qps, cold.qps);
    if (threads == 1) {
      cold_1thread_seconds = cold.seconds;
      warm_1thread_seconds = warm.seconds;
    }
    by_threads.AddRow(
        {std::to_string(threads), FormatWithCommas(int64_t(cold.qps)),
         FormatWithCommas(int64_t(warm.qps)),
         FormatDouble(cold.qps / baseline.qps, 3) + "x"});
  }
  std::cout << "queries/sec vs thread count (batch = " << kPoolSize << ", "
            << FormatWithCommas(int64_t(DistinctQueries(pool)))
            << " distinct):\n";
  by_threads.Print(std::cout);

  // --- engine: queries/sec vs batch size ----------------------------------
  exp::AsciiTable by_batch(
      {"batch_size", "distinct_queries", "cold_qps", "warm_qps"});
  for (size_t batch_size :
       {size_t(1), size_t(64), size_t(512), size_t(1024), kPoolSize}) {
    serve::QueryEngineOptions options;
    serve::QueryEngine engine(store, options);
    std::vector<std::vector<query::CountQuery>> batches;
    size_t distinct = 0;
    for (size_t lo = 0; lo < pool.size(); lo += batch_size) {
      const size_t hi = std::min(pool.size(), lo + batch_size);
      batches.emplace_back(pool.begin() + lo, pool.begin() + hi);
      distinct += DistinctQueries(batches.back());
    }
    const Timed cold = Time(pool.size(), [&] {
      for (const auto& b : batches) {
        if (!engine.AnswerBatch("census", b).ok()) std::abort();
      }
    });
    const Timed warm = Time(pool.size(), [&] {
      for (const auto& b : batches) {
        if (!engine.AnswerBatch("census", b).ok()) std::abort();
      }
    });
    by_batch.AddRow({std::to_string(batch_size),
                     FormatWithCommas(int64_t(distinct)),
                     FormatWithCommas(int64_t(cold.qps)),
                     FormatWithCommas(int64_t(warm.qps))});
  }
  std::cout << "\nqueries/sec vs batch size (default threads; "
               "distinct_queries = distinct per batch, summed):\n";
  by_batch.Print(std::cout);

  // --- verdicts ------------------------------------------------------------
  const double engine_speedup = best_cold_qps / baseline.qps;
  const double cache_speedup =
      warm_1thread_seconds > 0 ? cold_1thread_seconds / warm_1thread_seconds
                               : 0.0;
  std::cout << "\nbatched engine (best cold) vs single-threaded loop: "
            << FormatDouble(engine_speedup, 3) << "x  ["
            << (engine_speedup > 1.0 ? "PASS" : "FAIL") << "]\n";
  std::cout << "cached repeat batch vs cold batch (1 thread): "
            << FormatDouble(cache_speedup, 3) << "x  ["
            << (cache_speedup >= 10.0 ? "PASS" : "FAIL") << "]\n";
  return (engine_speedup > 1.0 && cache_speedup >= 10.0) ? 0 : 1;
}

}  // namespace

int main() { return Run(); }
