// Micro-batching scheduler throughput on a same-release burst workload.
//
// The scenario the scheduler exists for: a republish invalidates the
// epoch-keyed answer cache, and every dashboard client re-issues its broad
// count queries at the fresh epoch at once — a thundering herd of
// one-query requests, heavily duplicated (the hottest templates are the
// m full-release 0-dimensional counts) but cache-cold. Per-request
// execution pays a full index pass per RIDER; the micro-batcher fuses the
// concurrent arrivals into one engine batch, which evaluates each distinct
// query ONCE (the batch dedup + one shared FlatGroupIndex pass) and fans
// the answers back out.
//
// The bench drives M submitter threads through the engine's scheduled
// entry point twice over identical deterministic Zipf-hot query streams
// against a ~10^5-group release, caches off (the cold regime above):
//
//   unbatched  window = 0: every request evaluates alone (PR-4 behavior);
//   batched    window > 0: same-snapshot requests fuse via MicroBatcher.
//
// Each arm is a single pass of 0.1-0.5 s, short enough that one slow
// stretch of the host decides a one-shot comparison, so the arms run in
// interleaved rounds (bench_util.h) and the gate reads the median of the
// per-round batched/unbatched throughput ratios. Answers are checked
// bit-identical across every run of both arms (the scheduler's core
// invariant), results go to BENCH_workload.json, and the run FAILS unless
// the median ratio is >= 1.5x, so CI holds the line.
//
// --quick shrinks the dataset, runs one round and skips the gate
// (plumbing smoke only).

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "exp/reporting.h"
#include "query/count_query.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "workload/synthetic.h"
#include "bench_util.h"

namespace {

using namespace recpriv;  // NOLINT

/// Interleaved unbatched/batched rounds of a full run.
constexpr size_t kRounds = 7;

struct ArmResult {
  double seconds = 0.0;
  client::SchedulerStats scheduler;  ///< zero-valued for the unbatched arm
  /// Per-thread answer streams for the bit-identity check.
  std::vector<std::vector<serve::Answer>> answers;
};

/// Deterministic per-thread query streams drawn Zipf-hot from a shared
/// template pool: the broad 0-dimensional counts (full-release scans, one
/// per SA value) are the hottest templates, followed by 1-dimensional
/// slices. That is the post-republish thundering-herd shape: every
/// dashboard re-issues the same handful of broad counts at a fresh epoch,
/// so concurrent requests are largely DUPLICATES — which the fused batch
/// evaluates once, while per-request execution scans once per rider.
std::vector<std::vector<query::CountQuery>> MakeStreams(
    const workload::SyntheticReleaseSpec& spec, size_t threads, size_t ops,
    size_t num_attributes, uint64_t seed) {
  Rng master(seed);

  // Template pool: 4 broad 0-dim counts, then 28 one-dim slices.
  std::vector<query::CountQuery> pool;
  for (size_t sa = 0; sa < spec.sa_domain; ++sa) {
    query::CountQuery q(num_attributes);
    q.sa_code = uint32_t(sa);
    pool.push_back(std::move(q));
  }
  while (pool.size() < 32) {
    query::CountQuery q(num_attributes);
    const size_t attr = master.NextUint64(2);  // A0 or A1
    q.na_predicate.Bind(attr,
                        uint32_t(master.NextUint64(spec.public_domains[attr])));
    q.dimensionality = 1;
    q.sa_code = uint32_t(master.NextUint64(spec.sa_domain));
    pool.push_back(std::move(q));
  }
  const AliasSampler hot(workload::ZipfWeights(pool.size(), 1.1));

  std::vector<std::vector<query::CountQuery>> streams(threads);
  for (size_t t = 0; t < threads; ++t) {
    Rng rng = master.Fork();
    streams[t].reserve(ops);
    for (size_t i = 0; i < ops; ++i) {
      streams[t].push_back(pool[hot.Sample(rng)]);
    }
  }
  return streams;
}

/// Runs one arm: every thread replays its stream as single-query requests
/// through the scheduled serving path (store lookup per request, exactly
/// like a wire request).
ArmResult RunArm(std::shared_ptr<serve::ReleaseStore> store,
                 const serve::QueryEngineOptions& options,
                 const std::vector<std::vector<query::CountQuery>>& streams) {
  serve::QueryEngine engine(store, options);
  ArmResult result;
  result.answers.resize(streams.size());
  std::atomic<size_t> failures{0};

  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(streams.size());
  for (size_t t = 0; t < streams.size(); ++t) {
    threads.emplace_back([&, t] {
      auto& out = result.answers[t];
      out.reserve(streams[t].size());
      for (const query::CountQuery& q : streams[t]) {
        auto snap = store->Get("burst");
        if (!snap.ok()) {
          failures.fetch_add(1);
          return;
        }
        auto batch = engine.AnswerBatchScheduled("burst", *std::move(snap),
                                                 {q});
        if (!batch.ok() || batch->answers.size() != 1) {
          failures.fetch_add(1);
          return;
        }
        out.push_back(batch->answers[0]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.seconds = timer.Seconds();

  if (failures.load() > 0) {
    std::cerr << "arm had " << failures.load() << " failed requests\n";
    std::exit(1);
  }
  if (auto stats = engine.scheduler_stats(); stats.has_value()) {
    result.scheduler = *stats;
  }
  return result;
}

int Run(int argc, char** argv) {
  auto flags = FlagSet::Parse(argc, argv, {"quick"});
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return 2;
  }
  const bool quick = *flags->GetBool("quick", false);
  const std::string out_path = flags->GetString("out", "BENCH_workload.json");
  const size_t threads = size_t(*flags->GetInt("threads", 16));
  const size_t ops = size_t(*flags->GetInt("ops", quick ? 40 : 150));
  const int window_us = int(*flags->GetInt("window-us", 100));

  exp::PrintBanner(std::cout,
                   "Micro-batching scheduler: fused vs per-request "
                   "evaluation on a same-release burst",
                   quick ? "quick smoke sizes (gate skipped)"
                         : "broad single-query bursts from concurrent "
                           "clients");

  workload::SyntheticReleaseSpec spec;
  spec.name = "burst";
  spec.data_seed = 2015;
  spec.records = quick ? 20000 : 220000;
  spec.public_domains = {16, 64, 128};
  spec.sa_domain = 4;
  std::cout << "building release (" << FormatWithCommas(int64_t(spec.records))
            << " records)...\n";
  auto bundle = workload::MakeBundle(spec, /*perturb_seed=*/7);
  if (!bundle.ok()) {
    std::cerr << bundle.status() << "\n";
    return 1;
  }
  auto store = std::make_shared<serve::ReleaseStore>();
  auto snap = store->Publish("burst", *std::move(bundle));
  if (!snap.ok()) {
    std::cerr << snap.status() << "\n";
    return 1;
  }
  const size_t num_groups = (*snap)->index.num_groups();
  const size_t num_attributes = spec.public_domains.size() + 1;
  std::cout << "release: " << FormatWithCommas(int64_t(num_groups))
            << " groups; " << threads << " threads x "
            << FormatWithCommas(int64_t(ops)) << " single-query requests\n\n";

  const auto streams = MakeStreams(spec, threads, ops, num_attributes, 42);
  const size_t total_ops = threads * ops;

  // Caching off in both arms: the bench measures evaluation sharing on a
  // cold burst, not the LRU (which serves repeats either way).
  serve::QueryEngineOptions unbatched_options;
  unbatched_options.cache_capacity = 0;
  serve::QueryEngineOptions batched_options = unbatched_options;
  batched_options.micro_batch_window_us = window_us;

  std::vector<ArmResult> unbatched_runs, batched_runs;
  const bench::PairedRounds rounds = bench::TimeInterleaved(
      quick ? 1 : kRounds,
      [&] {
        unbatched_runs.push_back(RunArm(store, unbatched_options, streams));
        return unbatched_runs.back().seconds;
      },
      [&] {
        batched_runs.push_back(RunArm(store, batched_options, streams));
        return batched_runs.back().seconds;
      });

  // The scheduler's core invariant: fused answers are bit-identical, in
  // every run of either arm.
  const auto& reference = unbatched_runs.front().answers;
  bool identical = true;
  for (const auto* runs : {&unbatched_runs, &batched_runs}) {
    for (const ArmResult& run : *runs) {
      for (size_t t = 0; t < streams.size() && identical; ++t) {
        for (size_t i = 0; i < streams[t].size() && identical; ++i) {
          const serve::Answer& a = reference[t][i];
          const serve::Answer& b = run.answers[t][i];
          identical = a.observed == b.observed &&
                      a.matched_size == b.matched_size &&
                      a.estimate == b.estimate;
        }
      }
    }
  }

  // Throughput per arm at its median round; scheduler counters summed over
  // the batched rounds.
  const double unbatched_seconds = bench::SpreadOf(rounds.baseline).median;
  const double batched_seconds = bench::SpreadOf(rounds.candidate).median;
  const double unbatched_qps = double(total_ops) / unbatched_seconds;
  const double batched_qps = double(total_ops) / batched_seconds;
  const bench::Spread spread = rounds.speedup();
  const double speedup = spread.median;
  client::SchedulerStats s;
  for (const ArmResult& run : batched_runs) {
    s.submissions += run.scheduler.submissions;
    s.coalesced_submissions += run.scheduler.coalesced_submissions;
    s.batches += run.scheduler.batches;
    s.batched_queries += run.scheduler.batched_queries;
    s.max_batch_queries =
        std::max(s.max_batch_queries, run.scheduler.max_batch_queries);
  }
  const double avg_batch =
      s.batches > 0 ? double(s.batched_queries) / double(s.batches) : 0.0;

  exp::AsciiTable table({"arm", "median seconds", "queries/s",
                         "fused batches", "avg queries/batch"});
  table.AddRow({"unbatched (window 0)", FormatDouble(unbatched_seconds, 3),
                FormatWithCommas(int64_t(unbatched_qps)), "-", "-"});
  table.AddRow({"batched (" + std::to_string(window_us) + "us)",
                FormatDouble(batched_seconds, 3),
                FormatWithCommas(int64_t(batched_qps)),
                std::to_string(s.batches), FormatDouble(avg_batch, 2)});
  table.Print(std::cout);
  std::cout << "\ncoalesced submissions: " << s.coalesced_submissions << "/"
            << s.submissions << " (max batch " << s.max_batch_queries
            << " queries)\n";
  std::cout << "answers bit-identical across arms: "
            << (identical ? "PASS" : "FAIL") << "\n";
  std::cout << "micro-batching speedup: median " << FormatDouble(speedup, 3)
            << "x over " << rounds.ratios.size() << " interleaved rounds (min "
            << FormatDouble(spread.min, 3) << "x, max "
            << FormatDouble(spread.max, 3) << "x)  ["
            << (quick ? "gate skipped (--quick)"
                      : (speedup >= 1.5 ? "PASS (>= 1.5x)" : "FAIL (< 1.5x)"))
            << "]\n";

  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("bench_workload/v1"));
  doc.Set("quick", JsonValue::Bool(quick));
  doc.Set("threads", JsonValue::Int(int64_t(threads)));
  doc.Set("ops_per_thread", JsonValue::Int(int64_t(ops)));
  doc.Set("groups", JsonValue::Int(int64_t(num_groups)));
  doc.Set("records", JsonValue::Int(int64_t(spec.records)));
  JsonValue arm_a = JsonValue::Object();
  arm_a.Set("seconds", JsonValue::Number(unbatched_seconds));
  arm_a.Set("qps", JsonValue::Number(unbatched_qps));
  doc.Set("unbatched", std::move(arm_a));
  JsonValue arm_b = JsonValue::Object();
  arm_b.Set("seconds", JsonValue::Number(batched_seconds));
  arm_b.Set("qps", JsonValue::Number(batched_qps));
  arm_b.Set("window_us", JsonValue::Int(window_us));
  arm_b.Set("batches", JsonValue::Int(int64_t(s.batches)));
  arm_b.Set("avg_batch_queries", JsonValue::Number(avg_batch));
  arm_b.Set("coalesced_submissions",
            JsonValue::Int(int64_t(s.coalesced_submissions)));
  arm_b.Set("max_batch_queries", JsonValue::Int(int64_t(s.max_batch_queries)));
  doc.Set("batched", std::move(arm_b));
  doc.Set("rounds", JsonValue::Int(int64_t(rounds.ratios.size())));
  doc.Set("speedup", JsonValue::Number(speedup));
  doc.Set("speedup_min", JsonValue::Number(spread.min));
  doc.Set("speedup_max", JsonValue::Number(spread.max));
  doc.Set("answers_identical", JsonValue::Bool(identical));
  {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    out << doc.ToString(2) << "\n";
  }
  std::cout << "results written to " << out_path << "\n";

  if (!identical) return 1;
  if (!quick && speedup < 1.5) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
