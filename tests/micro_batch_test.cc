// Property tests of the micro-batching query scheduler
// (serve/micro_batcher.h): whatever the batch window, the concurrency, the
// epoch pinning, or the republish races, scheduled answers must be
// BIT-IDENTICAL to the engine's unbatched reference evaluation — fusing is
// an execution strategy, never a semantic.
//
// All randomness is seeded through tests/testing_util.h, so a failure
// reproduces exactly (override with RECPRIV_SEED).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "client/in_process_client.h"
#include "common/random.h"
#include "query/count_query.h"
#include "serve/micro_batcher.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "serve/wire.h"
#include "testing_util.h"

namespace recpriv::serve {
namespace {

using recpriv::query::CountQuery;
using recpriv::testing::DemoBundle;
using recpriv::testing::HarnessSeed;

/// Random valid query against the demo schema (Job, City public; Disease
/// SA with m = 3): each public attribute bound with probability 1/2.
CountQuery RandomDemoQuery(Rng& rng) {
  CountQuery q(3);
  for (size_t attr = 0; attr < 2; ++attr) {
    if (rng.NextBernoulli(0.5)) {
      q.na_predicate.Bind(attr, uint32_t(rng.NextUint64(2)));
      ++q.dimensionality;
    }
  }
  q.sa_code = uint32_t(rng.NextUint64(3));
  return q;
}

bool SameAnswer(const Answer& a, const Answer& b) {
  return a.observed == b.observed && a.matched_size == b.matched_size &&
         a.estimate == b.estimate;
}

struct Stack {
  std::shared_ptr<ReleaseStore> store;
  std::shared_ptr<QueryEngine> engine;

  static Stack Make(int window_us, size_t retained_epochs = 64,
                    size_t cache_capacity = 1 << 12) {
    Stack s;
    s.store = std::make_shared<ReleaseStore>(retained_epochs);
    QueryEngineOptions options;
    options.num_threads = 2;
    options.cache_capacity = cache_capacity;
    options.micro_batch_window_us = window_us;
    s.engine = std::make_shared<QueryEngine>(s.store, options);
    return s;
  }
};

TEST(MicroBatchTest, ScheduledAnswersBitIdenticalAcrossWindows) {
  Rng seeder(HarnessSeed(0xBA7C4ED5u));
  for (int window_us : {0, 50, 200, 2000}) {
    Stack s = Stack::Make(window_us);
    ASSERT_TRUE(s.store->Publish("demo", DemoBundle(7)).ok());
    auto snap = s.store->Get("demo");
    ASSERT_TRUE(snap.ok());

    constexpr size_t kThreads = 4;
    constexpr size_t kOps = 40;
    // Streams and reference answers computed up front, unbatched.
    std::vector<std::vector<CountQuery>> streams(kThreads);
    std::vector<std::vector<Answer>> expected(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      Rng rng = seeder.Fork();
      for (size_t i = 0; i < kOps; ++i) {
        streams[t].push_back(RandomDemoQuery(rng));
        expected[t].push_back(EvaluateUncached(**snap, streams[t].back()));
      }
    }

    std::atomic<size_t> mismatches{0};
    std::atomic<size_t> failures{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < streams[t].size(); ++i) {
          auto result =
              s.engine->AnswerBatchScheduled("demo", *snap, {streams[t][i]});
          if (!result.ok() || result->answers.size() != 1) {
            failures.fetch_add(1);
            return;
          }
          if (!SameAnswer(result->answers[0], expected[t][i])) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0u) << "window " << window_us;
    EXPECT_EQ(mismatches.load(), 0u) << "window " << window_us;

    auto stats = s.engine->scheduler_stats();
    if (window_us == 0) {
      EXPECT_FALSE(stats.has_value());
    } else {
      ASSERT_TRUE(stats.has_value());
      EXPECT_EQ(stats->submissions, kThreads * kOps);
      EXPECT_EQ(stats->batched_queries, kThreads * kOps);
      EXPECT_EQ(stats->window_us, uint64_t(window_us));
    }
  }
}

TEST(MicroBatchTest, ConcurrentSubmissionsActuallyCoalesce) {
  // A wide window plus simultaneous submitters: at least one submission
  // must ride another's batch (20ms makes a miss essentially impossible,
  // and the assertion is on coalescing, not on exact batch shapes).
  Stack s = Stack::Make(/*window_us=*/20000);
  ASSERT_TRUE(s.store->Publish("demo", DemoBundle(7)).ok());
  auto snap = s.store->Get("demo");
  ASSERT_TRUE(snap.ok());

  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CountQuery q(3);
      q.sa_code = uint32_t(t % 3);
      auto result = s.engine->AnswerBatchScheduled("demo", *snap, {q});
      EXPECT_TRUE(result.ok());
    });
  }
  for (auto& thread : threads) thread.join();

  auto stats = s.engine->scheduler_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->submissions, kThreads);
  EXPECT_GT(stats->coalesced_submissions, 0u);
  EXPECT_LT(stats->batches, kThreads);
  EXPECT_GE(stats->max_batch_submissions, 2u);
}

TEST(MicroBatchTest, PinnedEpochBitIdenticalAcrossRepublishRace) {
  Stack s = Stack::Make(/*window_us=*/150);
  ASSERT_TRUE(s.store->Publish("pinned", DemoBundle(1)).ok());
  auto pinned = s.store->Get("pinned", 1);
  ASSERT_TRUE(pinned.ok());

  Rng seeder(HarnessSeed(0x9122BA7Cu));
  constexpr size_t kThreads = 3;
  constexpr size_t kOps = 30;
  std::vector<std::vector<CountQuery>> streams(kThreads);
  std::vector<std::vector<Answer>> expected(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    Rng rng = seeder.Fork();
    for (size_t i = 0; i < kOps; ++i) {
      streams[t].push_back(RandomDemoQuery(rng));
      expected[t].push_back(EvaluateUncached(**pinned, streams[t].back()));
    }
  }

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < streams[t].size(); ++i) {
        // Resolve the pin per request, as the service layer does.
        auto snap = s.store->Get("pinned", 1);
        if (!snap.ok()) {
          failures.fetch_add(1);
          return;
        }
        auto result = s.engine->AnswerBatchScheduled("pinned", *snap,
                                                     {streams[t][i]});
        if (!result.ok() || result->epoch != 1u) {
          failures.fetch_add(1);
          return;
        }
        if (!SameAnswer(result->answers[0], expected[t][i])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    for (uint64_t r = 0; r < 12; ++r) {
      ASSERT_TRUE(s.store->Publish("pinned", DemoBundle(100 + r)).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(400));
    }
  });
  for (auto& thread : threads) thread.join();
  writer.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);

  // Mixed epochs were in flight, and coalescing is keyed on the snapshot:
  // a pinned batch can never have fused with a current-epoch batch, which
  // is exactly why the answers stayed bit-identical.
  auto current = s.store->Get("pinned");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ((*current)->epoch, 13u);
}

TEST(MicroBatchTest, InvalidSubmissionFailsAloneAndNeverPoisonsABatch) {
  Stack s = Stack::Make(/*window_us=*/20000);
  ASSERT_TRUE(s.store->Publish("demo", DemoBundle(7)).ok());
  auto snap = s.store->Get("demo");
  ASSERT_TRUE(snap.ok());

  // Leader with a valid query, parked in its collection window.
  std::thread leader([&] {
    CountQuery q(3);
    q.sa_code = 1;
    auto result = s.engine->AnswerBatchScheduled("demo", *snap, {q});
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->answers.size(), 1u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  // A rider with an out-of-domain SA code must fail its own submission
  // (validated before coalescing), not the leader's batch.
  CountQuery bad(3);
  bad.sa_code = 99;
  auto rejected = s.engine->AnswerBatchScheduled("demo", *snap, {bad});
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  leader.join();

  auto stats = s.engine->scheduler_stats();
  ASSERT_TRUE(stats.has_value());
  // The rejected submission never became a rider.
  EXPECT_EQ(stats->batched_queries, 1u);
}

TEST(MicroBatchTest, DuplicateRidersShareOneEvaluation) {
  Stack s = Stack::Make(/*window_us=*/20000, /*retained_epochs=*/4,
                        /*cache_capacity=*/0);  // no LRU: dedup is the engine's
  ASSERT_TRUE(s.store->Publish("demo", DemoBundle(7)).ok());
  auto snap = s.store->Get("demo");
  ASSERT_TRUE(snap.ok());

  CountQuery hot(3);
  hot.sa_code = 2;
  const Answer expected = EvaluateUncached(**snap, hot);

  constexpr size_t kThreads = 4;
  std::atomic<size_t> bad{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto result = s.engine->AnswerBatchScheduled("demo", *snap, {hot});
      if (!result.ok() || !SameAnswer(result->answers[0], expected)) {
        bad.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(MicroBatchTest, FollowersNeverJoinAFullBatch) {
  // With single-query submissions, no fused batch may ever exceed the cap
  // under ANY interleaving: a full batch is never joined, even in the gap
  // between filling up and its leader closing it — the next submission
  // leads a fresh batch instead.
  Stack s;
  s.store = std::make_shared<ReleaseStore>();
  QueryEngineOptions options;
  options.num_threads = 2;
  options.micro_batch_window_us = 20000;
  options.micro_batch_max_queries = 2;
  s.engine = std::make_shared<QueryEngine>(s.store, options);
  ASSERT_TRUE(s.store->Publish("demo", DemoBundle(7)).ok());
  auto snap = s.store->Get("demo");
  ASSERT_TRUE(snap.ok());

  constexpr size_t kThreads = 6;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CountQuery q(3);
      q.sa_code = uint32_t(t % 3);
      if (!s.engine->AnswerBatchScheduled("demo", *snap, {q}).ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);

  auto stats = s.engine->scheduler_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->submissions, kThreads);
  EXPECT_LE(stats->max_batch_queries, 2u);
  EXPECT_GE(stats->batches, kThreads / 2);
}

TEST(MicroBatchTest, OversizedLeaderSubmissionSkipsTheWindow) {
  // max_batch_queries bounds LATENCY too: a submission already at (or
  // past) the cap must evaluate immediately, not park for the window.
  Stack s;
  s.store = std::make_shared<ReleaseStore>();
  QueryEngineOptions options;
  options.num_threads = 2;
  options.micro_batch_window_us = 1000000;  // 1s: a wait would be obvious
  options.micro_batch_max_queries = 4;
  s.engine = std::make_shared<QueryEngine>(s.store, options);
  ASSERT_TRUE(s.store->Publish("demo", DemoBundle(7)).ok());
  auto snap = s.store->Get("demo");
  ASSERT_TRUE(snap.ok());

  std::vector<CountQuery> big;
  for (uint32_t sa = 0; sa < 3; ++sa) {
    for (size_t d = 0; d < 2; ++d) {
      CountQuery q(3);
      if (d == 1) {
        q.na_predicate.Bind(0, 0);
        q.dimensionality = 1;
      }
      q.sa_code = sa;
      big.push_back(std::move(q));
    }
  }
  ASSERT_GT(big.size(), options.micro_batch_max_queries);

  const auto start = std::chrono::steady_clock::now();
  auto result = s.engine->AnswerBatchScheduled("demo", *snap, big);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), big.size());
  for (size_t i = 0; i < big.size(); ++i) {
    EXPECT_TRUE(
        SameAnswer(result->answers[i], EvaluateUncached(**snap, big[i])))
        << i;
  }
  EXPECT_LT(elapsed, std::chrono::milliseconds(500));
}

TEST(MicroBatchTest, NonPoolLeaderWithAllWorkersParkedAsFollowersCompletes) {
  // The nastiest shape: an EXTERNAL thread leads a batch while every pool
  // worker is parked as a follower of that same batch. The leader's fused
  // evaluation then runs ParallelFor from outside the pool with zero free
  // workers — it must complete anyway (the caller drains its own chunks;
  // common/thread_pool.cc), or the whole serving stack wedges. Before
  // caller participation this test hung; ctest's TIMEOUT would fail it.
  Stack s;
  s.store = std::make_shared<ReleaseStore>();
  QueryEngineOptions options;
  options.num_threads = 2;
  options.cache_capacity = 0;
  options.micro_batch_window_us = 30000;
  s.engine = std::make_shared<QueryEngine>(s.store, options);
  ASSERT_TRUE(s.store->Publish("demo", DemoBundle(7)).ok());
  auto snap = s.store->Get("demo");
  ASSERT_TRUE(snap.ok());

  // Leader: enough distinct queries that the fused evaluation takes the
  // parallel path rather than the single-grain inline shortcut.
  Rng rng(HarnessSeed(0xDEAD70C5u));
  std::vector<CountQuery> leader_batch;
  std::vector<Answer> expected;
  for (size_t i = 0; i < 8; ++i) {
    leader_batch.push_back(RandomDemoQuery(rng));
    expected.push_back(EvaluateUncached(**snap, leader_batch.back()));
  }

  std::atomic<size_t> follower_failures{0};
  std::thread leader([&] {
    auto result =
        s.engine->AnswerBatchScheduled("demo", *snap, leader_batch);
    ASSERT_TRUE(result.ok()) << result.status();
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(SameAnswer(result->answers[i], expected[i])) << i;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(3));

  // Park BOTH pool workers as followers of the leader's open batch.
  for (size_t w = 0; w < s.engine->pool().num_threads(); ++w) {
    s.engine->pool().Submit([&, w] {
      CountQuery q(3);
      q.sa_code = uint32_t(w % 3);
      auto result = s.engine->AnswerBatchScheduled("demo", *snap, {q});
      if (!result.ok()) follower_failures.fetch_add(1);
    });
  }
  leader.join();
  s.engine->pool().Wait();
  EXPECT_EQ(follower_failures.load(), 0u);

  auto stats = s.engine->scheduler_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->coalesced_submissions, 1u);
}

TEST(MicroBatchTest, SchedulerStatsSurfaceThroughServiceAndWire) {
  Stack s = Stack::Make(/*window_us=*/100);
  client::InProcessClient admin(s.engine);
  ASSERT_TRUE(admin.PublishBundle("demo", DemoBundle(7)).ok());
  client::QueryRequest request;
  request.release = "demo";
  request.queries.push_back(client::QuerySpec{{}, "flu"});
  ASSERT_TRUE(admin.Query(request).ok());

  auto stats = admin.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->scheduler.has_value());
  EXPECT_EQ(stats->scheduler->window_us, 100u);
  EXPECT_GE(stats->scheduler->submissions, 1u);

  // Wire v2 stats carries (and round-trips) the scheduler section.
  const std::string line =
      HandleRequestLine(R"({"v":2,"id":9,"op":"stats"})", *s.engine);
  EXPECT_NE(line.find("\"scheduler\""), std::string::npos) << line;
  auto parsed = wire::ParseResponse(line, 9);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto decoded = wire::DecodeStatsResponse(*parsed);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(decoded->scheduler.has_value());
  EXPECT_EQ(decoded->scheduler->window_us, 100u);

  // And without a scheduler the section is absent (golden transcripts pin
  // this: the stats op of an unscheduled engine is byte-stable).
  Stack plain = Stack::Make(/*window_us=*/0);
  client::InProcessClient plain_admin(plain.engine);
  ASSERT_TRUE(plain_admin.PublishBundle("demo", DemoBundle(7)).ok());
  const std::string plain_line =
      HandleRequestLine(R"({"v":2,"id":1,"op":"stats"})", *plain.engine);
  EXPECT_EQ(plain_line.find("\"scheduler\""), std::string::npos) << plain_line;
}

}  // namespace
}  // namespace recpriv::serve
