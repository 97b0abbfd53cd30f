// MicroBatcher: a micro-batching query scheduler over the QueryEngine.
//
// Concurrent serving sessions (TCP slices, in-process callers) mostly
// submit tiny batches — often a single count query per request. Each such
// request pays the engine's fixed costs alone: snapshot pin, validation,
// cache traffic, scratch setup, and one index pass that the columnar
// layout could have shared. The batcher coalesces submissions that target
// the SAME release snapshot and arrive within a short collection window
// into one fused QueryEngine::AnswerBatch call — one pass of the
// FlatGroupIndex answer kernel amortized over every rider — then splits
// the answers back per submission.
//
// Leader/follower protocol: the first submission for a (release, epoch)
// key opens a pending batch and becomes its leader; it waits up to
// `window_us` (or until `max_batch_queries` accumulate) while follower
// submissions append their queries, then closes the batch, evaluates the
// merged query list, and wakes the followers with their answer slices.
// While a leader evaluates, the next submission for the same key opens a
// fresh batch, so collection and evaluation pipeline under sustained load.
//
// Correctness invariants (proved by tests/micro_batch_test.cc):
//
//  * answers are BIT-IDENTICAL to unbatched evaluation: a fused batch is
//    evaluated against exactly the snapshot every rider resolved its query
//    codes with (the coalescing key is the snapshot epoch, and epochs are
//    never reused — serve/release_store.h), and batch evaluation itself is
//    deterministic per query;
//  * a submission with an invalid query fails alone: validation runs per
//    submission before it can join a batch, so one bad rider can never
//    poison a fused batch;
//  * per-submission results carry that submission's own cache attribution.
//
// Blocking: Submit blocks its calling thread for at most the window plus
// the fused evaluation. Server sessions run as cooperative pool slices, so
// a parked leader occupies one worker for the window — keep windows in the
// hundreds of microseconds. Deadlock-freedom rests on two ThreadPool
// properties: ParallelFor runs inline when the leader IS a pool task, and
// an external leader participates in draining its own chunks — so the
// fused evaluation completes even when every pool worker is parked as a
// follower of the very batch being evaluated
// (tests/micro_batch_test.cc: NonPoolLeaderWithAllWorkersParked...).

#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "client/api.h"
#include "common/result.h"
#include "query/count_query.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"

namespace recpriv::serve {

struct MicroBatcherOptions {
  /// Collection window after the leader's arrival, microseconds (> 0).
  int window_us = 200;
  /// A pending batch this large is closed and evaluated immediately.
  size_t max_batch_queries = 1024;
};

/// Coalesces same-snapshot query submissions into fused engine batches.
/// Thread-safe; one instance is shared by every serving session.
class MicroBatcher {
 public:
  MicroBatcher(QueryEngine& engine, MicroBatcherOptions options);

  /// Answers `queries` against `snap` (published under `release`), possibly
  /// fused with concurrent submissions that resolved against the same
  /// snapshot. Blocks until the answers are ready. The returned BatchResult
  /// covers exactly this submission's queries, in submission order.
  ///
  /// A submission whose `deadline` has already passed is fast-failed with
  /// DeadlineExceeded and never joins (or opens) a batch — a fused batch
  /// carries no dead riders. A leader with a deadline also caps its
  /// collection wait at its remaining budget, so a tight deadline cannot
  /// be spent parked in the window.
  Result<BatchResult> Submit(const std::string& release, SnapshotPtr snap,
                             std::vector<recpriv::query::CountQuery> queries,
                             const Deadline& deadline = std::nullopt);

  /// Point-in-time scheduler counters (window_us included).
  client::SchedulerStats Stats() const;

  const MicroBatcherOptions& options() const { return options_; }

 private:
  /// One open or evaluating fused batch.
  struct Pending {
    std::string release;
    SnapshotPtr snap;
    std::vector<recpriv::query::CountQuery> queries;
    size_t submissions = 0;
    bool full = false;  ///< reached max_batch_queries; wake the leader
    bool done = false;  ///< evaluation finished; slices may be taken
    Status status = Status::OK();
    std::vector<Answer> answers;  ///< merged answers when ok
    uint64_t epoch = 0;
    std::condition_variable cv;
  };
  using PendingPtr = std::shared_ptr<Pending>;

  /// This submission's slice of a finished batch (requires batch.done).
  Result<BatchResult> Slice(const Pending& batch, size_t offset,
                            size_t count) const;

  QueryEngine& engine_;
  const MicroBatcherOptions options_;

  mutable std::mutex mu_;
  /// Open (still collecting) batches by release + '\0' + epoch key.
  std::map<std::string, PendingPtr> open_;
  client::SchedulerStats stats_;
};

}  // namespace recpriv::serve
