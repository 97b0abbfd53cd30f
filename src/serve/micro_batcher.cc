#include "serve/micro_batcher.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace recpriv::serve {

using recpriv::query::CountQuery;

namespace {

/// Coalescing key: submissions may fuse iff they resolved their query codes
/// against the same snapshot. Epochs are never reused for a name (even
/// across Drop + republish — serve/release_store.h), so (release, epoch)
/// identifies one immutable snapshot.
std::string BatchKey(const std::string& release, uint64_t epoch) {
  std::string key = release;
  key.push_back('\0');
  key += std::to_string(epoch);
  return key;
}

}  // namespace

MicroBatcher::MicroBatcher(QueryEngine& engine, MicroBatcherOptions options)
    : engine_(engine), options_(options) {
  stats_.window_us = uint64_t(std::max(options_.window_us, 0));
}

Result<BatchResult> MicroBatcher::Slice(const Pending& batch, size_t offset,
                                        size_t count) const {
  RECPRIV_RETURN_NOT_OK(batch.status);
  BatchResult out;
  out.epoch = batch.epoch;
  out.answers.assign(batch.answers.begin() + offset,
                     batch.answers.begin() + offset + count);
  for (const Answer& a : out.answers) {
    if (a.cached) {
      ++out.cache_hits;
    } else {
      ++out.cache_misses;
    }
  }
  return out;
}

Result<BatchResult> MicroBatcher::Submit(const std::string& release,
                                         SnapshotPtr snap,
                                         std::vector<CountQuery> queries,
                                         const Deadline& deadline) {
  if (snap == nullptr) {
    return Status::InvalidArgument("MicroBatcher::Submit: null snapshot");
  }
  // Shed BEFORE coalescing: a past-deadline submission must never become
  // a rider whose answers nobody will read.
  if (DeadlineExpired(deadline)) {
    return Status::DeadlineExceeded(
        "deadline passed before the submission could join a batch");
  }
  // Validate BEFORE coalescing: a bad query fails its own submission only.
  RECPRIV_RETURN_NOT_OK(ValidateBatchForSnapshot(*snap, queries));
  if (queries.empty()) {
    return engine_.AnswerBatch(release, std::move(snap), {});
  }
  const std::string key = BatchKey(release, snap->epoch);
  const size_t count = queries.size();

  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.submissions;

  auto it = open_.find(key);
  if (it != open_.end() && !it->second->full) {
    // Follower: ride the open batch and wait for its leader to evaluate.
    // A full batch is never joined (the cap bounds fused-batch size even
    // in the gap between a batch filling up and its leader closing it) —
    // the submission falls through and leads a fresh batch instead.
    PendingPtr batch = it->second;
    const size_t offset = batch->queries.size();
    batch->queries.insert(batch->queries.end(),
                          std::make_move_iterator(queries.begin()),
                          std::make_move_iterator(queries.end()));
    ++batch->submissions;
    ++stats_.coalesced_submissions;
    if (batch->queries.size() >= options_.max_batch_queries) {
      batch->full = true;
      batch->cv.notify_all();  // wake the leader early
    }
    batch->cv.wait(lock, [&] { return batch->done; });
    return Slice(*batch, offset, count);
  }

  // Leader: open a batch, collect riders for the window, then evaluate.
  PendingPtr batch = std::make_shared<Pending>();
  batch->release = release;
  batch->snap = std::move(snap);
  batch->queries = std::move(queries);
  batch->submissions = 1;
  // An already-full submission (or larger) evaluates immediately — the
  // cap bounds added latency for big requests, not just rider growth.
  batch->full = batch->queries.size() >= options_.max_batch_queries;
  open_.insert_or_assign(key, batch);

  // A leader with a deadline collects for at most its remaining budget:
  // the window must trade latency for fusion only when there is latency
  // to trade.
  auto window = std::chrono::microseconds(options_.window_us);
  if (deadline.has_value()) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::microseconds>(
            *deadline - std::chrono::steady_clock::now());
    window = std::min(window, std::max(remaining, window.zero()));
  }
  batch->cv.wait_for(lock, window, [&] { return batch->full; });
  // Close: a submission arriving from here on opens a fresh batch, so
  // collection of the next batch overlaps this one's evaluation. Erase
  // only OUR entry — a full batch may already have been displaced by a
  // newer leader's (insert_or_assign above).
  if (auto open_it = open_.find(key);
      open_it != open_.end() && open_it->second == batch) {
    open_.erase(open_it);
  }
  std::vector<CountQuery> merged;
  merged.swap(batch->queries);

  stats_.batched_queries += merged.size();
  ++stats_.batches;
  stats_.max_batch_queries =
      std::max<uint64_t>(stats_.max_batch_queries, merged.size());
  stats_.max_batch_submissions =
      std::max<uint64_t>(stats_.max_batch_submissions, batch->submissions);

  lock.unlock();
  // Every rider was validated before it could coalesce, so the merged
  // batch enters the engine through the pre-validated path.
  Result<BatchResult> merged_result =
      engine_.AnswerValidatedBatch(batch->release, batch->snap, merged);
  lock.lock();

  if (merged_result.ok()) {
    batch->epoch = merged_result->epoch;
    batch->answers = std::move(merged_result->answers);
  } else {
    batch->status = merged_result.status();
  }
  batch->done = true;
  batch->cv.notify_all();
  return Slice(*batch, 0, count);
}

client::SchedulerStats MicroBatcher::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace recpriv::serve
