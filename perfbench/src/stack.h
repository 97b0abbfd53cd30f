// The stack under test, hosted in-process exactly as recpriv_serve runs it
// by default: a durable ReleaseStore (snapshot directory) -> QueryEngine
// (default options: 65,536-entry answer cache, micro-batcher off, tenant
// admission off) -> serve::Server on loopback TCP with the replication ops
// enabled, plus one follower (its own durable store and a repl::Replicator
// subscribed over loopback).
//
// The publisher side is a core::StreamingPublisher driven through
// ReleaseStore::PublishIncremental — every workload publishes through the
// same path; the first publish carries all base rows as its delta.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "client/line_protocol_client.h"
#include "common/random.h"
#include "common/result.h"
#include "core/streaming.h"
#include "repl/replicator.h"
#include "repl/snapshot_provider.h"
#include "serve/query_engine.h"
#include "serve/release_store.h"
#include "serve/server.h"
#include "table/table.h"

namespace perfbench {

inline constexpr const char* kRelease = "bench";

/// Feeds rows [next_row, next_row + n) of `rows` into a publisher and
/// publishes them; the publisher and its RNG stream are the only state, so
/// a twin fed the same rows and seed publishes bit-identical epochs.
struct PublishFeed {
  static recpriv::Result<PublishFeed> Make(const recpriv::table::Table& rows,
                                           const recpriv::core::PrivacyParams&
                                               params,
                                           uint64_t seed);
  /// Inserts the next `n` rows (untimed by callers: row ingest is not
  /// part of a publish).
  recpriv::Status Insert(size_t n);

  const recpriv::table::Table* rows = nullptr;
  size_t next_row = 0;
  std::unique_ptr<recpriv::core::StreamingPublisher> publisher;
  recpriv::Rng rng;
};

/// One publish as the primary saw it.
struct PublishRecord {
  uint64_t epoch = 0;
  uint64_t content_digest = 0;
  size_t delta_rows = 0;
  double publish_ms = 0.0;  ///< ReleaseStore::PublishIncremental wall time
  double lag_ms = -1.0;     ///< publish return -> follower WaitForEpoch
  uint64_t snapshot_bytes = 0;
};

class Stack {
 public:
  /// Starts primary and follower under `dir` (created; removed again by
  /// the destructor).
  static recpriv::Result<std::unique_ptr<Stack>> Start(const std::string& dir);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Inserts `delta_rows` more rows into `feed` and publishes them through
  /// ReleaseStore::PublishIncremental (timed), then waits for the follower
  /// to install the epoch (timed from publish return).
  recpriv::Result<PublishRecord> Publish(PublishFeed& feed, size_t delta_rows,
                                         int follower_timeout_ms);

  recpriv::Result<std::unique_ptr<recpriv::client::LineProtocolClient>>
  Connect() const;

  /// Follower-installed content digest of every epoch it installed.
  std::map<uint64_t, uint64_t> FollowerDigests() const;

  /// Compares the .rps image digests of every epoch both sides still
  /// retain; returns (compared, mismatched).
  std::pair<uint64_t, uint64_t> CompareRetainedImages() const;

  recpriv::serve::ReleaseStore& store() { return *store_; }
  recpriv::repl::Replicator& replicator() { return *replicator_; }

 private:
  Stack() = default;
  /// Stops the follower and the server.
  void Stop();

  std::string dir_;
  std::shared_ptr<recpriv::serve::ReleaseStore> store_;
  std::shared_ptr<recpriv::serve::QueryEngine> engine_;
  std::unique_ptr<recpriv::repl::SnapshotProvider> provider_;
  std::unique_ptr<recpriv::serve::Server> server_;
  std::shared_ptr<recpriv::serve::ReleaseStore> follower_store_;
  std::unique_ptr<recpriv::repl::Replicator> replicator_;
  uint64_t follower_listener_ = 0;

  mutable std::mutex mu_;
  std::map<uint64_t, uint64_t> follower_digests_;  ///< guarded by mu_
};

/// Peak resident set of this process, in MB (VmHWM), since it started or
/// since the last ResetPeakRss.
double PeakRssMb();

/// Resets the peak resident set to the current one (clear_refs "5").
recpriv::Status ResetPeakRss();

}  // namespace perfbench
