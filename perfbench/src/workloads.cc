#include "workloads.h"

#include <malloc.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <optional>
#include <thread>

#include "analysis/release.h"
#include "client/tcp_transport.h"
#include "datagen/census.h"
#include "repl/snapshot_provider.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "stack.h"
#include "store/snapshot_format.h"
#include "store/snapshot_reader.h"
#include "store/snapshot_writer.h"
#include "table/flat_group_index.h"
#include "trace.h"

namespace perfbench {

namespace fs = std::filesystem;
using recpriv::Result;
using recpriv::Status;
using recpriv::StatusCode;
using recpriv::client::BatchAnswer;
using recpriv::client::LineProtocolClient;
using recpriv::client::QueryRequest;
using recpriv::serve::SnapshotPtr;
namespace client = recpriv::client;

namespace {

/// Load comes from at most this many connections and threads — the core
/// count of the 4-vCPU hosts the workloads are sized for.
constexpr size_t kConnections = 4;
constexpr uint64_t kWarmupStream = 1;
constexpr uint64_t kOpenStream = 2;
constexpr uint64_t kTracedOpenStream = 3;
constexpr uint64_t kClosedStreamBase = 16;
constexpr int kFollowerTimeoutMs = 20000;
/// Phases are cut into many short windows and a timing is taken over the
/// quieter half of them (QuietHalfPercentile, QuietHalfRate): a host stall
/// (on a virtual machine, a vCPU descheduled for milliseconds) then spoils
/// some windows instead of the whole phase. An open-loop window is 1,000
/// consecutive requests — enough to support p99, and at republish_follow's
/// rate exactly one publish cycle, so every window sees the same number of
/// publishes; requests past the last whole window are not windowed.
constexpr size_t kMaxWindows = 99;
constexpr size_t kWindowRequests = 1000;
constexpr size_t kClosedWindowsPerSecond = 4;
/// Requests the traced run replays at each depth: enough for a p99.
constexpr size_t kTraceSample = 1000;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;

  // Front-end bound: a small release (480 NA cells, ~20k records), one
  // query per request from 300 distinct queries — far fewer than the
  // 65,536-entry answer cache, so after warm-up every answer is a cache
  // hit and the time goes to net/server/wire/service. Runs by name only:
  // BENCHMARK.json leaves it out, because its ~0.15 ms requests make its
  // tail latency a reading of the host's vCPU steal (README.md).
  WorkloadSpec hot;
  hot.name = "serve_hot_cached";
  hot.synthetic.name = kRelease;
  hot.synthetic.records = 20000;
  hot.synthetic.public_domains = {6, 8, 10};
  hot.synthetic.sa_domain = 8;
  hot.synthetic.na_skew = 0.5;
  hot.base_rows = hot.synthetic.records;
  hot.mix.distinct = 300;
  hot.mix.dim_weights = {1, 2, 3, 3};
  hot.open_rate = 3000.0;
  hot.open_share = 0.6;
  hot.setups = 21;  // ~15 ms each: more samples for the noisiest medians
  hot.delta_rows = 200;
  hot.quiet_republishes = 21;
  out.push_back(hot);

  // Evaluation bound: CENSUS-300k (~43.6k personal groups), 48-64 queries
  // per request, mostly 3-dimensional, drawn from 1M query ids — 15x the
  // answer cache — so most queries miss and the time goes to the engine
  // and the table kernels. With 1-64 evenly mixed queries per request the
  // JSON codec and the TCP hand-off cost as much as evaluation and the
  // trace's largest self time fell in the server layer; this size and mix
  // keep the table kernels the largest.
  WorkloadSpec cold;
  cold.name = "serve_cold_scan";
  cold.census = true;
  cold.base_rows = 300000;
  cold.mix.distinct = 1000000;
  cold.mix.min_per_request = 48;
  cold.mix.max_per_request = 64;
  cold.mix.dim_weights = {0.02, 0.03, 0.15, 0.8};
  cold.open_rate = 500.0;
  cold.open_share = 0.75;
  cold.warmup_requests = 2000;
  cold.delta_rows = 3000;
  // ~0.4 s each. One publish reads 90-200 ms within a run, so the median
  // needs about as many samples as republish_follow's cadence gives.
  cold.quiet_republishes = 31;
  out.push_back(cold);

  // Writes beside reads: CENSUS-300k republished with a 1% delta on a
  // fixed cadence, while a low fixed-rate query stream reads the primary.
  // One publish plus the follower's transfer took 330-510 ms on a 4-vCPU
  // virtual machine. At a 500 ms cadence the slower cycles overran, and a
  // publish then started under the previous transfer, so a slower host
  // moved publish_ms, replication_lag_ms and the readers' latency by more
  // than its own slowdown. At 1 s every cycle keeps its slack.
  WorkloadSpec repub;
  repub.name = "republish_follow";
  repub.census = true;
  repub.base_rows = 300000;
  repub.mix.distinct = 1000000;
  repub.mix.min_per_request = 1;
  repub.mix.max_per_request = 16;
  repub.mix.dim_weights = {0.02, 0.08, 0.4, 0.5};
  repub.open_rate = 1000.0;
  repub.open_share = 0.75;
  repub.warmup_requests = 1000;
  repub.delta_rows = 3000;
  repub.cadence_ms = 1000;
  out.push_back(repub);
  return out;
}

uint64_t AnswerFingerprint(uint64_t observed, uint64_t matched,
                           double estimate) {
  uint64_t bits = 0;
  std::memcpy(&bits, &estimate, sizeof bits);
  return MixSeed(MixSeed(observed, matched), bits);
}

/// Every answer served during a run, kept compact (16 bytes per query)
/// until verification after the timed window.
struct ServedLog {
  struct Entry {
    uint32_t request = 0;
    uint32_t id = 0;
    uint64_t fp = 0;
  };
  std::vector<uint64_t> request_epoch;
  std::vector<Entry> entries;
  uint64_t malformed = 0;  ///< answers whose row count != query count

  void Add(const std::vector<uint32_t>& ids, const BatchAnswer& answer) {
    if (answer.answers.size() != ids.size()) {
      ++malformed;
      return;
    }
    const uint32_t r = uint32_t(request_epoch.size());
    request_epoch.push_back(answer.epoch);
    for (size_t k = 0; k < ids.size(); ++k) {
      const auto& a = answer.answers[k];
      entries.push_back(
          {r, ids[k], AnswerFingerprint(a.observed, a.matched_size,
                                        a.estimate)});
    }
  }
  void Append(const ServedLog& other) {
    const uint32_t offset = uint32_t(request_epoch.size());
    request_epoch.insert(request_epoch.end(), other.request_epoch.begin(),
                         other.request_epoch.end());
    for (Entry e : other.entries) {
      e.request += offset;
      entries.push_back(e);
    }
    malformed += other.malformed;
  }
};

/// One load-generator connection's results.
struct ConnStats {
  ServedLog log;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::vector<uint32_t> window;  ///< open loop: i / kWindowRequests
  /// Closed loop: (completion time, queries answered) per request.
  std::vector<std::pair<int64_t, uint64_t>> completions;
  FailureCounts failures;
  uint64_t queries = 0;
  uint64_t completed = 0;
  Tracer tracer;
};

void SleepUntilNs(int64_t due_ns) {
  const int64_t now = NowNs();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

/// A client connection, or null (the next send then counts a transport
/// failure and retries the connect).
std::unique_ptr<LineProtocolClient> TryConnect(const Stack& stack) {
  auto client = stack.Connect();
  return client.ok() ? std::move(client).ValueOrDie() : nullptr;
}

/// Sends one request, classifying any failure; reconnects after a
/// transport failure. Returns true when answered.
bool Send(const Stack& stack, std::unique_ptr<LineProtocolClient>& client,
          const QueryRequest& request, const std::vector<uint32_t>& ids,
          ConnStats& out) {
  ++out.failures.attempted;
  if (client == nullptr) {
    client = TryConnect(stack);
    if (client == nullptr) {
      ++out.failures.transport_failures;
      return false;
    }
  }
  Result<BatchAnswer> answer = client->Query(request);
  if (!answer.ok()) {
    const Status& s = answer.status();
    if (s.code() == StatusCode::kIOError &&
        s.message().find("no response within") != std::string::npos) {
      ++out.failures.timeouts;
      client.reset();
    } else if (s.code() == StatusCode::kIOError ||
               s.code() == StatusCode::kUnavailable) {
      ++out.failures.transport_failures;
      client.reset();
    } else {
      ++out.failures.error_responses;
    }
    return false;
  }
  out.log.Add(ids, *answer);
  out.queries += ids.size();
  ++out.completed;
  return true;
}

void OpenLoopWorker(const Stack& stack, const QuerySet& qs,
                    const OpenLoopSchedule& schedule, size_t conn, bool traced,
                    ConnStats& out) {
  const uint64_t stream = traced ? kTracedOpenStream : kOpenStream;
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  // Sized up front, so the log's growth never shows in peak RSS.
  const size_t requests = schedule.count / kConnections + 1;
  out.log.request_epoch.reserve(requests);
  out.log.entries.reserve(requests * qs.mix().max_per_request);
  out.latency_ms.reserve(requests);
  out.late_ms.reserve(requests);
  out.window.reserve(requests);
  std::unique_ptr<LineProtocolClient> client = TryConnect(stack);
  for (size_t i = conn; i < schedule.count; i += kConnections) {
    const std::vector<uint32_t> ids = qs.RequestIds(stream, i);
    const QueryRequest request = qs.Request(kRelease, ids);
    const int64_t due = schedule.DueNs(i);
    SleepUntilNs(due);
    const int64_t sent = NowNs();
    const bool ok = Send(stack, client, request, ids, out);
    const int64_t done = NowNs();
    if (traced) out.tracer.Record("open_loop", "tcp.round_trip", i, sent, done);
    const DueTiming t = TimeFromDue(due, sent, done);
    out.late_ms.push_back(t.late_ms);
    out.window.push_back(uint32_t(i / kWindowRequests));
    // A failed request misses any latency limit.
    out.latency_ms.push_back(ok ? t.latency_ms
                                : std::numeric_limits<double>::infinity());
  }
}

void ClosedLoopWorker(const Stack& stack, const QuerySet& qs, size_t conn,
                      int64_t end_ns, ConnStats& out) {
  std::unique_ptr<LineProtocolClient> client = TryConnect(stack);
  for (uint64_t j = 0; NowNs() < end_ns; ++j) {
    const std::vector<uint32_t> ids =
        qs.RequestIds(kClosedStreamBase + conn, j);
    if (Send(stack, client, qs.Request(kRelease, ids), ids, out)) {
      out.completions.emplace_back(NowNs(), ids.size());
    }
  }
}

/// Sends `requests` (query-id lists) over kConnections connections,
/// request w on connection w % kConnections.
void SendAll(const Stack& stack, const QuerySet& qs,
             const std::vector<std::vector<uint32_t>>& requests,
             std::vector<ConnStats>& stats) {
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<LineProtocolClient> client = TryConnect(stack);
      for (size_t w = c; w < requests.size(); w += kConnections) {
        Send(stack, client, qs.Request(kRelease, requests[w]), requests[w],
             stats[c]);
      }
    });
  }
  for (auto& t : threads) t.join();
}

/// The warm-up sequence: every distinct query, twice over, when the set is
/// small; otherwise a fixed prefix of the warm-up request stream.
std::vector<std::vector<uint32_t>> WarmupRequests(const WorkloadSpec& spec,
                                                  const QuerySet& qs) {
  std::vector<std::vector<uint32_t>> out;
  if (spec.warmup_requests == 0) {
    for (int pass = 0; pass < 2; ++pass) {
      for (uint32_t id = 0; id < spec.mix.distinct; ++id) out.push_back({id});
    }
  } else {
    for (size_t w = 0; w < spec.warmup_requests; ++w) {
      out.push_back(qs.RequestIds(kWarmupStream, w));
    }
  }
  return out;
}

Result<recpriv::table::Table> MakeRows(const WorkloadSpec& spec, uint64_t seed,
                                       size_t rows) {
  if (spec.census) {
    recpriv::Rng rng(seed);
    return recpriv::datagen::GenerateCensus({.num_records = rows}, rng);
  }
  recpriv::workload::SyntheticReleaseSpec synthetic = spec.synthetic;
  synthetic.data_seed = seed;
  synthetic.records = rows;
  return recpriv::workload::MakeRawTable(synthetic);
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

/// Merges per-connection logs and failure counts into the run totals.
void Absorb(const std::vector<ConnStats>& stats, ServedLog& log,
            FailureCounts& failures) {
  for (const ConnStats& s : stats) {
    log.Append(s.log);
    failures += s.failures;
  }
}

// --- verification -----------------------------------------------------------

/// Checks every logged answer of `epoch` against EvaluateUncached over
/// `reference` (an independently rebuilt snapshot); marks requests with a
/// wrong answer in `bad`. Unique queries are evaluated once, in parallel.
void VerifyEpoch(const recpriv::analysis::ReleaseSnapshot& reference,
                 const QuerySet& qs, const ServedLog& log,
                 const std::vector<size_t>& entries, std::vector<char>& bad) {
  std::vector<uint32_t> ids;
  ids.reserve(entries.size());
  for (size_t e : entries) ids.push_back(log.entries[e].id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<uint64_t> expected(ids.size(), 0);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kConnections; ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(256)) < ids.size();) {
        for (size_t k = i; k < std::min(ids.size(), i + 256); ++k) {
          const recpriv::serve::Answer a =
              recpriv::serve::EvaluateUncached(reference, qs.Query(ids[k]));
          expected[k] =
              AnswerFingerprint(a.observed, a.matched_size, a.estimate);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t e : entries) {
    const ServedLog::Entry& entry = log.entries[e];
    const size_t k = size_t(
        std::lower_bound(ids.begin(), ids.end(), entry.id) - ids.begin());
    if (expected[k] != entry.fp) bad[entry.request] = 1;
  }
}

struct PublishTrace {
  std::vector<double> core_ms, store_publish_ms, release_store_self_ms,
      write_ms, open_ms, pack_ms, delta_rows, groups_touched, groups_carried;
  std::map<std::string, uint64_t> section_bytes;
};

const char* SectionName(uint32_t kind) {
  using recpriv::store::SectionKind;
  switch (SectionKind(kind)) {
    case SectionKind::kManifestJson: return "manifest_json";
    case SectionKind::kTableColumns: return "table_columns";
    case SectionKind::kNaCodes: return "na_codes";
    case SectionKind::kSaCounts: return "sa_counts";
    case SectionKind::kRowOffsets: return "row_offsets";
    case SectionKind::kRowValues: return "row_values";
    case SectionKind::kPackedKeys: return "packed_keys";
  }
  return "other";
}

/// Section kinds of a version-1 image are 1..kSectionKinds.
constexpr uint32_t kSectionKinds = 7;

/// Replays every publish on twin objects fed the same rows and seed:
/// a twin StreamingPublisher's epochs are rebuilt with the radix-sort
/// FlatGroupIndex::Build (independent of the run merge the primary used),
/// must match the published content digest and the follower's, and serve
/// as the reference for that epoch's answers. With `trace`, two more twins
/// are timed: one bare, and one through a durable ReleaseStore followed by
/// WriteSnapshot, OpenSnapshot and SnapshotProvider::Pack.
Status ReplayPublishes(const recpriv::table::Table& rows,
                       const recpriv::core::PrivacyParams& params,
                       uint64_t publish_seed,
                       const std::vector<PublishRecord>& records,
                       const std::map<uint64_t, uint64_t>& follower_digests,
                       const QuerySet& qs, const ServedLog& log,
                       const std::string& dir, bool trace, Tracer& tracer,
                       PublishTrace& pt, FailureCounts& failures,
                       std::vector<char>& bad_requests) {
  std::map<uint64_t, std::vector<size_t>> by_epoch;
  for (size_t e = 0; e < log.entries.size(); ++e) {
    by_epoch[log.request_epoch[log.entries[e].request]].push_back(e);
  }
  // Three twins fed the same rows and seed: the reference (untimed), and
  // with `trace` one timed bare and one timed through a durable store. The
  // timed twins run after the reference has freed its memory, so both see
  // the same warm allocator.
  RECPRIV_ASSIGN_OR_RETURN(PublishFeed twin,
                           PublishFeed::Make(rows, params, publish_seed));
  PublishFeed core_feed, store_feed;
  std::shared_ptr<recpriv::serve::ReleaseStore> twin_store;
  std::unique_ptr<recpriv::repl::SnapshotProvider> provider;
  if (trace) {
    RECPRIV_ASSIGN_OR_RETURN(core_feed,
                             PublishFeed::Make(rows, params, publish_seed));
    RECPRIV_ASSIGN_OR_RETURN(store_feed,
                             PublishFeed::Make(rows, params, publish_seed));
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir + "/store", ec);
    recpriv::serve::ReleaseStore::Options options;
    options.snapshot_dir = dir + "/store";
    twin_store = std::make_shared<recpriv::serve::ReleaseStore>(options);
    provider = std::make_unique<recpriv::repl::SnapshotProvider>(*twin_store);
  }
  const bool republishes = records.size() > 1;
  for (size_t p = 0; p < records.size(); ++p) {
    const PublishRecord& rec = records[p];
    // The steady-state publishes are the republishes when there are any.
    const bool sampled = !republishes || p > 0;
    {
      RECPRIV_RETURN_NOT_OK(twin.Insert(rec.delta_rows));
      RECPRIV_ASSIGN_OR_RETURN(recpriv::core::IncrementalPublishResult result,
                               twin.publisher->PublishIncremental(twin.rng));
      if (sampled) {
        pt.delta_rows.push_back(double(result.stats.delta_rows));
        pt.groups_touched.push_back(double(result.stats.groups_touched));
        pt.groups_carried.push_back(double(result.stats.groups_carried));
      }
      // Independent reference: the released table re-indexed from scratch.
      std::string sensitive = result.table.schema()->sensitive().name;
      recpriv::analysis::ReleaseBundle bundle{std::move(result.table), params,
                                              std::move(sensitive), {}};
      RECPRIV_ASSIGN_OR_RETURN(
          SnapshotPtr reference,
          recpriv::analysis::SnapshotRelease(std::move(bundle), rec.epoch));
      ++failures.attempted;  // the publish itself, and its replication
      // An epoch the follower never installed fails its image check too.
      auto f = follower_digests.find(rec.epoch);
      const bool digest_ok =
          reference->content_digest == rec.content_digest &&
          f != follower_digests.end() && f->second == rec.content_digest;
      if (!digest_ok) ++failures.digest_mismatches;
      if (auto it = by_epoch.find(rec.epoch); it != by_epoch.end()) {
        VerifyEpoch(*reference, qs, log, it->second, bad_requests);
        by_epoch.erase(it);
      }
    }

    if (!trace) continue;
    RECPRIV_RETURN_NOT_OK(core_feed.Insert(rec.delta_rows));
    const int64_t c0 = NowNs();
    RECPRIV_RETURN_NOT_OK(
        core_feed.publisher->PublishIncremental(core_feed.rng).status());
    const int64_t c1 = NowNs();
    tracer.Record("publish", "core.publish_incremental", rec.epoch, c0, c1);
    RECPRIV_RETURN_NOT_OK(store_feed.Insert(rec.delta_rows));
    const int64_t s0 = NowNs();
    RECPRIV_ASSIGN_OR_RETURN(
        SnapshotPtr snap,
        twin_store->PublishIncremental(kRelease, *store_feed.publisher,
                                       store_feed.rng));
    const int64_t s1 = NowNs();
    const int64_t rs = tracer.Record("publish", "release_store.publish",
                                     rec.epoch, s0, s1);
    const std::string path = dir + "/e" + std::to_string(rec.epoch) + ".rps";
    const int64_t w0 = NowNs();
    RECPRIV_RETURN_NOT_OK(recpriv::store::WriteSnapshot(*snap, kRelease, path));
    const int64_t w1 = NowNs();
    tracer.Record("publish", "store.write", rec.epoch, w0, w1, rs);
    RECPRIV_ASSIGN_OR_RETURN(recpriv::store::OpenedSnapshot opened,
                             recpriv::store::OpenSnapshot(path));
    const int64_t o1 = NowNs();
    tracer.Record("publish", "store.open", rec.epoch, w1, o1);
    RECPRIV_ASSIGN_OR_RETURN(recpriv::repl::SnapshotProvider::Packed packed,
                             provider->Pack(kRelease, snap));
    const int64_t k1 = NowNs();
    tracer.Record("publish", "repl.pack", rec.epoch, o1, k1);
    if (snap->content_digest != rec.content_digest ||
        opened.snapshot->content_digest != rec.content_digest ||
        packed.bytes == nullptr) {
      return Status::Internal("publish replay diverged from the published "
                              "epoch " + std::to_string(rec.epoch));
    }
    if (sampled) {
      const double core = double(c1 - c0) / 1e6;
      const double write = double(w1 - w0) / 1e6;
      pt.core_ms.push_back(core);
      pt.store_publish_ms.push_back(double(s1 - s0) / 1e6);
      pt.release_store_self_ms.push_back(
          SubtractChildren(double(s1 - s0) / 1e6, {core, write}));
      pt.write_ms.push_back(write);
      pt.open_ms.push_back(double(o1 - w1) / 1e6);
      pt.pack_ms.push_back(double(k1 - o1) / 1e6);
    }
    RECPRIV_ASSIGN_OR_RETURN(recpriv::store::SnapshotInfo info,
                             recpriv::store::InspectSnapshot(path));
    pt.section_bytes.clear();
    for (const auto& section : info.sections) {
      pt.section_bytes[SectionName(section.kind)] += section.bytes;
    }
    opened = {};
    std::error_code ec;
    fs::remove(path, ec);
  }
  // Answers from an epoch the primary never published cannot be right.
  for (const auto& [epoch, entries] : by_epoch) {
    for (size_t e : entries) bad_requests[log.entries[e].request] = 1;
  }
  if (trace) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  return Status::OK();
}

// --- layered request replay ------------------------------------------------

using recpriv::query::CountQuery;

std::vector<CountQuery> Batch(const QuerySet& qs,
                              const std::vector<uint32_t>& ids) {
  std::vector<CountQuery> batch;
  for (uint32_t id : ids) batch.push_back(qs.Query(id));
  return batch;
}

/// Runs `fn` as a task on the engine's pool and waits for it. The server
/// runs HandleRequestLine on a pool worker, where the engine's ParallelFor
/// runs inline; the wire, service and engine depths are replayed there
/// too, so each depth does the work it does inside the server.
template <typename Fn>
void RunOnPool(recpriv::serve::QueryEngine& engine, Fn&& fn) {
  std::promise<void> done;
  engine.pool().Submit([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

struct ReplayEngine {
  std::shared_ptr<recpriv::serve::ReleaseStore> store;
  std::shared_ptr<recpriv::serve::QueryEngine> engine;
  SnapshotPtr snap;
};

/// A fresh store + engine (default options) over the published image, its
/// answer cache warmed by `warm` through AnswerBatch — the same insert
/// sequence at every depth, so every depth's sample sees the same cache.
Result<ReplayEngine> OpenReplayEngine(
    const std::string& image, const QuerySet& qs,
    const std::vector<std::vector<uint32_t>>& warm) {
  ReplayEngine r;
  r.store = std::make_shared<recpriv::serve::ReleaseStore>();
  RECPRIV_RETURN_NOT_OK(r.store->OpenSnapshot(image).status());
  r.engine = std::make_shared<recpriv::serve::QueryEngine>(r.store);
  RECPRIV_ASSIGN_OR_RETURN(r.snap, r.store->Get(kRelease));
  for (const auto& ids : warm) {
    RECPRIV_RETURN_NOT_OK(
        r.engine->AnswerBatch(kRelease, r.snap, Batch(qs, ids)).status());
  }
  return r;
}

struct RequestTrace {
  std::vector<double> codec_us, server_self_us, wire_self_us, service_self_us,
      engine_batch_us, engine_self_us, table_us;
  double postings_ns = 0, scan_ns = 0, groups_matched = 0;
  uint64_t missed_queries = 0, batches_with_misses = 0, postings_batches = 0;
};

/// Replays `sample` one request at a time at each depth — TCP round trip;
/// client codec around HandleRequestLine; ExecuteQuery; AnswerBatch, then
/// the table kernels on each query it missed — each depth on its own fresh
/// engine over `image` after the same warm-up. Self time per request is
/// then a depth's span minus the next depth's.
Status ReplayRequests(const std::string& image, const QuerySet& qs,
                      const std::vector<std::vector<uint32_t>>& warm,
                      const std::vector<std::vector<uint32_t>>& sample,
                      Tracer& tracer, RequestTrace& rt,
                      FailureCounts& failures) {
  namespace wire = recpriv::serve::wire;
  // Depth 1: the TCP round trip through LineProtocolClient.
  {
    RECPRIV_ASSIGN_OR_RETURN(ReplayEngine r, OpenReplayEngine(image, qs, warm));
    RECPRIV_ASSIGN_OR_RETURN(auto server,
                             recpriv::serve::Server::Start(r.engine));
    RECPRIV_ASSIGN_OR_RETURN(
        auto client, recpriv::client::ConnectTcp("127.0.0.1", server->port()));
    for (size_t i = 0; i < sample.size(); ++i) {
      const QueryRequest request = qs.Request(kRelease, sample[i]);
      const int64_t t0 = NowNs();
      auto answer = client->Query(request);
      const int64_t t1 = NowNs();
      RECPRIV_RETURN_NOT_OK(answer.status());
      tracer.Record("tcp", "tcp.round_trip", i, t0, t1);
    }
    server->Stop();
  }
  // Depth 2: client codec around the wire dispatcher, no socket.
  {
    RECPRIV_ASSIGN_OR_RETURN(ReplayEngine r, OpenReplayEngine(image, qs, warm));
    for (size_t i = 0; i < sample.size(); ++i) {
      const QueryRequest request = qs.Request(kRelease, sample[i]);
      const uint64_t id = i + 1;
      int64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
      Status status;
      RunOnPool(*r.engine, [&] {
        t0 = NowNs();
        const std::string line =
            wire::EncodeQueryRequest(request, id).ToString();
        t1 = NowNs();
        const std::string response =
            recpriv::serve::HandleRequestLine(line, *r.engine);
        t2 = NowNs();
        auto parsed = wire::ParseResponse(response, id);
        status = parsed.ok() ? wire::DecodeQueryResponse(*parsed).status()
                             : parsed.status();
        t3 = NowNs();
      });
      RECPRIV_RETURN_NOT_OK(status);
      const int64_t root = tracer.Record("wire", "loopback", i, t0, t3);
      tracer.Record("wire", "client.encode", i, t0, t1, root);
      tracer.Record("wire", "wire.handle", i, t1, t2, root);
      tracer.Record("wire", "client.decode", i, t2, t3, root);
    }
  }
  // Depth 3: the typed service call.
  {
    RECPRIV_ASSIGN_OR_RETURN(ReplayEngine r, OpenReplayEngine(image, qs, warm));
    for (size_t i = 0; i < sample.size(); ++i) {
      const QueryRequest request = qs.Request(kRelease, sample[i]);
      int64_t t0 = 0, t1 = 0;
      Status status;
      RunOnPool(*r.engine, [&] {
        t0 = NowNs();
        status = recpriv::serve::ExecuteQuery(*r.engine, request).status();
        t1 = NowNs();
      });
      RECPRIV_RETURN_NOT_OK(status);
      tracer.Record("service", "service.execute", i, t0, t1);
    }
  }
  // Depth 4: the engine on pre-bound batches; then, outside the engine's
  // timing, the table kernels on each distinct query it missed.
  {
    RECPRIV_ASSIGN_OR_RETURN(ReplayEngine r, OpenReplayEngine(image, qs, warm));
    const recpriv::analysis::ReleaseSnapshot& snap = *r.snap;
    std::vector<std::vector<CountQuery>> batches(sample.size(),
                                                 std::vector<CountQuery>());
    std::vector<recpriv::serve::BatchResult> results(sample.size());
    std::vector<int64_t> span_ids(sample.size());
    for (size_t i = 0; i < sample.size(); ++i) {
      batches[i] = Batch(qs, sample[i]);
      int64_t t0 = 0, t1 = 0;
      Status status;
      RunOnPool(*r.engine, [&] {
        t0 = NowNs();
        auto result = r.engine->AnswerBatch(kRelease, r.snap, batches[i]);
        t1 = NowNs();
        status = result.status();
        if (result.ok()) results[i] = *std::move(result);
      });
      RECPRIV_RETURN_NOT_OK(status);
      span_ids[i] = tracer.Record("engine", "engine.answer_batch", i, t0, t1);
      rt.engine_batch_us.push_back(double(t1 - t0) / 1e3);
    }
    recpriv::table::AnswerScratch scratch;
    for (size_t i = 0; i < sample.size(); ++i) {
      std::vector<uint32_t> seen;
      double kernel_us = 0;
      for (size_t k = 0; k < batches[i].size(); ++k) {
        const recpriv::serve::Answer& a = results[i].answers[k];
        if (a.cached) continue;
        if (std::find(seen.begin(), seen.end(), sample[i][k]) != seen.end()) {
          continue;  // the engine evaluates in-batch duplicates once
        }
        seen.push_back(sample[i][k]);
        const CountQuery& q = batches[i][k];
        // The engine's posting path (kPostings): intersect, then sum.
        const int64_t p0 = NowNs();
        snap.postings->MatchingGroupsInto(q.na_predicate, scratch.intersect,
                                          scratch.groups);
        uint64_t observed = 0, matched = 0;
        for (uint32_t g : scratch.groups) {
          observed += snap.index.sa_count(g, q.sa_code);
          matched += snap.index.group_size(g);
        }
        const int64_t p1 = NowNs();
        uint64_t scan_observed = 0, scan_matched = 0;
        snap.index.AnswerInto(q.na_predicate, q.sa_code, scratch,
                              &scan_observed, &scan_matched);
        const int64_t p2 = NowNs();
        tracer.Record("engine", "table.postings", i, p0, p1, span_ids[i]);
        tracer.Record("engine", "table.scan", i, p1, p2, span_ids[i]);
        rt.postings_ns += double(p1 - p0);
        rt.scan_ns += double(p2 - p1);
        rt.groups_matched += double(scratch.groups.size());
        ++rt.missed_queries;
        kernel_us += double(p1 - p0) / 1e3;
        ++failures.attempted;
        if (observed != a.observed || matched != a.matched_size ||
            scan_observed != a.observed || scan_matched != a.matched_size) {
          ++failures.answer_mismatches;
        }
      }
      if (!seen.empty()) {
        ++rt.batches_with_misses;
        if (results[i].strategy_used ==
            recpriv::serve::EvalStrategy::kPostings) {
          ++rt.postings_batches;
        }
      }
      // On a pool worker the engine evaluates its misses inline, one after
      // another: the kernel time it waits for is their sum.
      rt.table_us.push_back(kernel_us);
      rt.engine_self_us.push_back(
          SubtractChildren(rt.engine_batch_us[i], {kernel_us}));
    }
  }
  // Self times per request, across depths.
  const auto tcp = tracer.DurationsUs("tcp", "tcp.round_trip");
  const auto enc = tracer.DurationsUs("wire", "client.encode");
  const auto dec = tracer.DurationsUs("wire", "client.decode");
  const auto handle = tracer.DurationsUs("wire", "wire.handle");
  const auto service = tracer.DurationsUs("service", "service.execute");
  for (size_t i = 0; i < sample.size(); ++i) {
    const double codec = enc.at(i) + dec.at(i);
    rt.codec_us.push_back(codec);
    rt.server_self_us.push_back(
        SubtractChildren(tcp.at(i), {codec, handle.at(i)}));
    rt.wire_self_us.push_back(SubtractChildren(handle.at(i), {service.at(i)}));
    rt.service_self_us.push_back(
        SubtractChildren(service.at(i), {rt.engine_batch_us[i]}));
  }
  return Status::OK();
}

// --- output ----------------------------------------------------------------

void Report(recpriv::JsonValue& report, const std::string& key, double v) {
  report.Set(key, recpriv::JsonValue::Number(JsonSafe(v)));
}

/// The sample rule on windowed latencies: every window must support `p`.
/// Puts the window count, the smallest window's sample count and the
/// highest percentile it supports in the report.
Status CheckWindows(const std::vector<std::vector<double>>& windows, double p,
                    recpriv::JsonValue& report) {
  size_t smallest = windows.empty() ? 0 : windows.front().size();
  for (const auto& w : windows) smallest = std::min(smallest, w.size());
  Report(report, "query_ms.windows", double(windows.size()));
  Report(report, "query_ms.samples_per_window", double(smallest));
  Report(report, "query_ms.highest_supported_percentile",
         HighestSupportedPercentile(smallest));
  if (!SupportsPercentile(smallest, p)) {
    return Status::FailedPrecondition(
        "open-loop window of " + std::to_string(smallest) +
        " requests cannot support the reported percentile (need " +
        std::to_string(MinSamplesFor(p)) + ")");
  }
  return Status::OK();
}

void PrintSelfTimeSummary(const std::string& workload, const RequestTrace& rt,
                          const PublishTrace& pt) {
  auto p50 = [](const std::vector<double>& v) { return Percentile(v, 0.5); };
  std::fprintf(stderr,
               "[%s] request path, self time per request (p50, us):\n"
               "  client.codec   %10.2f\n  server         %10.2f\n"
               "  wire           %10.2f\n  service        %10.2f\n"
               "  engine         %10.2f\n  table          %10.2f"
               "   (%llu missed queries)\n",
               workload.c_str(), p50(rt.codec_us), p50(rt.server_self_us),
               p50(rt.wire_self_us), p50(rt.service_self_us),
               p50(rt.engine_self_us), p50(rt.table_us),
               static_cast<unsigned long long>(rt.missed_queries));
  std::fprintf(stderr,
               "[%s] publish path, self time per publish (p50, ms):\n"
               "  core           %10.3f\n  release_store  %10.3f\n"
               "  store.write    %10.3f\n  store.open     %10.3f\n"
               "  repl.pack      %10.3f\n",
               workload.c_str(), p50(pt.core_ms),
               p50(pt.release_store_self_ms), p50(pt.write_ms),
               p50(pt.open_ms), p50(pt.pack_ms));
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  for (const WorkloadSpec& w : workloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

/// One run of one workload. Each phase is a method, called in order by
/// Execute(); the members carry what one phase hands to the next.
class Run {
 public:
  Run(const WorkloadSpec& spec, const RunOptions& options)
      : spec_(spec), options_(options), start_ns_(NowNs()) {}

  Result<RunResult> Execute() {
    RECPRIV_RETURN_NOT_OK(MakeInputs());
    RECPRIV_RETURN_NOT_OK(SetUp());
    RECPRIV_RETURN_NOT_OK(WarmUp());
    RECPRIV_RETURN_NOT_OK(OpenLoop());
    ClosedLoop();
    RECPRIV_RETURN_NOT_OK(KeepServedImage());
    RECPRIV_RETURN_NOT_OK(QuietRepublishes());
    RECPRIV_RETURN_NOT_OK(TearDown());
    RECPRIV_RETURN_NOT_OK(Verify());
    RunResult result;
    RECPRIV_RETURN_NOT_OK(options_.trace ? TraceMetrics(result)
                                         : EndToEndMetrics(result));
    std::error_code ec;
    fs::remove(image_, ec);
    result.failures = failures_;
    // Any failure fails the run: error responses, transport failures and
    // timeouts as much as wrong answers and image mismatches.
    result.correct = failures_.failed() == 0;
    Report(report_, "failed_frac", failures_.failed_frac());
    result.report = std::move(report_);
    return result;
  }

 private:
  void Progress(const char* what) const {
    std::fprintf(stderr, "[%s] %-22s at %6.2f s\n", spec_.name.c_str(), what,
                 double(NowNs() - start_ns_) / 1e9);
  }

  /// Sent / completed / failed requests of one phase, and for an open-loop
  /// phase how late the generator ran.
  void ReportPhase(const std::string& phase,
                   const std::vector<ConnStats>& stats) {
    FailureCounts counts;
    uint64_t completed = 0;
    std::vector<double> late;
    for (const ConnStats& s : stats) {
      counts += s.failures;
      completed += s.completed;
      late.insert(late.end(), s.late_ms.begin(), s.late_ms.end());
    }
    Report(report_, phase + ".sent", double(counts.attempted));
    Report(report_, phase + ".completed", double(completed));
    Report(report_, phase + ".failed", double(counts.failed()));
    if (!late.empty()) {
      Report(report_, phase + ".late_ms.p99", Percentile(late, 0.99));
    }
  }

  /// Data and queries from --seed; never timed.
  Status MakeInputs() {
    open_s_ = options_.seconds * spec_.open_share;
    closed_s_ = options_.seconds - open_s_;
    // A traced run spends the second half of its open-loop time on a
    // traced copy of the phase (a fresh request stream, same rate), for the
    // tracing overhead; both halves run under the same republish cadence.
    open_phases_ = options_.trace ? 2 : 1;
    const double phase_s = open_s_ / open_phases_;
    open_windows_ = OddWindowCount(std::min(
        kMaxWindows,
        OpenLoopSchedule::Make(0, spec_.open_rate, phase_s).count /
            kWindowRequests));
    const size_t max_republishes =
        spec_.cadence_ms > 0 ? size_t(open_s_ * 1000.0 / spec_.cadence_ms) + 1
                             : spec_.quiet_republishes;
    RECPRIV_ASSIGN_OR_RETURN(
        rows_, MakeRows(spec_, MixSeed(options_.seed, 1),
                        spec_.base_rows + max_republishes * spec_.delta_rows));
    params_.lambda = 0.3;
    params_.delta = 0.3;
    params_.retention_p = 0.5;
    params_.domain_m = rows_->schema()->sa_domain_size();
    publish_seed_ = MixSeed(options_.seed, 2);
    qs_ = std::make_unique<QuerySet>(rows_->schema(), MixSeed(options_.seed, 3),
                                     spec_.mix);
    warm_ = WarmupRequests(spec_, *qs_);
    report_.Set("workload", recpriv::JsonValue::String(spec_.name));
    Report(report_, "seed", double(options_.seed));
    Progress("inputs generated");
    return Status::OK();
  }

  /// Sets the stack up `setups` times — primary + follower, initial
  /// publish, follower first sync, first query over TCP — keeping the last.
  Status SetUp() {
    for (size_t k = 0; k < spec_.setups; ++k) {
      stack_.reset();
      // Hand the torn-down stack's pages back, so peak RSS reflects one
      // stack, not how the allocator happened to reuse the previous ones.
      malloc_trim(0);
      const int64_t t0 = NowNs();
      RECPRIV_ASSIGN_OR_RETURN(stack_,
                               Stack::Start(options_.workdir + "/stack"));
      RECPRIV_ASSIGN_OR_RETURN(
          feed_, PublishFeed::Make(*rows_, params_, publish_seed_));
      RECPRIV_ASSIGN_OR_RETURN(
          PublishRecord rec,
          stack_->Publish(feed_, spec_.base_rows, kFollowerTimeoutMs));
      RECPRIV_ASSIGN_OR_RETURN(auto client, stack_->Connect());
      const std::vector<uint32_t>& first_ids = warm_.front();
      RECPRIV_ASSIGN_OR_RETURN(
          BatchAnswer first, client->Query(qs_->Request(kRelease, first_ids)));
      setup_s_.push_back(double(NowNs() - t0) / 1e9);
      if (rec.lag_ms < 0) {
        return Status::Internal("follower did not sync the initial publish");
      }
      setup_publish_ms_.push_back(rec.publish_ms);
      setup_lag_ms_.push_back(rec.lag_ms);
      if (k + 1 == spec_.setups) {
        ++failures_.attempted;
        log_.Add(first_ids, first);
        records_ = {rec};
      }
    }
    std::fprintf(stderr, "[%s] set-ups (s / publish ms / lag ms):",
                 spec_.name.c_str());
    for (size_t k = 0; k < setup_s_.size(); ++k) {
      std::fprintf(stderr, " %.3f/%.1f/%.1f", setup_s_[k],
                   setup_publish_ms_[k], setup_lag_ms_[k]);
    }
    std::fprintf(stderr, "\n");
    // peak_rss_mb covers serving only: set-up transients (the initial
    // publish overlapping the follower's first sync) vary from run to run.
    setup_rss_mb_ = PeakRssMb();
    malloc_trim(0);
    RECPRIV_RETURN_NOT_OK(ResetPeakRss());
    Progress("set-ups done");
    return Status::OK();
  }

  /// Cache fill, lazy pool start and first mmap touch, untimed.
  Status WarmUp() {
    std::vector<ConnStats> stats(kConnections);
    SendAll(*stack_, *qs_, warm_, stats);
    Absorb(stats, log_, failures_);
    ReportPhase("warmup", stats);
    RECPRIV_ASSIGN_OR_RETURN(auto client, stack_->Connect());
    RECPRIV_ASSIGN_OR_RETURN(stats_before_, client->Stats());
    return Status::OK();
  }

  /// The open loop at the workload's fixed rate, with the publisher
  /// republishing on its cadence where the workload has one.
  Status OpenLoop() {
    const int64_t open_start = NowNs() + 20000000;
    const int64_t open_end = open_start + int64_t(open_s_ * 1e9);
    Status publisher_status;
    std::thread publisher;
    if (spec_.cadence_ms > 0) {
      publisher = std::thread([&] {
        for (int64_t j = 1;; ++j) {
          const int64_t due =
              open_start + j * int64_t(spec_.cadence_ms) * 1000000;
          if (due >= open_end) break;
          SleepUntilNs(due);
          auto rec =
              stack_->Publish(feed_, spec_.delta_rows, kFollowerTimeoutMs);
          if (!rec.ok()) {
            publisher_status = rec.status();
            break;
          }
          republished_.push_back(*rec);
        }
      });
    }
    const double phase_s = open_s_ / open_phases_;
    for (int phase = 0; phase < open_phases_; ++phase) {
      const OpenLoopSchedule schedule = OpenLoopSchedule::Make(
          open_start + int64_t(phase * phase_s * 1e9), spec_.open_rate,
          phase_s);
      open_stats_.emplace_back(kConnections);
      std::vector<std::thread> threads;
      for (size_t c = 0; c < kConnections; ++c) {
        threads.emplace_back(OpenLoopWorker, std::cref(*stack_),
                             std::cref(*qs_), schedule, c, phase == 1,
                             std::ref(open_stats_.back()[c]));
      }
      for (auto& t : threads) t.join();
    }
    if (publisher.joinable()) publisher.join();
    RECPRIV_RETURN_NOT_OK(publisher_status);
    // Peak memory since set-up, once the open loop (and any republishing)
    // is over and before the generator's own answer logs are merged: the
    // closed loop only adds log entries, which scale with throughput.
    peak_rss_mb_ = PeakRssMb();
    Report(report_, "peak_rss_mb.setups", setup_rss_mb_);
    for (const auto& phase : open_stats_) Absorb(phase, log_, failures_);
    ReportPhase("open_loop", open_stats_[0]);
    if (open_phases_ > 1) ReportPhase("open_loop_traced", open_stats_[1]);
    Progress("open loop done");
    return Status::OK();
  }

  /// Closed-loop saturation: kConnections connections, each waiting for
  /// its reply; throughput is measured over short windows.
  void ClosedLoop() {
    std::vector<ConnStats> closed(kConnections);
    const int64_t start = NowNs();
    const int64_t end = start + int64_t(closed_s_ * 1e9);
    closed_windows_ = OddWindowCount(
        std::min(kMaxWindows, size_t(closed_s_ * kClosedWindowsPerSecond)));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back(ClosedLoopWorker, std::cref(*stack_),
                           std::cref(*qs_), c, end, std::ref(closed[c]));
    }
    for (auto& t : threads) t.join();
    Absorb(closed, log_, failures_);
    ReportPhase("closed_loop", closed);
    // Saturation, beside the open loop's fixed rate: the headroom the rate
    // leaves.
    uint64_t completed = 0;
    for (const ConnStats& s : closed) completed += s.completed;
    Report(report_, "closed_loop.requests_per_s",
           double(completed) / closed_s_);
    Report(report_, "open_loop.requests_per_s", spec_.open_rate);
    std::vector<std::pair<int64_t, uint64_t>> completions;
    for (const ConnStats& s : closed) {
      closed_queries_ += s.queries;
      completions.insert(completions.end(), s.completions.begin(),
                         s.completions.end());
    }
    window_qps_ = WindowRates(completions, start,
                              (end - start) / int64_t(closed_windows_),
                              closed_windows_);
    Progress("closed loop done");
  }

  /// Keeps a copy of the image the query phases were served from, for the
  /// traced replay.
  Status KeepServedImage() {
    const PublishRecord& last =
        republished_.empty() ? records_.back() : republished_.back();
    RECPRIV_ASSIGN_OR_RETURN(
        std::string path,
        stack_->store().ManagedSnapshotPath(kRelease, last.epoch));
    image_ = options_.workdir + "/replay.rps";
    std::error_code ec;
    fs::copy_file(path, image_, fs::copy_options::overwrite_existing, ec);
    if (ec) return Status::IOError("cannot copy " + path + ": " + ec.message());
    return Status::OK();
  }

  /// On a workload without a cadence: republishes one after another with
  /// no reads beside them, for publish_ms and replication_lag_ms.
  Status QuietRepublishes() {
    if (spec_.cadence_ms > 0) return Status::OK();
    for (size_t k = 0; k < spec_.quiet_republishes; ++k) {
      RECPRIV_ASSIGN_OR_RETURN(
          PublishRecord rec,
          stack_->Publish(feed_, spec_.delta_rows, kFollowerTimeoutMs));
      republished_.push_back(rec);
    }
    Progress("republishes done");
    return Status::OK();
  }

  /// Reads the end-of-run state and stops the stack.
  Status TearDown() {
    for (const PublishRecord& rec : republished_) {
      if (rec.lag_ms < 0) ++failures_.timeouts;  // follower never caught up
    }
    RECPRIV_ASSIGN_OR_RETURN(auto client, stack_->Connect());
    RECPRIV_ASSIGN_OR_RETURN(stats_after_, client->Stats());
    client.reset();
    repl_stats_ = stack_->replicator().Stats();
    const auto [compared, mismatched] = stack_->CompareRetainedImages();
    Report(report_, "images_compared", double(compared));
    failures_.digest_mismatches += mismatched + repl_stats_.digest_mismatches;
    follower_digests_ = stack_->FollowerDigests();
    stack_.reset();
    return Status::OK();
  }

  /// Every served answer and every follower image, outside any timing.
  Status Verify() {
    std::vector<PublishRecord> records = records_;
    records.insert(records.end(), republished_.begin(), republished_.end());
    std::vector<char> bad_requests(log_.request_epoch.size(), 0);
    RECPRIV_RETURN_NOT_OK(ReplayPublishes(
        *rows_, params_, publish_seed_, records, follower_digests_, *qs_, log_,
        options_.workdir + "/twin", options_.trace, tracer_, publish_trace_,
        failures_, bad_requests));
    failures_.answer_mismatches +=
        uint64_t(std::count(bad_requests.begin(), bad_requests.end(), 1)) +
        log_.malformed;
    Report(report_, "verified.queries", double(log_.entries.size()));
    Progress("verified");
    return Status::OK();
  }

  /// Latencies of open-loop phase `phase`, by window.
  std::vector<std::vector<double>> LatencyWindows(int phase) const {
    std::vector<std::vector<double>> windows(open_windows_);
    for (const ConnStats& s : open_stats_[phase]) {
      for (size_t k = 0; k < s.latency_ms.size(); ++k) {
        if (s.window[k] < open_windows_) {
          windows[s.window[k]].push_back(s.latency_ms[k]);
        }
      }
    }
    return windows;
  }

  Status EndToEndMetrics(RunResult& result) {
    const std::vector<std::vector<double>> windows = LatencyWindows(0);
    RECPRIV_RETURN_NOT_OK(CheckWindows(windows, 0.99, report_));
    // The median over windows too, for judging a run's own steadiness.
    Report(report_, "query_p50_ms.window_median",
                Median(WindowPercentiles(windows, 0.5)));
    Report(report_, "query_p99_ms.window_median",
                Median(WindowPercentiles(windows, 0.99)));
    Report(report_, "query_throughput_qps.window_median", Median(window_qps_));
    std::vector<double> publish_ms, lag_ms, image_bytes;
    std::fprintf(stderr, "[%s] republishes (publish ms / lag ms):",
                 spec_.name.c_str());
    for (const PublishRecord& rec : republished_) {
      publish_ms.push_back(rec.publish_ms);
      lag_ms.push_back(rec.lag_ms);
      image_bytes.push_back(double(rec.snapshot_bytes));
      std::fprintf(stderr, " %.1f/%.1f", rec.publish_ms, rec.lag_ms);
    }
    std::fprintf(stderr, "\n");
    Report(report_, "publishes.samples", double(publish_ms.size()));
    Report(report_, "setups", double(setup_s_.size()));
    Report(report_, "closed_loop.windows", double(closed_windows_));
    Report(report_, "closed_loop.queries", double(closed_queries_));
    auto metric = [&](const char* name, double value, const char* unit) {
      result.metrics.push_back(Metric{name, value, unit});
    };
    // p99 goes in the report, not among the gated metrics: on a shared
    // virtual machine a request is hit by a descheduled vCPU about 1% of
    // the time once the host's steal exceeds ~2%, so p99 reads the host's
    // steal, not the program. p90 stays clear of that.
    Report(report_, "query_p99_ms", QuietHalfPercentile(windows, 0.99));
    metric("query_p50_ms", QuietHalfPercentile(windows, 0.5), "ms");
    metric("query_p90_ms", QuietHalfPercentile(windows, 0.9), "ms");
    metric("query_throughput_qps", QuietHalfRate(window_qps_), "queries/s");
    metric("publish_ms", Median(publish_ms), "ms");
    metric("replication_lag_ms", Median(lag_ms), "ms");
    metric("snapshot_bytes", Median(image_bytes), "bytes");
    metric("setup_s", Median(setup_s_), "s");
    metric("peak_rss_mb", peak_rss_mb_, "MB");
    return Status::OK();
  }

  /// The layered replay of a fixed request sample, then every per-layer
  /// metric, the self-time summary, and the span file.
  Status TraceMetrics(RunResult& result) {
    std::vector<std::vector<uint32_t>> sample;
    for (size_t i = 0; i < kTraceSample; ++i) {
      sample.push_back(qs_->RequestIds(kOpenStream, i));
    }
    RequestTrace rt;
    RECPRIV_RETURN_NOT_OK(
        ReplayRequests(image_, *qs_, warm_, sample, tracer_, rt, failures_));
    Progress("layered replay done");
    for (const ConnStats& s : open_stats_[1]) {
      for (const Span& span : s.tracer.spans()) {
        tracer_.Record(span.replay, span.name, span.request, span.start_ns,
                       span.end_ns);
      }
    }
    std::vector<double> late;
    uint64_t sent = 0, completed = 0;
    for (const ConnStats& s : open_stats_[0]) {
      late.insert(late.end(), s.late_ms.begin(), s.late_ms.end());
      sent += s.failures.attempted;
      completed += s.completed;
    }
    auto metric = [&](const std::string& name, double value,
                      const char* unit) {
      result.metrics.push_back(Metric{name, value, unit});
    };
    auto p50 = [](const std::vector<double>& v) { return Median(v); };
    auto per_miss = [&](double total) {
      return rt.missed_queries == 0 ? 0.0 : total / double(rt.missed_queries);
    };
    const PublishTrace& pt = publish_trace_;
    const uint64_t hits = stats_after_.cache.hits - stats_before_.cache.hits;
    const uint64_t misses =
        stats_after_.cache.misses - stats_before_.cache.misses;
    const client::TransportStats transport =
        stats_after_.transport.value_or(client::TransportStats{});
    metric("loadgen.late_ms.p99", Percentile(late, 0.99), "ms");
    metric("loadgen.sent", double(sent), "count");
    metric("loadgen.completed", double(completed), "count");
    metric("client.codec_us.p50", p50(rt.codec_us), "us");
    metric("server.self_us.p50", p50(rt.server_self_us), "us");
    metric("server.self_us.p99", Percentile(rt.server_self_us, 0.99), "us");
    metric("server.requests", double(transport.requests), "count");
    metric("server.errors", double(transport.errors), "count");
    metric("wire.self_us.p50", p50(rt.wire_self_us), "us");
    metric("service.self_us.p50", p50(rt.service_self_us), "us");
    metric("engine.batch_us.p50", p50(rt.engine_batch_us), "us");
    metric("engine.self_us.p50", p50(rt.engine_self_us), "us");
    metric("engine.cache_hit_ratio",
           hits + misses == 0 ? 0.0 : double(hits) / double(hits + misses),
           "ratio");
    metric("engine.postings_batch_frac",
           rt.batches_with_misses == 0
               ? 0.0
               : double(rt.postings_batches) / double(rt.batches_with_misses),
           "ratio");
    metric("table.postings_ns_per_query", per_miss(rt.postings_ns), "ns");
    metric("table.scan_ns_per_query", per_miss(rt.scan_ns), "ns");
    metric("table.groups_matched_per_query", per_miss(rt.groups_matched),
           "count");
    metric("core.publish_incremental_ms", p50(pt.core_ms), "ms");
    metric("core.delta_rows", p50(pt.delta_rows), "count");
    metric("core.groups_touched", p50(pt.groups_touched), "count");
    metric("core.groups_carried", p50(pt.groups_carried), "count");
    metric("release_store.publish_ms", p50(pt.store_publish_ms), "ms");
    metric("release_store.self_ms", p50(pt.release_store_self_ms), "ms");
    metric("store.write_ms", p50(pt.write_ms), "ms");
    metric("store.open_ms", p50(pt.open_ms), "ms");
    for (uint32_t kind = 1; kind <= kSectionKinds; ++kind) {
      const char* section = SectionName(kind);
      auto it = pt.section_bytes.find(section);
      metric(std::string("store.section_bytes.") + section,
             it == pt.section_bytes.end() ? 0.0 : double(it->second), "bytes");
    }
    metric("repl.pack_ms", p50(pt.pack_ms), "ms");
    metric("repl.bytes_fetched", double(repl_stats_.bytes_fetched), "bytes");
    metric("repl.installs", double(repl_stats_.installs), "count");
    metric("repl.reconnects", double(repl_stats_.reconnects), "count");
    metric("repl.digest_mismatches", double(repl_stats_.digest_mismatches),
           "count");
    metric("trace.query_p50_ms.untraced",
           QuietHalfPercentile(LatencyWindows(0), 0.5), "ms");
    metric("trace.query_p50_ms.traced",
           QuietHalfPercentile(LatencyWindows(1), 0.5), "ms");
    PrintSelfTimeSummary(spec_.name, rt, pt);
    const std::string span_file = options_.workdir + "/" + spec_.name +
                                  "-seed" + std::to_string(options_.seed) +
                                  ".spans.jsonl";
    if (!tracer_.WriteJsonLines(span_file)) {
      return Status::IOError("cannot write " + span_file);
    }
    std::fprintf(stderr, "[%s] spans written to %s\n", spec_.name.c_str(),
                 span_file.c_str());
    return Status::OK();
  }

  const WorkloadSpec& spec_;
  const RunOptions& options_;
  const int64_t start_ns_;

  // Inputs.
  double open_s_ = 0, closed_s_ = 0;
  int open_phases_ = 1;
  size_t open_windows_ = 1, closed_windows_ = 1;
  std::optional<recpriv::table::Table> rows_;
  recpriv::core::PrivacyParams params_;
  uint64_t publish_seed_ = 0;
  std::unique_ptr<QuerySet> qs_;
  std::vector<std::vector<uint32_t>> warm_;

  // The stack and what it served.
  std::unique_ptr<Stack> stack_;
  PublishFeed feed_;
  std::vector<PublishRecord> records_;      ///< the kept set-up's publish
  std::vector<PublishRecord> republished_;  ///< cadence publishes
  std::vector<double> setup_s_, setup_publish_ms_, setup_lag_ms_;
  std::vector<std::vector<ConnStats>> open_stats_;  ///< per open phase
  std::vector<double> window_qps_;
  uint64_t closed_queries_ = 0;
  double peak_rss_mb_ = 0, setup_rss_mb_ = 0;
  client::ServerStats stats_before_, stats_after_;
  client::ReplicationStats repl_stats_;
  std::map<uint64_t, uint64_t> follower_digests_;
  std::string image_;

  // Verification and tracing.
  ServedLog log_;
  FailureCounts failures_;
  Tracer tracer_;
  PublishTrace publish_trace_;
  recpriv::JsonValue report_ = recpriv::JsonValue::Object();
};

}  // namespace

Result<RunResult> RunWorkload(const WorkloadSpec& spec,
                              const RunOptions& options) {
  return Run(spec, options).Execute();
}

}  // namespace perfbench
