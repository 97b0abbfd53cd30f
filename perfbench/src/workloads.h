// The benchmark's workloads and the run that measures one of them.
//
// A run, for every workload:
//   1. generates its inputs from --seed (data generation is never timed);
//   2. sets the stack up `setups` times — fresh primary + follower, initial
//      publish, follower first sync, first query over TCP — keeping the
//      last one (setup_s is the median);
//   3. warms up (cache fill, lazy pool start, first mmap touch);
//   4. runs the open-loop phase at the workload's fixed rate, with the
//      publisher republishing on its cadence where the workload has one;
//   5. runs the closed-loop saturation phase (4 connections);
//   6. on a workload without a cadence, republishes a few times with no
//      reads beside it;
//   7. tears the stack down and verifies, outside any timing, every
//      served answer against an independently rebuilt index of its epoch
//      and every follower image against the primary's;
//   8. with --trace 1, replays a fixed request sample layer by layer on
//      fresh engines and replays every publish on twin objects.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "queries.h"
#include "stats.h"
#include "workload/synthetic.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// CENSUS (datagen::GenerateCensus) when true; otherwise `synthetic`.
  bool census = false;
  recpriv::workload::SyntheticReleaseSpec synthetic;
  size_t base_rows = 0;
  QueryMix mix;
  /// Open-loop arrival rate, requests per second. A constant well under
  /// the seed's saturation; never derived from the current run.
  double open_rate = 0.0;
  /// Share of --seconds spent in the open-loop phase; the rest is the
  /// closed-loop saturation phase.
  double open_share = 0.5;
  /// Warm-up requests before timing; 0 = every distinct query, twice over.
  size_t warmup_requests = 0;
  /// Rows per republish (1% of the base rows).
  size_t delta_rows = 0;
  /// With a cadence, the publisher republishes every `cadence_ms` during
  /// the open loop. Without one, `quiet_republishes` republishes run one
  /// after another once the query phases are over, with no reads beside
  /// them; publish_ms and replication_lag_ms come from the republishes
  /// either way, never from the initial publish.
  int cadence_ms = 0;
  size_t quiet_republishes = 0;
  /// Set-ups per run (setup_s is their median).
  size_t setups = 7;
};

/// The workloads BENCHMARK.json lists, by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for snapshot files and the span file.
  std::string workdir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  FailureCounts failures;
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when tracing
  recpriv::JsonValue report;    ///< sample counts, windows, phase counts
};

recpriv::Result<RunResult> RunWorkload(const WorkloadSpec& spec,
                                       const RunOptions& options);

}  // namespace perfbench
