// Group-index bench: the FlatGroupIndex operations every scan-bound
// workload in the repo reduces to (paper §3.2, §5), and the
// density-adaptive GroupPostingIndex filter the serving engine answers
// through:
//
//   build            index construction from a table (packed-key radix
//                    sort + run-length pass)
//   scan_match       MatchingGroupsInto over a query-pool's NA predicates
//                    (one linear pass of the NA keys per query)
//   count_answer     a full count-query answer: observed O* + matched |S*|
//                    through the fused AnswerInto kernel, no match list
//   posting_*        the GroupPostingIndex filter (bitmaps for frequent
//                    values, sorted id arrays for rare ones): posting_match
//                    builds the match list, posting_count sums O*, and
//                    posting_answer is the fused O* + |S*| call the serving
//                    engine makes for every uncached query (answers
//                    asserted equal to the flat kernel's before timing)
//   count_answer/flat_scalar, count_answer/flat_avx2
//                    the AnswerInto kernel pinned to each dispatch level
//                    (AVX2 hosts only), timed in interleaved rounds
//
// Datasets are the paper's two scales, synthesized: ADULT (45,222 records)
// and CENSUS (300,000 records — the >=100k "serving-relevant" scale the
// kernel gate runs on). Both are indexed on their raw (ungeneralized)
// public attributes, the group-rich regime where layout matters.
//
// Results go to stdout as tables and to --out (default
// BENCH_group_index.json) as machine-readable JSON:
//
//   {
//     "schema": "bench_group_index/v2",
//     "quick": false,
//     "datasets": { "<name>": {"rows": R, "groups": G, "pool": Q,
//         "posting_build_ms": B, "posting_dense_bytes": D,
//         "posting_sparse_bytes": S} },
//     "benchmarks": { "<dataset>/<op>/<layout>":
//         {"ns_per_op": N, "throughput": T, "unit": "<ops>/s", "iters": I} },
//     "speedups": { "<dataset>/count_answer_simd":
//         {"median": M, "min": L, "max": H, "rounds": K} }
//   }
//
// On AVX2 hosts, exits non-zero unless the AVX2 kernel's median per-round
// speedup over the scalar kernel on count_answer is >= 2x at the >=100k-row
// scale. --quick shrinks both datasets for smoke runs (the gate is skipped
// below 100k rows, but the JSON is still emitted).

#include <functional>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "datagen/adult.h"
#include "datagen/census.h"
#include "exp/reporting.h"
#include "query/count_query.h"
#include "query/query_pool.h"
#include "table/flat_group_index.h"
#include "table/simd/dispatch.h"
#include "bench_util.h"
#include "testing_util.h"

namespace {

using namespace recpriv;  // NOLINT

struct Measurement {
  double ns_per_op = 0.0;
  double per_sec = 0.0;  ///< ops per second
  size_t iters = 0;      ///< timed repetitions of the workload
};

/// Times `fn` (a workload of `ops` logical operations): one warmup run,
/// then repeats until `min_seconds` of wall time and `min_iters` runs have
/// accumulated.
Measurement Measure(size_t ops, double min_seconds,
                    const std::function<void()>& fn, size_t min_iters = 1) {
  fn();  // warmup: faults pages, fills allocator caches
  Measurement m;
  WallTimer timer;
  double elapsed = 0.0;
  do {
    fn();
    ++m.iters;
    elapsed = timer.Seconds();
  } while (elapsed < min_seconds || m.iters < min_iters);
  const double total_ops = double(m.iters) * double(ops);
  m.ns_per_op = elapsed * 1e9 / total_ops;
  m.per_sec = total_ops / elapsed;
  return m;
}

struct Dataset {
  std::string name;
  table::Table table;
  std::vector<query::CountQuery> pool;
};

/// One dataset's results, keyed "<op>/<layout>".
using Results = std::map<std::string, Measurement>;

/// Interleaved scalar-vs-AVX2 rounds of the count_answer kernel.
constexpr size_t kSimdRounds = 9;
/// Pool passes each arm runs per round, at least: one pass over the
/// CENSUS-300k pool takes 0.1-0.3 s, so a round of a few passes keeps a
/// single slow stretch from deciding the round.
constexpr size_t kSimdItersPerRound = 3;

/// Size and build cost of the GroupPostingIndex filter of one dataset.
struct PostingFootprint {
  double build_ms = 0.0;
  size_t dense_bytes = 0;
  size_t sparse_bytes = 0;
};

Results RunDataset(const Dataset& ds, double min_seconds,
                   PostingFootprint* footprint,
                   std::optional<bench::PairedRounds>* simd) {
  Results out;

  // --- build ---------------------------------------------------------------
  out["build/flat"] = Measure(ds.table.num_rows(), min_seconds, [&] {
    auto idx = table::FlatGroupIndex::Build(ds.table);
    if (idx.num_groups() == 0) std::abort();
  });

  const table::FlatGroupIndex flat = table::FlatGroupIndex::Build(ds.table);
  const table::GroupPostingIndex postings(flat);
  footprint->build_ms =
      Measure(1, min_seconds, [&] {
        const table::GroupPostingIndex built(flat);
        if (built.dense_bytes() + built.sparse_bytes() == 0) std::abort();
      }).ns_per_op / 1e6;
  footprint->dense_bytes = postings.dense_bytes();
  footprint->sparse_bytes = postings.sparse_bytes();

  // --- scan_match: matching group ids per pool predicate -------------------
  uint64_t sink = 0;
  {
    std::vector<uint32_t> matches;
    out["scan_match/flat"] = Measure(ds.pool.size(), min_seconds, [&] {
      for (const auto& q : ds.pool) {
        flat.MatchingGroupsInto(q.na_predicate, matches);
        sink += matches.size();
      }
    });
  }
  {
    std::vector<uint32_t> scratch, matches;
    out["posting_match/flat"] = Measure(ds.pool.size(), min_seconds, [&] {
      for (const auto& q : ds.pool) {
        postings.MatchingGroupsInto(q.na_predicate, scratch, matches);
        sink += matches.size();
      }
    });
  }

  // --- count_answer: observed O* + matched |S*| per pool query -------------
  out["count_answer/flat"] = Measure(ds.pool.size(), min_seconds, [&] {
    for (const auto& q : ds.pool) {
      uint64_t observed = 0, matched_size = 0;
      flat.AnswerInto(q.na_predicate, q.sa_code, &observed, &matched_size);
      sink += observed + matched_size;
    }
  });
  out["posting_count/flat"] = Measure(ds.pool.size(), min_seconds, [&] {
    for (const auto& q : ds.pool) {
      sink += postings.CountAnswer(q.na_predicate, q.sa_code);
    }
  });
  // The serving engine's per-query call. Checked against the fused scan
  // over the whole pool before it is timed.
  for (const auto& q : ds.pool) {
    uint64_t scan_observed = 0, scan_matched = 0;
    flat.AnswerInto(q.na_predicate, q.sa_code, &scan_observed, &scan_matched);
    uint64_t observed = 0, matched_size = 0;
    postings.AnswerInto(q.na_predicate, q.sa_code, &observed, &matched_size);
    if (observed != scan_observed || matched_size != scan_matched) {
      std::cerr << "posting_answer mismatch on " << ds.name << "\n";
      std::abort();
    }
  }
  out["posting_answer/flat"] = Measure(ds.pool.size(), min_seconds, [&] {
    for (const auto& q : ds.pool) {
      uint64_t observed = 0, matched_size = 0;
      postings.AnswerInto(q.na_predicate, q.sa_code, &observed,
                          &matched_size);
      sink += observed + matched_size;
    }
  });

  // --- count_answer under pinned kernel dispatch levels --------------------
  // The "flat" arm above runs at the as-shipped auto level; on AVX2 hosts
  // these arms pin the level so the SIMD speedup is measured against the
  // scalar kernel on identical data. Bit-identity across levels is
  // asserted per pool query before anything is timed — a wrong fast kernel
  // must fail loudly here, not surface as a serving discrepancy. The two
  // levels are timed in interleaved rounds (bench_util.h) so the gate reads
  // per-round ratios, not two runs minutes apart.
  if (table::simd::HostSupportsAvx2()) {
    using table::simd::DispatchLevel;
    const DispatchLevel restore = table::simd::ActiveLevel();
    auto answer_at = [&](DispatchLevel level, const query::CountQuery& q,
                         uint64_t* observed, uint64_t* matched_size) {
      table::simd::SetDispatchLevel(level);
      flat.AnswerInto(q.na_predicate, q.sa_code, observed, matched_size);
    };
    for (const auto& q : ds.pool) {
      uint64_t scalar_observed = 0, scalar_matched = 0;
      answer_at(DispatchLevel::kScalar, q, &scalar_observed, &scalar_matched);
      uint64_t avx2_observed = 0, avx2_matched = 0;
      answer_at(DispatchLevel::kAvx2, q, &avx2_observed, &avx2_matched);
      if (avx2_observed != scalar_observed || avx2_matched != scalar_matched) {
        std::cerr << "SIMD kernel answer mismatch on " << ds.name
                  << ": scalar (" << scalar_observed << ", " << scalar_matched
                  << ") vs avx2 (" << avx2_observed << ", " << avx2_matched
                  << ")\n";
        std::abort();
      }
    }
    size_t iters[2] = {0, 0};
    auto arm = [&](DispatchLevel level, size_t* total_iters) {
      table::simd::SetDispatchLevel(level);
      const Measurement m = Measure(
          ds.pool.size(), min_seconds,
          [&] {
            for (const auto& q : ds.pool) {
              uint64_t observed = 0, matched_size = 0;
              flat.AnswerInto(q.na_predicate, q.sa_code, &observed,
                              &matched_size);
              sink += observed + matched_size;
            }
          },
          kSimdItersPerRound);
      *total_iters += m.iters;
      return m.ns_per_op;
    };
    *simd = bench::TimeInterleaved(
        kSimdRounds, [&] { return arm(DispatchLevel::kScalar, &iters[0]); },
        [&] { return arm(DispatchLevel::kAvx2, &iters[1]); });
    table::simd::SetDispatchLevel(restore);
    // Each level is reported at its median round.
    const double scalar_ns = bench::SpreadOf((*simd)->baseline).median;
    const double avx2_ns = bench::SpreadOf((*simd)->candidate).median;
    out["count_answer/flat_scalar"] = {scalar_ns, 1e9 / scalar_ns, iters[0]};
    out["count_answer/flat_avx2"] = {avx2_ns, 1e9 / avx2_ns, iters[1]};
  }
  if (sink == uint64_t(-1)) std::abort();  // keep the loops observable

  return out;
}

Result<Dataset> MakeDataset(std::string name, table::Table table,
                            size_t pool_size, Rng& rng) {
  const table::FlatGroupIndex index = table::FlatGroupIndex::Build(table);
  query::QueryPoolConfig config;
  config.pool_size = pool_size;
  RECPRIV_ASSIGN_OR_RETURN(std::vector<query::CountQuery> pool,
                           query::GenerateQueryPool(index, config, rng));
  if (pool.empty()) return Status::Internal("empty query pool for " + name);
  return Dataset{std::move(name), std::move(table), std::move(pool)};
}

int Run(int argc, char** argv) {
  auto flags = FlagSet::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status() << "\n";
    return 2;
  }
  const bool quick = *flags->GetBool("quick", false);
  const std::string out_path =
      flags->GetString("out", "BENCH_group_index.json");
  // Long enough for stable numbers; --quick only needs the plumbing to run.
  const double min_seconds = quick ? 0.01 : 0.25;
  const size_t adult_rows = quick ? 4000 : 45222;
  const size_t census_rows = quick ? 8000 : 300000;
  const size_t pool_size = quick ? 200 : 1000;

  exp::PrintBanner(std::cout,
                   "Group index: FlatGroupIndex kernels and the "
                   "GroupPostingIndex filter",
                   quick ? "quick smoke sizes (gate skipped)"
                         : "ADULT 45k / CENSUS 300k, 1,000-query pools");

  Rng rng(recpriv::testing::HarnessSeed(20150315));
  std::vector<Dataset> datasets;
  {
    auto adult = datagen::GenerateAdult({.num_records = adult_rows}, rng);
    if (!adult.ok()) {
      std::cerr << adult.status() << "\n";
      return 1;
    }
    auto ds = MakeDataset("adult", *std::move(adult), pool_size, rng);
    if (!ds.ok()) {
      std::cerr << ds.status() << "\n";
      return 1;
    }
    datasets.push_back(*std::move(ds));
  }
  {
    auto census = datagen::GenerateCensus({.num_records = census_rows}, rng);
    if (!census.ok()) {
      std::cerr << census.status() << "\n";
      return 1;
    }
    auto ds = MakeDataset("census", *std::move(census), pool_size, rng);
    if (!ds.ok()) {
      std::cerr << ds.status() << "\n";
      return 1;
    }
    datasets.push_back(*std::move(ds));
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("bench_group_index/v2"));
  doc.Set("quick", JsonValue::Bool(quick));
  JsonValue json_datasets = JsonValue::Object();
  JsonValue json_benchmarks = JsonValue::Object();
  JsonValue json_speedups = JsonValue::Object();

  // The kernel-dispatch gate: on AVX2 hosts, the vector kernel's median
  // per-round speedup over the pinned scalar kernel on count_answer must
  // be >=2x at >=100k rows.
  bool simd_gate_applicable = false;
  bool simd_gate_passed = false;

  for (const Dataset& ds : datasets) {
    const table::FlatGroupIndex index = table::FlatGroupIndex::Build(ds.table);
    std::cout << "\n" << ds.name << ": "
              << FormatWithCommas(int64_t(ds.table.num_rows())) << " records, "
              << FormatWithCommas(int64_t(index.num_groups())) << " groups, "
              << ds.pool.size() << "-query pool ("
              << (index.packed() ? "packed 64-bit keys" : "wide keys")
              << ")\n";
    PostingFootprint footprint;
    std::optional<bench::PairedRounds> simd;
    const Results results = RunDataset(ds, min_seconds, &footprint, &simd);
    std::cout << "posting filter: built in "
              << FormatDouble(footprint.build_ms, 3) << " ms, "
              << FormatWithCommas(int64_t(footprint.dense_bytes))
              << " B bitmaps + "
              << FormatWithCommas(int64_t(footprint.sparse_bytes))
              << " B id arrays\n";
    JsonValue meta = JsonValue::Object();
    meta.Set("rows", JsonValue::Int(int64_t(ds.table.num_rows())));
    meta.Set("groups", JsonValue::Int(int64_t(index.num_groups())));
    meta.Set("pool", JsonValue::Int(int64_t(ds.pool.size())));
    meta.Set("posting_build_ms", JsonValue::Number(footprint.build_ms));
    meta.Set("posting_dense_bytes",
             JsonValue::Int(int64_t(footprint.dense_bytes)));
    meta.Set("posting_sparse_bytes",
             JsonValue::Int(int64_t(footprint.sparse_bytes)));
    json_datasets.Set(ds.name, std::move(meta));
    exp::AsciiTable table(
        {"benchmark", "ns/op", "throughput", "unit", "iters"});
    for (const auto& [key, m] : results) {
      const bool is_build = key.rfind("build/", 0) == 0;
      const std::string unit = is_build ? "rows/s" : "queries/s";
      table.AddRow({key, FormatWithCommas(int64_t(m.ns_per_op)),
                    FormatWithCommas(int64_t(m.per_sec)), unit,
                    std::to_string(m.iters)});
      JsonValue entry = JsonValue::Object();
      entry.Set("ns_per_op", JsonValue::Number(m.ns_per_op));
      entry.Set("throughput", JsonValue::Number(m.per_sec));
      entry.Set("unit", JsonValue::String(unit));
      entry.Set("iters", JsonValue::Int(int64_t(m.iters)));
      json_benchmarks.Set(ds.name + "/" + key, std::move(entry));
    }
    table.Print(std::cout);

    if (simd.has_value()) {
      const bench::Spread speedup = simd->speedup();
      JsonValue entry = JsonValue::Object();
      entry.Set("median", JsonValue::Number(speedup.median));
      entry.Set("min", JsonValue::Number(speedup.min));
      entry.Set("max", JsonValue::Number(speedup.max));
      entry.Set("rounds", JsonValue::Int(int64_t(simd->ratios.size())));
      json_speedups.Set(ds.name + "/count_answer_simd", std::move(entry));
      std::cout << "avx2 vs scalar kernel:  count_answer median "
                << FormatDouble(speedup.median, 2) << "x over "
                << simd->ratios.size() << " interleaved rounds (min "
                << FormatDouble(speedup.min, 2) << "x, max "
                << FormatDouble(speedup.max, 2) << "x; answers identical)\n";
      if (ds.table.num_rows() >= 100000) {
        simd_gate_applicable = true;
        if (speedup.median >= 2.0) simd_gate_passed = true;
      }
    }
  }

  doc.Set("datasets", std::move(json_datasets));
  doc.Set("benchmarks", std::move(json_benchmarks));
  doc.Set("speedups", std::move(json_speedups));
  doc.Set("simd_level",
          JsonValue::String(table::simd::LevelName(
              table::simd::ActiveLevel())));
  // Scalar/AVX2 answer identity is abort-checked per pool query before any
  // timing; reaching the report at all means it held.
  doc.Set("simd_identical", JsonValue::Bool(true));
  {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    out << doc.ToString(2) << "\n";
  }
  std::cout << "\nresults written to " << out_path << "\n";

  int exit_code = 0;
  if (simd_gate_applicable) {
    std::cout << ">=2x median avx2 vs scalar on count_answer at >=100k rows: "
              << (simd_gate_passed ? "PASS" : "FAIL") << "\n";
    if (!simd_gate_passed) exit_code = 1;
  } else {
    std::cout << "simd kernel gate skipped ("
              << (table::simd::HostSupportsAvx2()
                      ? "no >=100k-row dataset at this size"
                      : "no AVX2 on this host")
              << ")\n";
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
