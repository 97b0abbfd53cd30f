// perfbench: runs one benchmark workload against the in-process serving
// stack and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// stdout carries three JSON lines: the host block (what the result is
// comparable with), a report (sample counts, windows, per-phase counts),
// then the result — {"correct", "attempted", "failed", "metrics"} — always
// last. --trace 0 reports the end-to-end metrics from
// an untraced run; --trace 1 reports the per-layer metrics of a traced run
// and writes its span file into the work directory. The exit code is
// non-zero when any answer or follower image fails verification, and on
// any error.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "common/json.h"
#include "table/simd/dispatch.h"
#include "workloads.h"

namespace {

using recpriv::JsonValue;

int Usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_hot_cached|serve_cold_scan|republish_follow --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n",
               error);
  return 2;
}

/// Prints {"<key>": value} as one line of standard output.
void PrintLine(const std::string& key, JsonValue value) {
  JsonValue line = JsonValue::Object();
  line.Set(key, std::move(value));
  std::cout << line.ToString() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string workdir = ".bench_build/perfbench-work";
  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }

  options.workdir = workdir + "/" + workload + "-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) return Usage(("cannot create " + options.workdir).c_str());

  JsonValue host = JsonValue::Object();
  host.Set("nproc", JsonValue::Uint(std::thread::hardware_concurrency()));
  host.Set("simd", JsonValue::String(recpriv::table::simd::LevelName(
                       recpriv::table::simd::ActiveLevel())));
  host.Set("build_type", JsonValue::String(PERFBENCH_BUILD_TYPE));
  host.Set("compiler", JsonValue::String(PERFBENCH_COMPILER));
  host.Set("commit", JsonValue::String(PERFBENCH_COMMIT));
  host.Set("source_digest", JsonValue::String(PERFBENCH_SOURCE_DIGEST));
  PrintLine("host", std::move(host));

  auto result = perfbench::RunWorkload(*spec, options);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 result.status().ToString().c_str());
    return 1;
  }
  // Span files stay for inspection; everything else in the work directory
  // has already been removed by the run.
  if (!options.trace) std::filesystem::remove_all(options.workdir, ec);

  PrintLine("report", std::move(result->report));
  JsonValue metrics = JsonValue::Object();
  for (const perfbench::Metric& m : result->metrics) {
    JsonValue metric = JsonValue::Object();
    metric.Set("value", JsonValue::Number(perfbench::JsonSafe(m.value)));
    metric.Set("unit", JsonValue::String(m.unit));
    metrics.Set(m.name, std::move(metric));
  }
  JsonValue line = JsonValue::Object();
  line.Set("correct", JsonValue::Bool(result->correct));
  line.Set("attempted", JsonValue::Uint(result->failures.attempted));
  line.Set("failed", JsonValue::Uint(result->failures.failed()));
  line.Set("metrics", std::move(metrics));
  std::cout << line.ToString() << std::endl;
  return result->correct ? 0 : 1;
}
