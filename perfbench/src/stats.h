// The benchmark's own arithmetic, kept free of the system under test so it
// can be unit-tested on its own (tests/stats_test.cc):
//
//  * percentiles by nearest rank, and the sample rule every reported
//    timing follows — a percentile is reported only when at least
//    kMinSamplesBeyond samples lie beyond it;
//  * self time: a layer's span minus the spans of the calls it makes;
//  * windows: a phase is cut into windows, and a timing is taken over the
//    quieter half of them;
//  * the open-loop schedule — due times fixed before the phase starts —
//    and the lateness and latency derived from it;
//  * failure accounting (failed_frac).

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile is reported only with at least this many samples beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 1) among `n` samples:
/// ceil(p * n), guarded against binary-fraction error (0.99 * 1000 is
/// 990, not 991).
size_t NearestRank(size_t n, double p);

/// Samples strictly beyond percentile `p`'s rank: n - NearestRank(n, p).
size_t SamplesBeyond(size_t n, double p);

/// True when `n` samples support percentile `p` under the sample rule.
bool SupportsPercentile(size_t n, double p);

/// The fewest samples that support percentile `p` (1000 for p99).
size_t MinSamplesFor(double p);

/// The highest of 0.5, 0.9, 0.99, 0.999, 0.9999 that `n` samples
/// support, or 0 when not even the median is supported.
double HighestSupportedPercentile(size_t n);

/// Nearest-rank percentile of unsorted `samples` (copied, then sorted).
/// Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Percentile `p` over the quieter half of the windows. A failed request
/// is a non-finite sample (it misses every latency limit). Windows are
/// ranked by percentile `p` of their answered requests, the samples of the
/// ceil(n/2) lowest are pooled, every failed request of every window is
/// added back in, and percentile `p` of that pool is returned. Host
/// interference (a vCPU descheduled, a burst of steal) only ever makes a
/// window slower; this reports what the quieter windows measured, from
/// enough samples to hold still while the share of disturbed windows
/// varies from run to run. A change to the program moves every window, the
/// quiet ones too; and no failure is dropped with a window, so failures
/// above 1 - p of the pool make the result non-finite.
double QuietHalfPercentile(const std::vector<std::vector<double>>& windows,
                           double p);

/// The mean rate of the quieter (faster) half of the windows.
double QuietHalfRate(const std::vector<double>& window_rates);

/// Percentile `p` of each window's samples.
std::vector<double> WindowPercentiles(
    const std::vector<std::vector<double>>& windows, double p);

/// Windows to cut a phase into: the largest odd count <= `capacity`,
/// and at least 1.
size_t OddWindowCount(size_t capacity);

/// Events (timestamp, weight) summed into `count` consecutive windows of
/// `len_ns` from `start_ns`, each divided by its length in seconds — a rate
/// per window. Events outside the windows are ignored.
std::vector<double> WindowRates(
    const std::vector<std::pair<int64_t, uint64_t>>& events, int64_t start_ns,
    int64_t len_ns, size_t count);

/// Self time of a layer measured across two replays of the same request:
/// the layer's duration minus the durations of the calls it makes, each
/// measured on its own replay. Kept signed: on a layer much thinner than
/// its child the difference can dip below zero on single requests, and
/// clamping would bias the median upward.
double SubtractChildren(double parent, const std::vector<double>& children);

/// The open-loop schedule: request i is due at start + i * interval.
/// Fixed before the phase starts and never adjusted to the responses.
struct OpenLoopSchedule {
  int64_t start_ns = 0;
  int64_t interval_ns = 0;
  size_t count = 0;

  /// `rate_per_s` requests per second for `seconds` seconds from
  /// `start_ns` (count rounds down; rate must be positive).
  static OpenLoopSchedule Make(int64_t start_ns, double rate_per_s,
                               double seconds);
  int64_t DueNs(size_t i) const {
    return start_ns + int64_t(i) * interval_ns;
  }
};

/// One open-loop request's timing: how late it was sent relative to its
/// due time, and its latency measured from the due time (so a stall that
/// delays later sends is charged to those requests too).
struct DueTiming {
  double late_ms = 0.0;
  double latency_ms = 0.0;
};
DueTiming TimeFromDue(int64_t due_ns, int64_t sent_ns, int64_t done_ns);

/// A value JSON can hold: `v` itself when finite, else 1e308 (a failed
/// request's latency is infinite, which JSON cannot represent).
double JsonSafe(double v);

/// Attempted/failed counts of one run, by cause. Every failure counts once
/// against the operations attempted: error responses, transport failures,
/// timeouts, answer mismatches found by verification, and follower image
/// digest mismatches.
struct FailureCounts {
  uint64_t attempted = 0;
  uint64_t error_responses = 0;
  uint64_t transport_failures = 0;
  uint64_t timeouts = 0;
  uint64_t answer_mismatches = 0;
  uint64_t digest_mismatches = 0;

  uint64_t failed() const {
    return error_responses + transport_failures + timeouts +
           answer_mismatches + digest_mismatches;
  }
  /// failed / attempted; 0 when nothing was attempted.
  double failed_frac() const {
    return attempted == 0 ? 0.0 : double(failed()) / double(attempted);
  }
  FailureCounts& operator+=(const FailureCounts& o);
};

}  // namespace perfbench
