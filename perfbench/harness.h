// perfbench harness: the measurement rules every workload shares.
//
//   - Latency summaries follow one percentile rule: report the median and
//     the highest percentile of a fixed ladder that still has at least
//     ten samples beyond it, with the sample count.
//   - Open-loop timing runs from when a query was *due*, not from when the
//     generator got round to sending it, and the generator's own lateness
//     is reported beside it.
//   - Every attempted query lands in exactly one outcome; anything but a
//     correct, in-time answer counts as a failure.
//   - The result line is the one JSON object the benchmark contract asks
//     for, printed last on stdout.
//
// The helpers are pure functions of their inputs so harness_test.cc can
// pin them down without running a workload.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/session.h"

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double Quantile(std::vector<double> v, double q);

/// The highest percentile of {50, 90, 95, 99, 99.9} with at least
/// `min_beyond` of `n` samples strictly above its rank; 0 when even the
/// median is unsupported.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

struct LatencySummary {
  size_t n = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  bool p95_supported = false;  ///< n leaves >= 10 samples beyond p95
  double top_pct = 0.0;        ///< HighestSupportedPercentile(n)
  double top = 0.0;            ///< latency at top_pct
};

LatencySummary Summarize(const std::vector<double>& samples);

/// One successful query of the measured window: when it was issued (its
/// Submit in a closed loop, its due time in an open loop), when its
/// result arrived, and its latency.
struct Sample {
  double issued_ms = 0.0;
  double done_ms = 0.0;
  double latency_ms = 0.0;
};

/// Statistics robust to a slow episode shorter than half the window: the
/// window [start, start + len) is cut into `slices` equal time slices, the
/// statistic is taken per slice and the median over the slices reported.
///
/// Quantile `q` of the latencies of the samples issued in each slice.
double SlicedQuantile(const std::vector<Sample>& samples, double start_ms,
                      double len_ms, size_t slices, double q);
/// Results per second arriving in each slice: (results - 1) over the time
/// from the slice's first result to its last. Results after the window
/// are not counted.
double SlicedRate(const std::vector<Sample>& samples, double start_ms,
                  double len_ms, size_t slices);
/// How many slices `n` samples allow with at least `min_per_slice`
/// expected per slice, between 1 and `max_slices`.
size_t SlicesFor(size_t n, size_t min_per_slice, size_t max_slices = 10);

/// Fixed-rate open-loop schedule: query i is due at start + i / rate.
struct OpenLoopSchedule {
  double start_ms = 0.0;
  double rate_qps = 1.0;

  double DueMs(uint64_t i) const {
    return start_ms + static_cast<double>(i) * 1000.0 / rate_qps;
  }
};

/// Open-loop latency: from when the query was due to when its result
/// arrived. A generator that sends late charges its lateness to the query.
inline double LatencyFromDueMs(double due_ms, double done_ms) {
  return done_ms - due_ms;
}

/// How late the generator sent, over every query it sent.
struct LatenessReport {
  size_t sent = 0;
  double p50_ms = 0.0;
  double max_ms = 0.0;
  size_t late_over_1ms = 0;  ///< sends more than 1 ms behind schedule
};

LatenessReport SummarizeLateness(const std::vector<double>& lateness_ms);

/// Where one attempted query ended.
enum class Outcome {
  kOk,
  kFailed,          ///< a typed error other than the two below
  kRefused,         ///< admission backpressure (ResourceExhausted)
  kDeadlineMissed,  ///< DeadlineExceeded, queued or mid-run
  kWrongDigest,     ///< completed, but (rows, checksum) differ from reference
};

const char* OutcomeName(Outcome o);

/// A query template's reference digest, computed once with validation.
struct Digest {
  uint64_t rows = 0;
  uint64_t checksum = 0;
};

Outcome Classify(const hierdb::Result<hierdb::api::QueryResult>& r,
                 const Digest& expected);

/// Per-outcome counts; fail_frac counts every non-kOk outcome.
struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;
  uint64_t deadline_missed = 0;
  uint64_t wrong_digest = 0;

  void Add(Outcome o);
  void Merge(const Tally& t);
  uint64_t not_ok() const { return attempted - ok; }
  double fail_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(not_ok()) /
                                static_cast<double>(attempted);
  }
};

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Every metric the benchmark can emit, in BENCHMARK.json order:
/// end-to-end metrics (trace 0) and per-layer metrics (trace 1).
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" | "lower"
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Looks `name` up in the two tables; nullptr when unknown.
const MetricSpec* FindMetric(const std::string& name);

/// Full-precision number for JSON ("%.17g"; non-finite values become 0).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

/// The contract's last stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Wall clock in milliseconds on one steady time base.
double NowMs();

/// Peak resident set of this process (getrusage), in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
