#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  double best = 0.0;
  for (double pct : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    // Samples strictly above the pct-th percentile's rank.
    const double beyond = static_cast<double>(n) * (100.0 - pct) / 100.0;
    if (beyond + 1e-9 >= static_cast<double>(min_beyond)) best = pct;
  }
  return best;
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.n = samples.size();
  s.p50 = Quantile(samples, 0.50);
  s.p95 = Quantile(samples, 0.95);
  s.top_pct = HighestSupportedPercentile(s.n);
  s.p95_supported = s.top_pct >= 95.0;
  s.top = s.top_pct > 0.0 ? Quantile(samples, s.top_pct / 100.0) : 0.0;
  return s;
}

namespace {

size_t SliceOf(double t_ms, double start_ms, double len_ms, size_t slices) {
  const double pos = (t_ms - start_ms) / len_ms * static_cast<double>(slices);
  return static_cast<size_t>(std::max(0.0, pos));
}

}  // namespace

double SlicedQuantile(const std::vector<Sample>& samples, double start_ms,
                      double len_ms, size_t slices, double q) {
  std::vector<std::vector<double>> per(slices);
  for (const Sample& s : samples) {
    const size_t i = SliceOf(s.issued_ms, start_ms, len_ms, slices);
    if (i < slices) per[i].push_back(s.latency_ms);
  }
  std::vector<double> stat;
  for (const auto& v : per) {
    if (!v.empty()) stat.push_back(Quantile(v, q));
  }
  return Quantile(stat, 0.5);
}

double SlicedRate(const std::vector<Sample>& samples, double start_ms,
                  double len_ms, size_t slices) {
  // Per slice: (results - 1) over the time from its first result to its
  // last, a rate that is not rounded to whole results per slice.
  std::vector<double> first(slices, 0.0), last(slices, 0.0), count(slices, 0.0);
  for (const Sample& s : samples) {
    const size_t i = SliceOf(s.done_ms, start_ms, len_ms, slices);
    if (i >= slices) continue;
    first[i] = count[i] == 0.0 ? s.done_ms : std::min(first[i], s.done_ms);
    last[i] = count[i] == 0.0 ? s.done_ms : std::max(last[i], s.done_ms);
    count[i] += 1.0;
  }
  std::vector<double> rate;
  for (size_t i = 0; i < slices; ++i) {
    if (count[i] >= 2.0 && last[i] > first[i]) {
      rate.push_back((count[i] - 1.0) / ((last[i] - first[i]) / 1000.0));
    }
  }
  return Quantile(rate, 0.5);
}

size_t SlicesFor(size_t n, size_t min_per_slice, size_t max_slices) {
  return std::clamp<size_t>(n / std::max<size_t>(min_per_slice, 1), 1,
                            max_slices);
}

LatenessReport SummarizeLateness(const std::vector<double>& lateness_ms) {
  LatenessReport r;
  r.sent = lateness_ms.size();
  r.p50_ms = Quantile(lateness_ms, 0.5);
  for (double l : lateness_ms) {
    r.max_ms = std::max(r.max_ms, l);
    if (l > 1.0) ++r.late_over_1ms;
  }
  return r;
}

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kFailed: return "failed";
    case Outcome::kRefused: return "refused";
    case Outcome::kDeadlineMissed: return "deadline_missed";
    case Outcome::kWrongDigest: return "wrong_digest";
  }
  return "?";
}

Outcome Classify(const hierdb::Result<hierdb::api::QueryResult>& r,
                 const Digest& expected) {
  if (!r.ok()) {
    switch (r.status().code()) {
      case hierdb::StatusCode::kResourceExhausted: return Outcome::kRefused;
      case hierdb::StatusCode::kDeadlineExceeded:
        return Outcome::kDeadlineMissed;
      default: return Outcome::kFailed;
    }
  }
  const hierdb::api::ExecutionReport& rep = r.value().report;
  if (!rep.has_result || rep.result_rows != expected.rows ||
      rep.result_checksum != expected.checksum) {
    return Outcome::kWrongDigest;
  }
  return Outcome::kOk;
}

void Tally::Add(Outcome o) {
  ++attempted;
  switch (o) {
    case Outcome::kOk: ++ok; break;
    case Outcome::kFailed: ++failed; break;
    case Outcome::kRefused: ++refused; break;
    case Outcome::kDeadlineMissed: ++deadline_missed; break;
    case Outcome::kWrongDigest: ++wrong_digest; break;
  }
}

void Tally::Merge(const Tally& t) {
  attempted += t.attempted;
  ok += t.ok;
  failed += t.failed;
  refused += t.refused;
  deadline_missed += t.deadline_missed;
  wrong_digest += t.wrong_digest;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"qps", "1/s", "higher"},
      {"latency_p50_ms", "ms", "lower"},
      {"latency_p95_ms", "ms", "lower"},
      {"refresh_p50_ms", "ms", "lower"},
      {"ok_frac", "frac", "higher"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"api.submit_us_p50", "us", "lower"},
      {"api.exec_ms_p50", "ms", "lower"},
      {"sched.queue_ms_p50", "ms", "lower"},
      {"sched.queue_ms_p95", "ms", "lower"},
      {"sched.loop_lag_p99_ms", "ms", "lower"},
      {"sched.timer_slip_max_ms", "ms", "lower"},
      {"sched.deadline_missed", "count", "lower"},
      {"pool.caller_task_frac", "frac", "lower"},
      {"pool.foreign_steals_per_q", "count/q", "higher"},
      {"pool.bodies_per_q", "count/q", "lower"},
      {"mt.scan_busy_ms_per_q", "ms/q", "lower"},
      {"mt.build_busy_ms_per_q", "ms/q", "lower"},
      {"mt.probe_busy_ms_per_q", "ms/q", "lower"},
      {"mt.agg_tail_ms_per_q", "ms/q", "lower"},
      {"mt.activations_per_q", "count/q", "lower"},
      {"mt.escapes_per_q", "count/q", "lower"},
      {"mt.idle_waits_per_q", "count/q", "lower"},
      {"mt.imbalance_mean", "ratio", "lower"},
      {"mt.build_cache_hit_rate", "frac", "higher"},
      {"mt.build_cache_evictions", "count", "lower"},
      {"mt.build_cache_dedup_waits", "count", "lower"},
      {"cluster.scan_busy_ms_per_q", "ms/q", "lower"},
      {"cluster.probe_busy_ms_per_q", "ms/q", "lower"},
      {"cluster.agg_busy_ms_per_q", "ms/q", "lower"},
      {"cluster.steal_success_rate", "frac", "higher"},
      {"cluster.stolen_activations_per_q", "count/q", "higher"},
      {"cluster.fragment_cache_hit_rate", "frac", "higher"},
      {"cluster.node_imbalance_mean", "ratio", "lower"},
      {"cluster.idle_waits_per_q", "count/q", "lower"},
      {"net.messages_per_q", "count/q", "lower"},
      {"net.dataflow_bytes_per_q", "B/q", "lower"},
      {"net.repartition_bytes_per_q", "B/q", "lower"},
      {"net.lb_bytes_per_q", "B/q", "lower"},
      {"net.protocol_bytes_per_q", "B/q", "lower"},
      {"catalog.add_table_ms_p50", "ms", "lower"},
      {"obs.recorder_events_per_q", "count/q", "lower"},
      {"obs.recorder_dropped", "count", "lower"},
      {"obs.trace_overhead_frac", "frac", "lower"},
  };
  return kSpecs;
}

const MetricSpec* FindMetric(const std::string& name) {
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& s : *table) {
      if (name == s.name) return &s;
    }
  }
  return nullptr;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << JsonString(metrics[i].name) << ": {\"value\": "
       << JsonNumber(metrics[i].value)
       << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  os << "}}";
  return os.str();
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
