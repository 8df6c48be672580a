// Flight-recorder overhead bench: the always-on black box is only
// "always-on" if it is too cheap to turn off. This runs the same
// threads-backend query stream through two sessions — recorder armed
// (the default) and disarmed (SessionOptions::flight_recorder=false,
// every Record call reduced to one branch) — and measures the
// throughput delta the recorder costs.
//
// The modes run as `--pairs` back-to-back pairs of trials, the order
// alternating from pair to pair (disarmed first, then armed first), each
// pair on a fresh session per mode, and each pair gives one overhead
// reading, 1 - armed qps / disarmed qps. Stream makespans on a shared
// host drift by tens of percent from trial to trial; the two trials of a
// pair share that drift, and fresh sessions keep one session's luck off
// one mode, so the median per-pair reading is stable where a best-of
// comparison of independent trials is not. The pair counts are sized to
// the per-pair spread measured on a shared 4-vCPU host (about 8% for
// 200-query trials): the median of 41 pairs then spreads about +-1.5%.
// The gate: the median overhead is at most 5%.
//
// Flags: --queries=N  stream length per trial (default 600)
//        --pairs=N    trial pairs (default 21)
//        --quick      CI smoke: 200 queries, 41 pairs
//        --seed=N     table/synthesis seed
//        --out=PATH   JSON baseline path (default BENCH_obs.json)
//        --check      enforce the <= 5% gate with nonzero exit instead
//                     of rewriting the baseline

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "mt/row.h"

using namespace hierdb;

namespace {

struct Args {
  uint32_t queries = 600;
  uint32_t pairs = 21;
  uint64_t seed = 42;
  std::string out = "BENCH_obs.json";
  bool check = false;
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (sscanf(argv[i], "--queries=%u", &a.queries) == 1) continue;
    if (sscanf(argv[i], "--pairs=%u", &a.pairs) == 1) continue;
    if (sscanf(argv[i], "--seed=%lu", &a.seed) == 1) continue;
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      a.out = argv[i] + 6;
      continue;
    }
    if (std::strcmp(argv[i], "--quick") == 0) {
      a.queries = 200;
      a.pairs = 41;
      continue;
    }
    if (std::strcmp(argv[i], "--check") == 0) {
      a.check = true;
      continue;
    }
  }
  if (a.queries < 50) a.queries = 50;
  if (a.pairs < 1) a.pairs = 1;
  return a;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Trial {
  double qps = 0.0;
  double makespan_ms = 0.0;
  double p50_ms = 0.0, p99_ms = 0.0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct ModeResult {
  bool armed = false;
  /// Medians over the mode's trials.
  double qps = 0.0, p50_ms = 0.0, p99_ms = 0.0, makespan_ms = 0.0;
  uint64_t events_recorded = 0;  ///< recorder lifetime counter (armed)
  uint64_t events_dropped = 0;
  uint32_t rings_claimed = 0;
};

/// One stream trial: submit `queries` 2-join chain queries through the
/// async scheduler (4 lanes) and drain them all.
Trial RunTrial(api::Session& db, const api::Query& q, uint32_t queries,
               uint64_t seed, int* failures) {
  api::ExecOptions o;
  o.backend = api::Backend::kThreads;
  o.strategy = Strategy::kDP;
  o.threads_per_node = 2;
  o.seed = seed;

  Trial t;
  const double t0 = NowMs();
  std::vector<api::QueryHandle> handles;
  handles.reserve(queries);
  for (uint32_t i = 0; i < queries; ++i) handles.push_back(db.Submit(q, o));
  std::vector<double> lat_ms;
  lat_ms.reserve(queries);
  for (uint32_t i = 0; i < handles.size(); ++i) {
    auto r = handles[i].Take();
    if (!r.ok()) {
      ++*failures;
      std::fprintf(stderr, "FAIL: query %u: %s\n", i,
                   r.status().ToString().c_str());
      continue;
    }
    lat_ms.push_back(r.value().queue_ms + r.value().exec_ms);
  }
  t.makespan_ms = NowMs() - t0;
  t.qps = queries / (t.makespan_ms / 1000.0);
  bench::ThroughputSummary sum = bench::Summarize(lat_ms, t.makespan_ms);
  t.p50_ms = sum.p50_ms;
  t.p99_ms = sum.p99_ms;
  return t;
}

/// One mode's session. Every trial pair builds a fresh session per mode,
/// so a bias one session carries (where its pool's threads and its
/// tables landed) falls on either mode at random, not on one mode for
/// the whole run.
struct ModeSession {
  ModeSession(const Args& args, bool armed_in) : armed(armed_in) {
    api::SessionOptions so;
    so.flight_recorder = armed;
    so.max_concurrent_queries = 4;
    so.max_queued = args.queries + 16;
    db = std::make_unique<api::Session>(so);
    api::RelId fact =
        db->AddTable(mt::MakeTable("fact", 20000, 3, 400, args.seed));
    api::RelId d1 =
        db->AddTable(mt::MakeTable("d1", 400, 2, 40, args.seed + 1));
    api::RelId d2 =
        db->AddTable(mt::MakeTable("d2", 400, 2, 40, args.seed + 2));
    q = db->NewQuery().Scan(fact).Probe(d1, 1, 0).Probe(d2, 2, 0).Build();
  }

  Trial Run(const Args& args, uint32_t pair, int* failures) {
    Trial t = RunTrial(*db, q, args.queries, args.seed + pair, failures);
    std::printf("  %-8s pair %2u: %8.1f qps  p50 %6.2f  p99 %6.2f  "
                "%8.0f ms\n",
                armed ? "armed" : "disarmed", pair + 1, t.qps, t.p50_ms,
                t.p99_ms, t.makespan_ms);
    return t;
  }

  bool armed;
  std::unique_ptr<api::Session> db;
  api::Query q;
};

ModeResult Summarize(bool armed, const std::vector<Trial>& trials) {
  auto median = [&](double Trial::*field) {
    std::vector<double> v;
    for (const Trial& t : trials) v.push_back(t.*field);
    return Median(std::move(v));
  };
  ModeResult r;
  r.armed = armed;
  r.qps = median(&Trial::qps);
  r.p50_ms = median(&Trial::p50_ms);
  r.p99_ms = median(&Trial::p99_ms);
  r.makespan_ms = median(&Trial::makespan_ms);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  std::printf("=== flight-recorder overhead: %u threads-backend queries x "
              "%u trial pairs, armed vs disarmed ===\n\n",
              args.queries, args.pairs);

  int failures = 0;
  bench::JsonBaseline json;

  // Per pair: a fresh session per mode, built, warmed (pool threads up,
  // caches and allocator warm) and timed in the pair's order, which
  // alternates from pair to pair.
  std::vector<Trial> trials[2];  // [armed]
  std::vector<double> pair_overhead;
  uint64_t recorded = 0, dropped = 0;
  uint32_t rings = 0;
  for (uint32_t pair = 0; pair < args.pairs; ++pair) {
    const bool order[2] = {pair % 2 == 1, pair % 2 == 0};  // armed?
    std::unique_ptr<ModeSession> session[2];
    for (bool armed : order) {
      session[armed] = std::make_unique<ModeSession>(args, armed);
    }
    for (bool armed : order) {
      RunTrial(*session[armed]->db, session[armed]->q, args.queries / 2 + 1,
               args.seed, &failures);
    }
    Trial t[2];
    for (bool armed : order) {
      t[armed] = session[armed]->Run(args, pair, &failures);
      trials[armed].push_back(t[armed]);
    }
    if (t[0].qps > 0.0) pair_overhead.push_back(1.0 - t[1].qps / t[0].qps);
    const api::SessionMetrics m = session[1]->db->MetricsSnapshot();
    recorded += m.recorder.recorded;
    dropped += m.recorder.dropped;
    rings = std::max(rings, m.recorder.rings_claimed);
  }
  ModeResult disarmed = Summarize(false, trials[0]);
  ModeResult armed = Summarize(true, trials[1]);
  armed.events_recorded = recorded;
  armed.events_dropped = dropped;
  armed.rings_claimed = rings;

  const double overhead = Median(pair_overhead);
  // Lifetime counters over every query the armed sessions ran, warmups
  // included.
  const double events_per_query =
      static_cast<double>(armed.events_recorded) /
      ((args.queries + args.queries / 2 + 1) * args.pairs);

  for (const ModeResult* m : {&disarmed, &armed}) {
    json.Row()
        .Str("sweep", "recorder_overhead")
        .Str("mode", m->armed ? "armed" : "disarmed")
        .Num("queries", static_cast<uint64_t>(args.queries))
        .Num("pairs", static_cast<uint64_t>(args.pairs))
        .Num("median_qps", m->qps)
        .Num("p50_ms", m->p50_ms)
        .Num("p99_ms", m->p99_ms)
        .Num("makespan_ms", m->makespan_ms)
        .Num("events_recorded", m->events_recorded)
        .Num("events_dropped", m->events_dropped)
        .Num("rings_claimed", static_cast<uint64_t>(m->rings_claimed));
  }
  json.Row()
      .Str("sweep", "recorder_overhead")
      .Str("mode", "delta")
      .Num("overhead_frac", overhead)
      .Num("events_per_query", events_per_query);

  std::printf("\nmedians over %u pairs: disarmed %8.1f qps, armed %8.1f "
              "qps; median per-pair overhead %+.2f%%  (%.1f events/query, "
              "%llu dropped)\n",
              args.pairs, disarmed.qps, armed.qps, 100.0 * overhead,
              events_per_query, (unsigned long long)armed.events_dropped);

  // The gate: always-on must cost <= 5% of disarmed throughput. Absolute,
  // not baseline-relative — a recorder that got expensive fails CI even
  // if it got expensive slowly.
  if (overhead > 0.05) {
    ++failures;
    std::fprintf(stderr, "FAIL[check]: recorder overhead %.2f%% > 5%%\n",
                 100.0 * overhead);
  }
  if (armed.events_recorded == 0) {
    ++failures;
    std::fprintf(stderr, "FAIL[check]: armed recorder recorded nothing\n");
  }
  if (args.check) {
    std::printf("%s\n", failures == 0 ? "check OK" : "check FAILED");
  } else if (failures == 0 && json.Write(args.out)) {
    std::printf("baseline written to %s\n", args.out.c_str());
  }
  return failures == 0 ? 0 : 1;
}
