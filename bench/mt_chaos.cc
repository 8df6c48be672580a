// Chaos bench: a seeded fault storm over a cluster query stream, run
// twice — once bare (no recovery) and once with the full recovery stack
// (retry with backoff + graceful degradation to the threads backend) —
// so the survival delta the fault-tolerance layer buys is a measured
// number, not a claim.
//
// The storm: every query runs kCluster (2 nodes) under a per-query
// seeded plan with 1% message drop, and every 50th query additionally
// stalls node 1's scheduler steps until liveness detection tears it down.
// The acceptance invariants (ISSUE: chaos stream):
//   - the stream completes: no hangs, every handle resolves;
//   - every query either succeeds digest-identical to a clean run or
//     fails with a typed Unavailable/DeadlineExceeded;
//   - with max_retries=2 + fallback, survival >= 99%.
//
// Flags: --queries=N  stream length (default 1000)
//        --quick      CI smoke: 200 queries
//        --seed=N     master seed (per-query plans derive from it)
//        --out=PATH   JSON baseline path (default BENCH_chaos.json)
//        --check      enforce the acceptance gates (digest mismatches,
//                     untyped failures, survival >= 0.99 with recovery)
//                     with nonzero exit instead of rewriting the baseline

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "fault/fault.h"
#include "mt/row.h"

using namespace hierdb;

namespace {

struct Args {
  uint32_t queries = 1000;
  uint64_t seed = 42;
  std::string out = "BENCH_chaos.json";
  bool check = false;
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (sscanf(argv[i], "--queries=%u", &a.queries) == 1) continue;
    if (sscanf(argv[i], "--seed=%lu", &a.seed) == 1) continue;
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      a.out = argv[i] + 6;
      continue;
    }
    if (std::strcmp(argv[i], "--quick") == 0) {
      a.queries = 200;
      continue;
    }
    if (std::strcmp(argv[i], "--check") == 0) {
      a.check = true;
      continue;
    }
  }
  if (a.queries < 50) a.queries = 50;
  return a;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Schema {
  api::RelId fact, d1, d2;
};

Schema Register(api::Session& db, uint64_t seed) {
  Schema s;
  s.fact = db.AddTable(mt::MakeTable("fact", 20000, 4, 400, seed));
  s.d1 = db.AddTable(mt::MakeTable("d1", 400, 2, 40, seed + 1));
  s.d2 = db.AddTable(mt::MakeTable("d2", 400, 2, 40, seed + 2));
  return s;
}

api::ExecOptions ClusterOpts(uint64_t seed) {
  api::ExecOptions o;
  o.backend = api::Backend::kCluster;
  o.strategy = Strategy::kDP;
  o.nodes = 2;
  o.threads_per_node = 2;
  o.seed = seed;
  o.liveness_timeout_ms = 150;
  return o;
}

/// The per-query fault plan: seeded 1% drop everywhere; every 50th query
/// stalls node 1 until detection fires (positional faults restart per
/// attempt, so a stalled query stays stalled on every cluster retry and
/// only its fallback attempt can succeed).
fault::FaultPlan PlanFor(uint32_t i, uint64_t master_seed) {
  fault::FaultPlan p;
  p.seed = master_seed * 1000003 + i;
  p.drop_prob = 0.01;
  if (i % 50 == 49) {
    p.stall_node = 1;
    p.stall_after_polls = 5;
    p.stall_ms = 0;  // until liveness detection tears the run down
  }
  return p;
}

struct ChaosRow {
  std::string mode;
  uint32_t queries = 0;
  uint64_t survived = 0;      ///< ok, digest-identical
  uint64_t unavailable = 0;   ///< typed Unavailable
  uint64_t deadline = 0;      ///< typed DeadlineExceeded
  uint64_t mismatches = 0;    ///< ok but wrong digest (must stay 0)
  uint64_t untyped = 0;       ///< any other failure (must stay 0)
  uint64_t retried = 0;       ///< succeeded on attempt > 0
  uint64_t fallbacks = 0;     ///< succeeded on the degraded backend
  uint64_t faults = 0;        ///< injected faults across winning attempts
  double survival = 0.0;
  double makespan_ms = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0, p99_ms = 0.0;
};

ChaosRow RunStorm(const Args& args, bool recover, int* failures) {
  api::SessionOptions so;
  so.max_concurrent_queries = 4;
  so.max_queued = args.queries + 16;
  api::Session db(so);
  Schema s = Register(db, args.seed);
  api::Query q =
      db.NewQuery().Scan(s.fact).Probe(s.d1, 1, 0).Probe(s.d2, 2, 0).Build();

  // The digest every chaos survivor must reproduce.
  auto clean = db.Execute(q, ClusterOpts(args.seed));
  if (!clean.ok()) {
    std::fprintf(stderr, "FAIL: clean run: %s\n",
                 clean.status().ToString().c_str());
    ++*failures;
    return {};
  }
  const uint64_t digest = clean.value().result_checksum;

  ChaosRow row;
  row.mode = recover ? "retry_fallback" : "bare";
  row.queries = args.queries;

  const double t0 = NowMs();
  std::vector<api::QueryHandle> handles;
  handles.reserve(args.queries);
  for (uint32_t i = 0; i < args.queries; ++i) {
    api::ExecOptions o = ClusterOpts(args.seed + i);
    o.fault_plan = PlanFor(i, args.seed);
    if (recover) {
      o.max_retries = 2;
      o.retry_backoff_ms = 2.0;
      o.fallback_backend = api::Backend::kThreads;
    }
    handles.push_back(db.Submit(q, o));
  }

  std::vector<double> lat_ms;
  lat_ms.reserve(args.queries);
  for (uint32_t i = 0; i < handles.size(); ++i) {
    auto r = handles[i].Take();
    if (r.ok()) {
      const api::ExecutionReport& rep = r.value().report;
      if (rep.result_checksum == digest) {
        ++row.survived;
      } else {
        ++row.mismatches;
        ++*failures;
        std::fprintf(stderr, "FAIL[%s]: query %u digest mismatch\n",
                     row.mode.c_str(), i);
      }
      if (rep.attempt > 0) ++row.retried;
      if (rep.fallback_used) ++row.fallbacks;
      row.faults += rep.faults_injected;
      lat_ms.push_back(r.value().queue_ms + r.value().exec_ms);
    } else if (r.status().code() == StatusCode::kUnavailable) {
      ++row.unavailable;
    } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
      ++row.deadline;
    } else {
      ++row.untyped;
      ++*failures;
      std::fprintf(stderr, "FAIL[%s]: query %u untyped failure: %s\n",
                   row.mode.c_str(), i, r.status().ToString().c_str());
    }
  }
  row.makespan_ms = NowMs() - t0;
  row.survival = static_cast<double>(row.survived) / row.queries;
  row.qps = row.survived / (row.makespan_ms / 1000.0);
  bench::ThroughputSummary sum = bench::Summarize(lat_ms, row.makespan_ms);
  row.p50_ms = sum.p50_ms;
  row.p99_ms = sum.p99_ms;

  std::printf("%-14s %6u q  survival %6.2f%%  unavail %4lu  retried %4lu  "
              "fallback %4lu  faults %5lu  p50 %6.1f  p99 %7.1f  %8.0f ms\n",
              row.mode.c_str(), row.queries, 100.0 * row.survival,
              static_cast<unsigned long>(row.unavailable),
              static_cast<unsigned long>(row.retried),
              static_cast<unsigned long>(row.fallbacks),
              static_cast<unsigned long>(row.faults), row.p50_ms, row.p99_ms,
              row.makespan_ms);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  std::printf("=== chaos storm: %u cluster queries, 1%% drop + stalled "
              "node every 50th (2 nodes) ===\n\n",
              args.queries);

  int failures = 0;
  bench::JsonBaseline json;

  ChaosRow bare = RunStorm(args, /*recover=*/false, &failures);
  ChaosRow rec = RunStorm(args, /*recover=*/true, &failures);

  for (const ChaosRow* r : {&bare, &rec}) {
    json.Row()
        .Str("sweep", "chaos_storm")
        .Str("mode", r->mode)
        .Num("queries", static_cast<uint64_t>(r->queries))
        .Num("survival", r->survival)
        .Num("survived", r->survived)
        .Num("unavailable", r->unavailable)
        .Num("deadline_exceeded", r->deadline)
        .Num("digest_mismatches", r->mismatches)
        .Num("untyped_failures", r->untyped)
        .Num("retried", r->retried)
        .Num("fallbacks", r->fallbacks)
        .Num("faults_injected", r->faults)
        .Num("p50_ms", r->p50_ms)
        .Num("p99_ms", r->p99_ms)
        .Num("makespan_ms", r->makespan_ms)
        .Num("qps", r->qps);
  }

  std::printf("\nrecovery delta: %.2f%% -> %.2f%% survival\n",
              100.0 * bare.survival, 100.0 * rec.survival);

  // The acceptance gates are absolute, not baseline-relative: zero digest
  // mismatches, zero untyped failures (both modes — already counted into
  // `failures` above), and >= 99% survival with the recovery stack on.
  if (rec.survival < 0.99) {
    ++failures;
    std::fprintf(stderr, "FAIL[check]: recovered survival %.4f < 0.99\n",
                 rec.survival);
  }
  if (args.check) {
    std::printf("%s\n", failures == 0 ? "check OK" : "check FAILED");
  } else if (failures == 0 && json.Write(args.out)) {
    std::printf("baseline written to %s\n", args.out.c_str());
  }
  return failures == 0 ? 0 : 1;
}
