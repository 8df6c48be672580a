// Real-thread counterpart of Figures 6 and 8: SP, DP and FP executing the
// same multi-join pipeline on one shared-memory node (this host), with
// wall-clock speedup versus thread count and the effect of skew — all
// through the unified api::Session. Each thread count gets its own
// session, sized so that its workers are the query's threads, and one
// untimed warm-up run; every run is checked against the reference digest
// (exit 1 on a mismatch).
//
// Flags: --rows=R --dims=K --maxthreads=T --skew=S

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "api/session.h"

using namespace hierdb;

namespace {

struct Args {
  uint64_t rows = 200000;
  uint32_t dims = 3;
  uint32_t maxthreads = 0;  // 0 = hardware concurrency
  double skew = 0.0;
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (sscanf(argv[i], "--rows=%lu", &a.rows) == 1) continue;
    if (sscanf(argv[i], "--dims=%u", &a.dims) == 1) continue;
    if (sscanf(argv[i], "--maxthreads=%u", &a.maxthreads) == 1) continue;
    if (sscanf(argv[i], "--skew=%lf", &a.skew) == 1) continue;
  }
  if (a.maxthreads == 0) {
    a.maxthreads = std::max(2u, std::thread::hardware_concurrency());
  }
  return a;
}

struct RefDigest {
  uint64_t rows = 0;
  uint64_t checksum = 0;
  bool set = false;
};

/// One run's wall time, and the activations cross-query guests ran for it
/// (activations no rented worker ran). -1 s: failed or digest mismatch.
struct Run {
  double seconds = -1.0;
  uint64_t guest_acts = 0;
};

// The single-threaded reference runs once (first call); every later run
// is checked against its digest without re-executing it.
Run RunOnce(api::Session& db, const api::Query& query, Strategy s,
            uint32_t threads, RefDigest* ref) {
  api::ExecOptions o;
  o.backend = api::Backend::kThreads;
  o.strategy = s;
  o.threads_per_node = threads;
  o.buckets = 64;
  o.morsel_rows = 8192;
  o.batch_rows = 4096;
  o.queue_capacity = 256;
  o.validate = !ref->set;
  auto got = db.Execute(query, o);
  if (!got.ok()) return {};
  const api::ExecutionReport& m = got.value();
  if (!ref->set) {
    if (!m.reference_match) return {};
    *ref = {m.result_rows, m.result_checksum, true};
  } else if (m.result_rows != ref->rows ||
             m.result_checksum != ref->checksum) {
    return {};
  }
  uint64_t rented = 0;
  if (m.threads.has_value()) {
    for (uint64_t b : m.threads->busy_per_thread) rented += b;
  }
  return {m.wall_seconds, m.activations - std::min(m.activations, rented)};
}

/// A session whose pool plus the renting caller are `threads` workers, so
/// no idle pool thread is left to join a DP run as a cross-query guest
/// (a pool has at least one thread: at 1 thread one guest remains
/// possible, and the "DP guest" column counts what it ran). The star
/// query's tables are the same in every session (fixed seeds).
struct Bench {
  std::unique_ptr<api::Session> db;
  api::Query query;
};

Bench MakeBench(const Args& args, uint32_t threads) {
  api::SessionOptions so;
  so.pool_threads = std::max(1u, threads - 1);
  Bench b{std::make_unique<api::Session>(so), {}};
  api::Session& db = *b.db;
  api::RelId fact;
  if (args.skew > 0) {
    fact = db.AddTable(mt::MakeSkewedTable("fact", args.rows, args.dims + 1,
                                           3000, 1, args.skew, 7));
  } else {
    fact = db.AddTable(
        mt::MakeTable("fact", args.rows, args.dims + 1, 3000, 7));
  }
  api::QueryBuilder qb = db.NewQuery();
  qb.Scan(fact);
  for (uint32_t d = 0; d < args.dims; ++d) {
    api::RelId dim = db.AddTable(mt::MakeTable("dim", 3000, 2, 100, 17 + d));
    qb.Probe(dim, d + 1, 0);
  }
  b.query = qb.Build();
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  std::printf("=== real executor: SP / DP / FP pipeline strategies "
              "(Figures 6 & 8 analog) ===\n");
  std::printf("star join: %lu fact rows x %u dims, probe skew %.1f "
              "(host: %u hardware threads)\n",
              static_cast<unsigned long>(args.rows), args.dims, args.skew,
              std::thread::hardware_concurrency());
  std::printf("NOTE: on a single-core host the thread sweep measures "
              "strategy overhead, not parallel speedup; the simulated "
              "engine benches (fig06/fig08) carry the paper's speedup "
              "results.\n\n");

  std::printf("%-8s %10s %10s %10s %12s %12s %10s\n", "threads", "SP(s)",
              "DP(s)", "FP(s)", "DP speedup", "DP/SP", "DP guest");
  double dp1 = 0;
  RefDigest ref;
  for (uint32_t t = 1; t <= args.maxthreads; t *= 2) {
    Bench b = MakeBench(args, t);
    // Untimed warm-up: the pool starts and the dimension builds enter the
    // build cache, so no timed row pays them alone.
    const Run warm = RunOnce(*b.db, b.query, Strategy::kDP, t, &ref);
    const Run sp = RunOnce(*b.db, b.query, Strategy::kSP, t, &ref);
    const Run dp = RunOnce(*b.db, b.query, Strategy::kDP, t, &ref);
    const Run fp = RunOnce(*b.db, b.query, Strategy::kFP, t, &ref);
    if (warm.seconds < 0 || sp.seconds < 0 || dp.seconds < 0 ||
        fp.seconds < 0) {
      std::fprintf(stderr, "run failed at %u threads\n", t);
      return 1;
    }
    if (t == 1) dp1 = dp.seconds;
    std::printf("%-8u %10.3f %10.3f %10.3f %11.2fx %12.2f %10lu\n", t,
                sp.seconds, dp.seconds, fp.seconds, dp1 / dp.seconds,
                dp.seconds / sp.seconds,
                static_cast<unsigned long>(dp.guest_acts));
  }
  std::printf("\npaper shape: SP best in shared-memory, DP within a few "
              "percent, FP worst (discretization); near-linear speedup "
              "for SP and DP.\n");
  return 0;
}
