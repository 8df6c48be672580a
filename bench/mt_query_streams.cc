// Concurrent query streams through the async Session front door: a batch
// of independent star-join queries submitted together, swept over the
// admission controller's concurrency limit on the kThreads and kCluster
// backends, a FIFO vs shortest-cost-first comparison on a mixed
// (small/large) stream, and the same stream with the build-side reuse
// cache on vs off (hit/miss counts from StreamReport).
//
// Reports queries/sec, makespan and latency percentiles via the shared
// bench_common helpers and drops a machine-readable baseline in
// BENCH_streams.json.
//
// Flags: --queries=N stream length (default 8)
//        --rows=R    fact rows per query (default 60000)
//        --seed=N    master seed
//        --quick     CI smoke: 4 queries x 6000 rows
//        --out=PATH  JSON baseline path (default BENCH_streams.json)

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "mt/row.h"

using namespace hierdb;

namespace {

struct Args {
  uint32_t queries = 8;
  uint64_t rows = 60000;
  uint64_t seed = 42;
  std::string out = "BENCH_streams.json";
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (sscanf(argv[i], "--queries=%u", &a.queries) == 1) continue;
    if (sscanf(argv[i], "--rows=%lu", &a.rows) == 1) continue;
    if (sscanf(argv[i], "--seed=%lu", &a.seed) == 1) continue;
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      a.out = argv[i] + 6;
      continue;
    }
    if (std::strcmp(argv[i], "--quick") == 0) {
      a.queries = 4;
      a.rows = 6000;
      continue;
    }
  }
  return a;
}

// Star schema shared by every stream: fact(key, fk1, fk2, fk3) + three
// dimensions. Queries probe distinct dimension subsets so the stream is
// genuinely heterogeneous.
struct Schema {
  api::RelId fact, d1, d2, d3;
};

Schema Register(api::Session& db, uint64_t rows, uint64_t seed) {
  Schema s;
  s.fact = db.AddTable(mt::MakeTable("fact", rows, 4, 1000, seed));
  s.d1 = db.AddTable(mt::MakeTable("d1", 1000, 2, 100, seed + 1));
  s.d2 = db.AddTable(mt::MakeTable("d2", 1000, 2, 100, seed + 2));
  s.d3 = db.AddTable(mt::MakeTable("d3", 1000, 2, 100, seed + 3));
  return s;
}

std::vector<api::Query> MakeStream(api::Session& db, const Schema& s,
                                   uint32_t n) {
  std::vector<api::Query> qs;
  for (uint32_t i = 0; i < n; ++i) {
    auto qb = db.NewQuery().Scan(s.fact).Probe(s.d1, 1, 0);
    if (i % 2 == 0) qb.Probe(s.d2, 2, 0);
    if (i % 3 == 0) qb.Probe(s.d3, 3, 0);
    qs.push_back(qb.Build());
  }
  return qs;
}

// Uniform heavy stream for the reuse A/B: every query probes all three
// dimensions.
std::vector<api::Query> MakeUniformStarStream(api::Session& db,
                                              const Schema& s, uint32_t n) {
  return std::vector<api::Query>(n, db.NewQuery()
                                        .Scan(s.fact)
                                        .Probe(s.d1, 1, 0)
                                        .Probe(s.d2, 2, 0)
                                        .Probe(s.d3, 3, 0)
                                        .Build());
}

api::ExecOptions Opts(api::Backend backend, uint64_t seed) {
  api::ExecOptions o;
  o.backend = backend;
  o.strategy = Strategy::kDP;
  o.nodes = backend == api::Backend::kCluster ? 2 : 1;
  o.threads_per_node = 2;
  o.seed = seed;
  return o;
}

void SweepConcurrency(api::Backend backend, const Args& args,
                      bench::JsonBaseline& json) {
  std::printf("--- %s backend: admission-concurrency sweep ---\n",
              api::BackendName(backend));
  bench::PrintThroughputHeader();
  for (uint32_t mc : {1u, 2u, 4u}) {
    api::SessionOptions so;
    so.max_concurrent_queries = mc;
    api::Session db(so);
    Schema s = Register(db, args.rows, args.seed);
    auto queries = MakeStream(db, s, args.queries);
    api::StreamReport rep = db.RunStream(queries, Opts(backend, args.seed));
    if (rep.failed > 0) {
      for (const auto& r : rep.results) {
        if (!r.ok()) {
          std::printf("stream failed: %s\n", r.status().ToString().c_str());
          break;
        }
      }
      return;
    }
    bench::ThroughputSummary sum = bench::Summarize(rep);
    bench::PrintThroughputRow(
        "max_concurrent=" + std::to_string(mc) + " serial=" +
            std::to_string(static_cast<int>(rep.serial_ms)) + "ms",
        sum);
    json.Row()
        .Str("sweep", "concurrency")
        .Str("backend", api::BackendName(backend))
        .Num("max_concurrent", static_cast<uint64_t>(mc))
        .Num("qps", sum.qps)
        .Num("makespan_ms", sum.makespan_ms)
        .Num("p50_ms", sum.p50_ms)
        .Num("p95_ms", sum.p95_ms)
        .Num("p99_ms", sum.p99_ms);
  }
  std::printf("\n");
}

void ComparePolicies(const Args& args, bench::JsonBaseline& json) {
  std::printf(
      "--- admission policy on a mixed stream (threads backend) ---\n");
  bench::PrintThroughputHeader();
  for (auto policy : {api::AdmissionPolicy::kFifo,
                      api::AdmissionPolicy::kShortestCostFirst}) {
    api::SessionOptions so;
    so.max_concurrent_queries = 1;  // ordering matters only under queueing
    so.admission = policy;
    api::Session db(so);
    Schema s = Register(db, args.rows, args.seed);
    // Interleave heavy (3-probe) and light (1-probe) queries so policy
    // choice moves the latency percentiles.
    std::vector<api::Query> queries;
    for (uint32_t i = 0; i < args.queries; ++i) {
      auto qb = db.NewQuery().Scan(s.fact).Probe(s.d1, 1, 0);
      if (i % 2 == 0) qb.Probe(s.d2, 2, 0).Probe(s.d3, 3, 0);
      queries.push_back(qb.Build());
    }
    api::StreamReport rep =
        db.RunStream(queries, Opts(api::Backend::kThreads, args.seed));
    const char* label =
        policy == api::AdmissionPolicy::kFifo ? "fifo" : "shortest-cost-first";
    bench::ThroughputSummary sum = bench::Summarize(rep);
    bench::PrintThroughputRow(label, sum);
    json.Row()
        .Str("sweep", "policy")
        .Str("policy", label)
        .Num("qps", sum.qps)
        .Num("p50_ms", sum.p50_ms)
        .Num("p95_ms", sum.p95_ms)
        .Num("p99_ms", sum.p99_ms);
  }
  std::printf("\n");
}

// The reuse-cache A/B: every query probes the same three dimensions, so
// with the cache on only the first wave builds hash tables and the rest
// hit. Reports qps/p95 plus the stream's hit/miss totals.
void SharedBuildVsRebuild(const Args& args, bench::JsonBaseline& json) {
  std::printf("--- shared build vs rebuild (threads backend, %u queries "
              "over one star schema) ---\n",
              args.queries);
  bench::PrintThroughputHeader();
  for (bool reuse : {false, true}) {
    api::SessionOptions so;
    so.max_concurrent_queries = 4;
    api::Session db(so);
    Schema s = Register(db, args.rows, args.seed);
    std::vector<api::Query> queries =
        MakeUniformStarStream(db, s, args.queries);
    api::ExecOptions opts = Opts(api::Backend::kThreads, args.seed);
    opts.reuse_builds = reuse;
    api::StreamReport rep = db.RunStream(queries, opts);
    bench::ThroughputSummary sum = bench::Summarize(rep);
    bench::PrintThroughputRow(
        std::string(reuse ? "reuse_builds" : "rebuild") + " cache=" +
            std::to_string(rep.build_cache_hits) + "/" +
            std::to_string(rep.build_cache_hits + rep.build_cache_misses),
        sum);
    json.Row()
        .Str("sweep", "shared_build")
        .Str("mode", reuse ? "reuse" : "rebuild")
        .Num("qps", sum.qps)
        .Num("makespan_ms", sum.makespan_ms)
        .Num("p95_ms", sum.p95_ms)
        .Num("p99_ms", sum.p99_ms)
        .Num("cache_hits", rep.build_cache_hits)
        .Num("cache_misses", rep.build_cache_misses);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  std::printf("=== concurrent query streams (async Session::Submit) ===\n");
  std::printf("stream: %u queries x %lu fact rows (host: %u hardware "
              "threads)\n\n",
              args.queries, static_cast<unsigned long>(args.rows),
              std::thread::hardware_concurrency());

  bench::JsonBaseline json;
  SweepConcurrency(api::Backend::kThreads, args, json);
  SweepConcurrency(api::Backend::kCluster, args, json);
  ComparePolicies(args, json);
  SharedBuildVsRebuild(args, json);
  if (json.Write(args.out)) {
    std::printf("baseline written to %s\n", args.out.c_str());
  }
  return 0;
}
