// Real-thread counterpart of Section 5.3 / Figure 10: DP versus FP on a
// hierarchical cluster (thread-group SM-nodes coupled by the message
// fabric), running a pipeline chain under tuple-placement skew — through
// the unified api::Session.
//
// Reported per strategy: wall time, data moved by pipelined
// redistribution, data moved by global load balancing (the paper measures
// FP moving 2-4x more), steal traffic, idle waits and node imbalance. Each
// strategy runs --reps times (DP and FP alternating which goes first), and
// wall time, LB bytes and the FP/DP ratios are summarized as median and
// min-max.
//
// Flags: --nodes=N --threads=T --joins=K --rows=R --skew=S --reps=N

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "api/session.h"

using namespace hierdb;

namespace {

struct Args {
  uint32_t nodes = 4;
  uint32_t threads = 2;
  uint32_t joins = 4;
  uint64_t rows = 150000;
  double skew = 0.8;
  uint32_t reps = 5;
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (sscanf(argv[i], "--nodes=%u", &a.nodes) == 1) continue;
    if (sscanf(argv[i], "--threads=%u", &a.threads) == 1) continue;
    if (sscanf(argv[i], "--joins=%u", &a.joins) == 1) continue;
    if (sscanf(argv[i], "--rows=%lu", &a.rows) == 1) continue;
    if (sscanf(argv[i], "--skew=%lf", &a.skew) == 1) continue;
    if (sscanf(argv[i], "--reps=%u", &a.reps) == 1) continue;
    std::fprintf(stderr,
                 "unknown flag %s (known: --nodes= --threads= --joins= "
                 "--rows= --skew= --reps=)\n",
                 argv[i]);
    std::exit(2);
  }
  if (a.reps == 0) a.reps = 1;
  return a;
}

struct Spread {
  double median = 0, min = 0, max = 0;
};

Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return {n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2, v.front(),
          v.back()};
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  std::printf("=== real cluster: DP vs FP transfer volume (Section 5.3) "
              "===\n");
  std::printf("config: %u nodes x %u threads, %u-join chain, %lu fact "
              "rows, placement skew %.1f\n"
              "(transfer volumes, steal counts and idle waits are the "
              "paper's Section 5.3 signals; wall times on a small host "
              "reflect overhead, not cluster parallelism)\n\n",
              args.nodes, args.threads, args.joins,
              static_cast<unsigned long>(args.rows), args.skew);

  // Workload: fact with one FK column per join; the session partitions the
  // fact with Zipf(skew) placement across nodes and hash-declusters the
  // dimensions on their keys.
  api::Session db;
  api::RelId fact = db.AddTable(
      mt::MakeTable("fact", args.rows, args.joins + 1, 2000, 7));
  api::QueryBuilder qb = db.NewQuery();
  qb.Scan(fact);
  for (uint32_t j = 0; j < args.joins; ++j) {
    api::RelId dim = db.AddTable(mt::MakeTable("dim", 2000, 2, 100, 17 + j));
    qb.Probe(dim, j + 1, 0);
  }
  api::Query query = qb.Build();

  // Steal counts and wall times vary from run to run, so each strategy
  // runs `reps` times, DP and FP alternating which goes first, and the
  // summary reports medians with their min-max.
  std::printf("%-4s %-4s %9s %12s %12s %8s %9s %10s %10s\n", "rep", "",
              "wall(s)", "dataflow MB", "LB MB", "steals", "stolen", "idle",
              "imbal");
  std::vector<double> wall[2], lb[2];
  // The reference executes once (first run); every later run is checked
  // against its digest.
  uint64_t ref_rows = 0, ref_sum = 0;
  bool have_ref = false;
  for (uint32_t rep = 0; rep < args.reps; ++rep) {
    for (int k = 0; k < 2; ++k) {
      const int side = (rep % 2 == 0) ? k : 1 - k;  // 0 = DP, 1 = FP
      const Strategy strat = side == 0 ? Strategy::kDP : Strategy::kFP;
      api::ExecOptions o;
      o.backend = api::Backend::kCluster;
      o.strategy = strat;
      o.nodes = args.nodes;
      o.threads_per_node = args.threads;
      o.buckets = 256;
      o.morsel_rows = 4096;
      o.batch_rows = 512;
      o.queue_capacity = 512;
      o.steal_batch = 32;
      o.placement_theta = args.skew;
      o.seed = 3;
      o.validate = !have_ref;
      auto got = db.Execute(query, o);
      bool correct =
          got.ok() && (have_ref ? got.value().result_rows == ref_rows &&
                                      got.value().result_checksum == ref_sum
                                : got.value().reference_match);
      if (!correct) {
        std::fprintf(stderr, "%s: wrong result or failure\n",
                     StrategyName(strat));
        return 1;
      }
      const api::ExecutionReport& m = got.value();
      if (!have_ref) {
        ref_rows = m.result_rows;
        ref_sum = m.result_checksum;
        have_ref = true;
      }
      std::printf("%-4u %-4s %9.3f %12.2f %12.3f %8lu %9lu %10lu %10.2f\n",
                  rep, StrategyName(strat), m.wall_seconds,
                  m.pipeline_bytes / 1e6, m.lb_bytes / 1e6,
                  static_cast<unsigned long>(m.steals),
                  static_cast<unsigned long>(m.stolen_activations),
                  static_cast<unsigned long>(m.idle_waits), m.imbalance);
      wall[side].push_back(m.wall_seconds);
      lb[side].push_back(static_cast<double>(m.lb_bytes));
    }
  }
  std::vector<double> wall_ratio, lb_ratio;
  for (uint32_t rep = 0; rep < args.reps; ++rep) {
    wall_ratio.push_back(wall[1][rep] / wall[0][rep]);
    if (lb[0][rep] > 0) lb_ratio.push_back(lb[1][rep] / lb[0][rep]);
  }
  std::printf("\nover %u reps, median (min-max):\n", args.reps);
  for (int side = 0; side < 2; ++side) {
    const Spread w = SpreadOf(wall[side]), l = SpreadOf(lb[side]);
    std::printf("%-4s wall %.3f (%.3f-%.3f) s   LB %.3f (%.3f-%.3f) MB\n",
                side == 0 ? "DP" : "FP", w.median, w.min, w.max,
                l.median / 1e6, l.min / 1e6, l.max / 1e6);
  }
  const Spread wr = SpreadOf(wall_ratio);
  std::printf("wall ratio FP/DP: %.2fx (%.2f-%.2f)\n", wr.median, wr.min,
              wr.max);
  if (!lb_ratio.empty()) {
    const Spread lr = SpreadOf(lb_ratio);
    std::printf("LB traffic ratio FP/DP: %.2fx (%.2f-%.2f) over %zu reps "
                "with DP LB traffic\n",
                lr.median, lr.min, lr.max, lb_ratio.size());
  }
  std::printf("paper shape: FP ships 2-4x more load-balancing data (9 MB "
              "vs 2.5 MB on their chain) and leaves processors idle; DP "
              "steals only when a whole node starves.\n");

  // Bushy-plan scenario: (U ⋈ T) ⋈ (S ⋈ R). Chain 0 (S ⋈ R) materializes
  // distributed across the nodes and repartitions to the final chain's
  // third probe by tuple-batch shipping — the multi-chain path that used
  // to funnel through a local reference executor.
  std::printf("\n=== bushy plan: (U⋈T)⋈(S⋈R), distributed intermediates "
              "===\n");
  api::Session db2;
  const uint64_t dim_rows = 2000, mid_rows = 8000;
  api::RelId r = db2.AddTable(mt::MakeTable("R", dim_rows, 2, 100, 41));
  api::RelId s = db2.AddTable(
      mt::MakeTable("S", mid_rows, 2, static_cast<int64_t>(dim_rows), 42));
  api::RelId t = db2.AddTable(mt::MakeTable("T", mid_rows, 2, 100, 43));
  api::RelId u = db2.AddTable(
      mt::MakeTable("U", args.rows, 3, static_cast<int64_t>(mid_rows), 44));
  plan::JoinTree tree;
  int32_t jsr = tree.AddJoin(tree.AddLeaf(s, double(mid_rows)),
                             tree.AddLeaf(r, double(dim_rows)),
                             double(mid_rows));
  int32_t jut = tree.AddJoin(tree.AddLeaf(u, double(args.rows)),
                             tree.AddLeaf(t, double(mid_rows)),
                             double(args.rows));
  tree.AddJoin(jut, jsr, double(args.rows));
  api::Query bushy = db2.NewQuery()
                         .JoinOn(s, 1, r, 0)
                         .JoinOn(u, 1, t, 0)
                         .JoinOn(u, 2, s, 0)
                         .Tree(tree)
                         .Build();
  std::printf("%-4s %9s %12s %12s %12s %12s\n", "", "wall(s)",
              "dataflow MB", "inter rows", "repart rows", "repart MB");
  have_ref = false;
  for (auto strat : {Strategy::kDP, Strategy::kFP}) {
    api::ExecOptions o;
    o.backend = api::Backend::kCluster;
    o.strategy = strat;
    o.nodes = args.nodes;
    o.threads_per_node = args.threads;
    o.buckets = 256;
    o.seed = 3;
    o.validate = !have_ref;
    auto got = db2.Execute(bushy, o);
    bool correct =
        got.ok() && (have_ref ? got.value().result_rows == ref_rows &&
                                    got.value().result_checksum == ref_sum
                              : got.value().reference_match);
    if (!correct) {
      std::fprintf(stderr, "bushy %s: wrong result or failure\n",
                   StrategyName(strat));
      return 1;
    }
    const api::ExecutionReport& m = got.value();
    if (!have_ref) {
      ref_rows = m.result_rows;
      ref_sum = m.result_checksum;
      have_ref = true;
    }
    uint64_t repart_rows = 0, repart_bytes = 0;
    for (const auto& pc : m.cluster->per_chain) {
      repart_rows += pc.repartition_rows;
      repart_bytes += pc.repartition_bytes;
    }
    std::printf("%-4s %9.3f %12.2f %12lu %12lu %12.3f\n",
                StrategyName(strat), m.wall_seconds,
                m.pipeline_bytes / 1e6,
                static_cast<unsigned long>(m.intermediate_rows),
                static_cast<unsigned long>(repart_rows),
                repart_bytes / 1e6);
  }
  std::printf("every chain runs on the cluster: the S⋈R intermediate "
              "stays on its producing nodes and only the repartitioned "
              "share crosses the fabric.\n");
  return 0;
}
