// Ablation: the Section 4 stolen-queue optimization — a requester keeps
// the hash-table fragments it already copied and lists them in kAcquire so
// providers skip re-shipping. Measured on the real cluster executor under
// heavy placement skew (node 0 holds everything, so the other nodes
// starve repeatedly and re-steal the same buckets).
//
// Flags: --nodes=N --threads=T --rows=R

#include <chrono>
#include <cstdio>

#include "cluster/cluster_executor.h"

using namespace hierdb;
using namespace hierdb::cluster;

int main(int argc, char** argv) {
  uint32_t nodes = 4, threads = 2;
  uint64_t rows = 150000;
  for (int i = 1; i < argc; ++i) {
    if (sscanf(argv[i], "--nodes=%u", &nodes) == 1) continue;
    if (sscanf(argv[i], "--threads=%u", &threads) == 1) continue;
    if (sscanf(argv[i], "--rows=%lu", &rows) == 1) continue;
  }
  std::printf("=== ablation: stolen-fragment cache (Section 4 "
              "optimization) ===\n");
  std::printf("config: %u nodes x %u threads, all fact rows at node 0\n\n",
              nodes, threads);

  mt::Table fact = mt::MakeTable("fact", rows, 2, 2000, 7);
  mt::Table dim = mt::MakeTable("dim", 2000, 2, 100, 8);
  PartitionedTable fact_parts;
  fact_parts.width = fact.width();
  fact_parts.parts.assign(nodes, mt::Batch(fact.width()));
  for (size_t i = 0; i < fact.rows(); ++i) {
    fact_parts.parts[0].AppendRow(fact.batch.row(i));
  }
  PartitionedTable dim_parts = PartitionByHash(dim, nodes, 0);
  PlanQuery q;
  q.tables = {&fact_parts, &dim_parts};
  q.plan = mt::MakeRightDeepPlan(0, {1}, {1});  // fact.fk1 = dim.key
  auto ref = ReferenceExecute(q).ValueOrDie();

  std::printf("%-10s %9s %12s %10s %12s %12s\n", "cache", "wall(s)",
              "LB MB", "steals", "frag rows", "cache hits");
  for (bool cache : {true, false}) {
    ClusterOptions o;
    o.nodes = nodes;
    o.threads = threads;
    o.buckets = 256;
    o.morsel_rows = 2048;
    o.batch_rows = 256;
    o.queue_capacity = 128;
    o.steal_batch = 32;
    o.cache_stolen_fragments = cache;
    ClusterExecutor exec(o);
    ClusterStats stats;
    auto t0 = std::chrono::steady_clock::now();
    auto got = exec.Execute(q, &stats);
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!got.ok() || !(got.value() == ref)) {
      std::fprintf(stderr, "run failed (cache=%d)\n", cache);
      return 1;
    }
    std::printf("%-10s %9.3f %12.3f %10lu %12lu %12lu\n",
                cache ? "on" : "off", wall, stats.lb_bytes / 1e6,
                static_cast<unsigned long>(stats.steals),
                static_cast<unsigned long>(stats.shipped_fragment_rows),
                static_cast<unsigned long>(stats.fragment_cache_hits));
  }
  std::printf("\nexpected: with the cache on, repeated steals of the same "
              "buckets ship fewer fragment rows (cache hits > 0), cutting "
              "load-balancing bytes.\n");
  return 0;
}
