// Component microbenchmarks (google-benchmark): simulation kernel event
// throughput, Zipf generation, emission ledgers, activation queues, the
// bushy optimizer, a small end-to-end engine run, the real backends'
// batched probe kernel with each of its consumers, the phase-1 GROUP BY
// kernel, and the fabric's row batch codec.

#include <benchmark/benchmark.h>

#include <chrono>

#include "common/rng.h"
#include "common/zipf.h"
#include "exec/engine.h"
#include "exec/ledger.h"
#include "exec/queue.h"
#include "mt/agg.h"
#include "mt/column_batch.h"
#include "mt/row.h"
#include "mt/row_table.h"
#include "net/message.h"
#include "opt/bushy_optimizer.h"
#include "opt/query_gen.h"
#include "opt/workload.h"
#include "sim/simulator.h"

namespace {

using namespace hierdb;

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    uint64_t counter = 0;
    for (int i = 0; i < 1024; ++i) {
      s.ScheduleAfter(i, [&counter]() { ++counter; });
    }
    s.Run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_ZipfApportion(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    auto v = ZipfApportion(1'000'000, static_cast<uint32_t>(state.range(0)),
                           0.8, &rng);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_ZipfApportion)->Arg(64)->Arg(512)->Arg(4096);

void BM_ZipfSampler(benchmark::State& state) {
  Rng rng(1);
  ZipfSampler sampler(100000, 0.9);
  uint64_t acc = 0;
  for (auto _ : state) {
    acc += sampler.Sample(&rng);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ZipfSampler);

void BM_EmissionLedger(benchmark::State& state) {
  const uint32_t buckets = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<uint64_t> shares = ZipfApportion(1'000'000, buckets, 0.5);
    exec::EmissionLedger ledger(1'000'000, std::move(shares));
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      auto out = ledger.Emit(1000);
      benchmark::DoNotOptimize(out.data());
    }
  }
}
BENCHMARK(BM_EmissionLedger)->Arg(64)->Arg(512);

void BM_ActivationQueue(benchmark::State& state) {
  exec::ActivationQueue q(0, 0, 0, UINT32_MAX);
  exec::Activation a;
  a.tuples = 128;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.Push(a);
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(q.Pop());
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_ActivationQueue);

void BM_BushyOptimizer(benchmark::State& state) {
  opt::QueryGenOptions qo;
  qo.num_relations = static_cast<uint32_t>(state.range(0));
  opt::QueryGenerator gen(qo, 7);
  auto q = gen.Generate();
  opt::BushyOptimizer optz;
  for (auto _ : state) {
    auto trees = optz.TopK(q.graph, q.catalog, 2);
    benchmark::DoNotOptimize(trees.data());
  }
}
BENCHMARK(BM_BushyOptimizer)->Arg(8)->Arg(12);

void BM_EngineSmallPlan(benchmark::State& state) {
  opt::WorkloadOptions wo;
  wo.num_queries = 1;
  wo.trees_per_query = 1;
  wo.query.num_relations = 6;
  wo.query.scale = 0.02;
  auto plans = opt::MakeWorkload(wo);
  sim::SystemConfig cfg;
  cfg.num_nodes = 2;
  cfg.procs_per_node = 4;
  for (auto _ : state) {
    exec::Engine eng(cfg, exec::Strategy::kDP);
    exec::RunOptions opts;
    opts.seed = 3;
    auto r = eng.Run(plans[0].plan, plans[0].catalog, opts);
    if (!r.status.ok()) state.SkipWithError(r.status.ToString().c_str());
    benchmark::DoNotOptimize(r.metrics.response_time);
  }
}
BENCHMARK(BM_EngineSmallPlan);

// The batched probe as the executors run it: a 200k-row fact with a
// Zipf(0.8) foreign key, in 1024-row probe batches, against a bucketed
// build, through the lookup the engine would choose (mt::ProbeBatch with
// the one-node DenseIndex the build proves, or the chained tables when it
// proves none). Build shapes (range(1)): 0 = 1k unique keys at B = 64 and
// 1 = 8k unique keys at B = 128 take the index; 2 = 1k rows over 250 keys
// (four matches per key) at B = 64 keeps the chained tables. Consumers
// (range(0)): 0 = probe only, 1 = non-final (joined batch_rows batches
// handed on), 2 = final digest and 3 = final GROUP BY over joined
// batch_rows batches, 4 = final digest and 5 = final GROUP BY fused (read
// from the match list, as the engine's terminal probe runs them). Reports
// ns per probe row; `direct` is 1 when the index served the batches.
struct ProbeFixture {
  std::vector<mt::RowTable> tables;
  uint32_t buckets = 0;
  mt::DenseIndex dense;
  std::vector<mt::Batch> batches;
};

ProbeFixture MakeProbeFixture(int64_t shape) {
  constexpr size_t kFactRows = 200'000;
  constexpr size_t kBatchRows = 1024;
  const size_t build_rows = shape == 1 ? 8192 : 1024;
  const int64_t keys = shape == 2 ? 256 : static_cast<int64_t>(build_rows);
  ProbeFixture f;
  f.buckets = shape == 1 ? 128 : 64;
  f.tables.assign(f.buckets, mt::RowTable(2, 0));
  for (size_t r = 0; r < build_rows; ++r) {
    const int64_t row[2] = {static_cast<int64_t>(r) % keys,
                            static_cast<int64_t>(r)};
    f.tables[mt::HashKey(row[0]) % f.buckets].Insert(row);
  }
  f.dense.Build(f.tables.data(), f.buckets, 0, 1);
  mt::Table fact = mt::MakeSkewedTable("fact", kFactRows, 3, keys, 1, 0.8, 5);
  for (size_t at = 0; at < kFactRows; at += kBatchRows) {
    mt::Batch b(3);
    b.AppendRows(fact.batch.row(at), std::min(kBatchRows, kFactRows - at));
    f.batches.push_back(std::move(b));
  }
  return f;
}

void BM_ProbeKernel(benchmark::State& state) {
  const int64_t consumer = state.range(0);
  const ProbeFixture f = MakeProbeFixture(state.range(1));
  constexpr uint32_t kProbeCol = 1, kBuildWidth = 2, kOutWidth = 5;
  constexpr size_t kBatchRows = 1024;
  mt::AggSpec spec;
  spec.group_cols = {4};
  spec.aggs = {{mt::AggFn::kCount, 0}, {mt::AggFn::kSum, 2}};
  mt::AggTable agg(&spec);
  mt::AggTable::Scratch agg_scratch;
  std::vector<int64_t> keys;
  mt::ProbeScratch scratch;
  mt::Matches matches;
  mt::Batch joined;
  size_t rows = 0;
  bool direct = false;
  for (auto _ : state) {
    mt::ResultDigest digest;
    uint64_t out_rows = 0;
    for (const mt::Batch& b : f.batches) {
      const size_t n = b.rows();
      keys.resize(n);
      mt::GatherStrided(b.data().data() + kProbeCol, b.width(), nullptr, n,
                        keys.data());
      direct = mt::ProbeBatch(&f.dense, f.tables.data(), f.buckets,
                              keys.data(), n, &scratch, &matches);
      rows += n;
      if (consumer == 0 || consumer >= 4) {
        out_rows += matches.size();
        const mt::JoinedRows joined_view =
            mt::JoinedMatches(b, matches, kBuildWidth);
        if (consumer == 4) digest.AddJoined(joined_view);
        if (consumer == 5) agg.AccumulateJoined(joined_view, &agg_scratch);
        continue;
      }
      mt::ForEachJoinedChunk(
          b, matches, 0, matches.size(), kBuildWidth, kBatchRows, &joined,
          [&](mt::Batch& chunk) {
            out_rows += chunk.rows();
            if (consumer == 1) {
              mt::Batch handed_on = std::move(chunk);
              benchmark::DoNotOptimize(handed_on.data().data());
            } else if (consumer == 2) {
              digest.AddRows(chunk.data().data(), chunk.rows(), kOutWidth);
            } else {
              agg.AccumulateJoined(mt::JoinedRows::Of(chunk), &agg_scratch);
            }
          });
    }
    benchmark::DoNotOptimize(out_rows);
    benchmark::DoNotOptimize(digest);
    benchmark::ClobberMemory();
  }
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(rows),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["direct"] = direct ? 1 : 0;
}
BENCHMARK(BM_ProbeKernel)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

// The build's check and index for BM_ProbeKernel's unique shapes (range(0)
// = 0: 1k keys at B = 64, 1: 8k keys at B = 128), over one node's home
// buckets (range(1) nodes, node 0): what a completed build pays before
// its probe unblocks. Reports ns per build row of the whole build.
void BM_DenseIndexBuild(benchmark::State& state) {
  const ProbeFixture f = MakeProbeFixture(state.range(0));
  const auto nodes = static_cast<uint32_t>(state.range(1));
  size_t rows = 0;
  for (const mt::RowTable& t : f.tables) rows += t.rows();
  size_t built = 0;
  for (auto _ : state) {
    mt::DenseIndex dense;
    built += dense.Build(f.tables.data(), f.buckets, 0, nodes);
    benchmark::DoNotOptimize(dense);
  }
  if (built != state.iterations()) state.SkipWithError("no index built");
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(rows * state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DenseIndexBuild)->ArgsProduct({{0, 1}, {1, 2, 4}});

// Phase-1 GROUP BY alone: 200k rows (id, key, value) in 1,024-row batches,
// the key over range(0) groups, uniform (range(1) = 0) or Zipf(0.8)
// (range(1) = 8), aggregated by COUNT + SUM(value) (range(2) = 0) or
// MIN + AVG(value) (range(2) = 1) through the join-less identity form of
// AccumulateJoined. Reports ns per row; `floor_ns` is a direct-indexed
// COUNT + SUM over the same keys, the cost of the accumulator updates
// alone.
void BM_GroupByKernel(benchmark::State& state) {
  constexpr size_t kRows = 200'000, kBatchRows = 1024;
  const int64_t groups = state.range(0);
  const double theta = static_cast<double>(state.range(1)) / 10.0;
  const mt::Table t =
      mt::MakeSkewedTable("fact", kRows, 3, groups, 1, theta, 21);
  std::vector<mt::Batch> batches;
  for (size_t at = 0; at < kRows; at += kBatchRows) {
    mt::Batch b(3);
    b.AppendRows(t.batch.row(at), std::min(kBatchRows, kRows - at));
    batches.push_back(std::move(b));
  }
  mt::AggSpec spec;
  spec.group_cols = {1};
  if (state.range(2) == 0) {
    spec.aggs = {{mt::AggFn::kCount, 0}, {mt::AggFn::kSum, 2}};
  } else {
    spec.aggs = {{mt::AggFn::kMin, 2}, {mt::AggFn::kAvg, 2}};
  }
  mt::AggTable::Scratch scratch;
  size_t rows = 0;
  for (auto _ : state) {
    mt::AggTable agg(&spec);
    for (const mt::Batch& b : batches) {
      agg.AccumulateJoined(mt::JoinedRows::Of(b), &scratch);
    }
    benchmark::DoNotOptimize(agg.groups());
    benchmark::ClobberMemory();
    rows += kRows;
  }
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(rows),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);

  // The floor: the same updates into arrays indexed by the key itself.
  std::vector<int64_t> count(static_cast<size_t>(groups));
  std::vector<int64_t> sum(static_cast<size_t>(groups));
  constexpr int kFloorReps = 20;
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kFloorReps; ++rep) {
    for (const mt::Batch& b : batches) {
      const int64_t* r = b.data().data();
      for (size_t i = 0; i < b.rows(); ++i, r += 3) {
        ++count[static_cast<size_t>(r[1])];
        sum[static_cast<size_t>(r[1])] += r[2];
      }
    }
    benchmark::DoNotOptimize(count.data());
    benchmark::DoNotOptimize(sum.data());
    benchmark::ClobberMemory();
  }
  const double floor_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - t0)
          .count() /
      (static_cast<double>(kRows) * kFloorReps);
  state.counters["floor_ns"] = floor_ns;
}
BENCHMARK(BM_GroupByKernel)
    ->ArgsProduct({{1, 100, 10'000}, {0, 8}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

mt::Batch RandomBatch(uint32_t width, size_t rows, uint64_t seed) {
  Rng rng(seed);
  mt::Batch b(width);
  b.data().resize(rows * width);
  for (int64_t& v : b.data()) v = static_cast<int64_t>(rng.Next());
  return b;
}

// The fabric's row-batch codec as the cluster executor runs it: encode +
// decode of one 1,024-row batch (a shipped kTupleBatch) at width
// range(0). Reports ns per row.
void BM_BatchCodec(benchmark::State& state) {
  constexpr size_t kRows = 1024;
  const mt::Batch batch =
      RandomBatch(static_cast<uint32_t>(state.range(0)), kRows, 11);
  size_t rows = 0;
  for (auto _ : state) {
    std::vector<uint8_t> wire = net::EncodeBatch(batch);
    auto decoded = net::DecodeBatch(wire);
    if (!decoded.ok()) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(wire.data());
    benchmark::DoNotOptimize(decoded.value().data().data());
    benchmark::ClobberMemory();
    rows += kRows;
  }
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(rows),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_BatchCodec)->Arg(3)->Arg(6)->Arg(10);

// A global-LB steal reply: EncodeRowWork of four 256-row activations at
// width 6 plus one 256-row width-2 build fragment, then the thief's
// DecodeRowWork. Reports ns per shipped row.
void BM_RowWorkCodec(benchmark::State& state) {
  net::RowWorkBundle work;
  work.op = 4;
  work.fragments.push_back({1, RandomBatch(2, 256, 12)});
  for (uint32_t a = 0; a < 4; ++a) {
    work.activations.push_back({a, RandomBatch(6, 256, 13 + a)});
  }
  const size_t bundle_rows = work.fragment_rows() + 4 * 256;
  size_t rows = 0;
  for (auto _ : state) {
    std::vector<uint8_t> wire = net::EncodeRowWork(work);
    auto decoded = net::DecodeRowWork(wire);
    if (!decoded.ok()) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(wire.data());
    benchmark::DoNotOptimize(decoded.value().activations.data());
    benchmark::ClobberMemory();
    rows += bundle_rows;
  }
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(rows),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RowWorkCodec);

}  // namespace

BENCHMARK_MAIN();
