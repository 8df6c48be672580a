// Observability: the event schema and per-query traces.
//
// The paper's claims are about *where time goes* — which operator a
// processor works on, when work migrates, where a chain stalls. The
// end-of-query counters (PipelineStats / ClusterStats / RunMetrics) sum
// that story away. This module holds the schema that tells it:
//
//   TraceEvent   one event: an instant (steal, cache hit, pool rent,
//                fault, ...) or a span (a worker's aggregate of one
//                operator). Every event is written once, into the
//                session's flight recorder (obs/recorder.h), tagged with
//                its query's admission seq. Executors keep per-(slot,
//                operator) running aggregates (OpSpanAgg) while their
//                query is traced and write one span per non-empty cell at
//                run end, so the hot path costs two clock reads per
//                activation when tracing and a single null check when not.
//
//   QueryTrace   a traced query's share of that stream: every event with
//                its seq written during the attempt (collected by the
//                recorder as it is written, so it is complete whatever
//                the ring size), plus the compiled operator graph
//                (TraceOp — labels, kinds, inputs, estimated vs actual
//                cardinalities), unified across the three backends (the
//                simulator's per-op end times convert into virtual-time
//                spans with no instrumentation at all).
//
// The obs layer depends only on the standard library — executors include
// it, never the other way around. Exporters (Chrome trace_event JSON,
// DOT) live in obs/export.h.

#ifndef HIERDB_OBS_TRACE_H_
#define HIERDB_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hierdb::obs {

enum class EventKind : uint8_t {
  kSpan,        ///< worker `worker` ran op `op` over [start_ns, end_ns]
  kSteal,       ///< work migrated (cross-node acquisition / foreign help)
  kCacheHit,    ///< build satisfied from the shared build cache
  kCacheMiss,   ///< cacheable build executed locally
  kPoolRent,    ///< workers rented from the session pool
  kPoolReturn,  ///< rental returned
  kFabricSend,  ///< message sent on the cluster fabric (`detail` = bytes)
  kSchedule,    ///< admission: dispatch after `detail` ns queued
  kFault,       ///< injected faults fired during an attempt (`detail`)
  kRetry,       ///< scheduler re-dispatch; `detail` = attempt number
  kFallback,    ///< degraded to the fallback backend after retries
  // Admission-core, worker-death and fabric-fault instants.
  kSubmit,         ///< query admitted; `detail` = query seq
  kDeadlineArm,    ///< deadline timer armed; `detail` = deadline ns
  kDeadlineFire,   ///< deadline expired (queued or mid-run)
  kTenantReject,   ///< admission backpressure; `detail` = tenant index
  kWorkerDeath,    ///< injected pool worker death (slot re-queued)
  kFabricDrop,     ///< injected message drop on the cluster fabric
  kFabricDup,      ///< injected duplicate delivery on the fabric
  kHeartbeatMiss,  ///< liveness watchdog declared a node silent
};

const char* EventKindName(EventKind k);

/// One recorded event. Spans carry the aggregate of every activation a
/// worker ran for one operator (activations, rows in/out, busy time);
/// instants (everything else) have end_ns == start_ns and use `detail`
/// for a kind-specific payload (rows shipped, activations stolen,
/// workers rented).
struct TraceEvent {
  EventKind kind = EventKind::kSpan;
  int32_t node = 0;     ///< cluster node (0 on single-node backends)
  int32_t worker = -1;  ///< worker slot within the node; -1 = none
  int32_t op = -1;      ///< compiled operator id; -1 = not op-scoped
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t activations = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t detail = 0;  ///< spans: busy ns; instants: kind-specific count
  uint64_t query = 0;   ///< scheduler query seq (0 = not query-scoped)
};

/// Per-(slot, op) running aggregate an executor keeps while tracing.
/// Plain fields: each cell is written by its slot's owner only.
struct OpSpanAgg {
  uint64_t first_ns = 0;
  uint64_t last_ns = 0;
  uint64_t busy_ns = 0;
  uint64_t activations = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;

  bool empty() const { return activations == 0; }
  /// One activation over [t0, t1], `busy` ns of it its own (less than
  /// t1 - t0 when other activations ran nested inside it).
  void Add(uint64_t t0, uint64_t t1, uint64_t busy, uint64_t rin,
           uint64_t rout) {
    if (activations == 0) first_ns = t0;
    last_ns = t1;
    busy_ns += busy;
    ++activations;
    rows_in += rin;
    rows_out += rout;
  }
};

/// One compiled operator in the trace's plan graph.
struct TraceOp {
  uint32_t id = 0;
  std::string label;       ///< e.g. "c0.probe1(dim)"
  std::string kind;        ///< "scan" | "build" | "buildscan" | "probe"
  int32_t chain = -1;      ///< pipeline chain, -1 when not chain-scoped
  std::vector<uint32_t> inputs;  ///< op ids feeding this op
  double est_rows = 0.0;   ///< optimizer estimate (0 = none)
  uint64_t actual_rows = 0;///< measured output rows (0 = not measured)
};

/// Per-chain estimated vs actual output cardinality.
struct ChainCard {
  uint32_t chain = 0;
  double est_rows = 0.0;
  uint64_t actual_rows = 0;
  bool has_actual = false;  ///< false: backend could not measure (sim)
};

/// The backend-neutral trace of one query execution (timestamps are ns
/// since the traced attempt began).
struct QueryTrace {
  std::string backend;   ///< "sim" | "threads" | "cluster"
  std::string strategy;  ///< "DP" | "FP" | "SP"
  double response_ms = 0.0;
  uint32_t nodes = 1;
  uint32_t workers_per_node = 0;
  bool virtual_time = false;  ///< simulator: timestamps are virtual ns

  std::vector<TraceOp> ops;
  std::vector<ChainCard> chains;
  std::vector<TraceEvent> events;

  /// Sum of span busy time (ns) across all workers, and the max span end
  /// — the sanity checks tests and the smoke example use.
  uint64_t TotalBusyNs() const;
  uint64_t MaxEndNs() const;
};

}  // namespace hierdb::obs

#endif  // HIERDB_OBS_TRACE_H_
