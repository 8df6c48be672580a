// Observability: per-operator execution tracing.
//
// The paper's claims are about *where time goes* — which operator a
// processor works on, when work migrates, where a chain stalls. The
// end-of-query counters (PipelineStats / ClusterStats / RunMetrics) sum
// that story away. This module records it:
//
//   TraceSink    a per-query recorder the executors write into. Each
//                worker slot owns a private event buffer (appends are
//                lock-free because a slot has exactly one owner at a
//                time); rare events from non-worker threads (pool
//                rent/return, scheduler-side steals) go through a small
//                mutex-protected shared buffer. Executors keep per-
//                (slot, operator) running aggregates (OpSpanAgg) while
//                tracing is on and emit one span event per non-empty cell
//                at run end, so the hot path costs two clock reads per
//                activation when tracing is enabled and a single null
//                check when it is not.
//
//   QueryTrace   the drained, backend-neutral result: the compiled
//                operator graph (TraceOp — labels, kinds, inputs,
//                estimated vs actual cardinalities) plus the recorded
//                events, unified across the three backends (the
//                simulator's per-op end times convert into virtual-time
//                spans with no instrumentation at all).
//
// The obs layer depends only on the standard library — executors include
// it, never the other way around. Exporters (Chrome trace_event JSON,
// DOT) live in obs/export.h.

#ifndef HIERDB_OBS_TRACE_H_
#define HIERDB_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
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
  kFabricSend,  ///< tuple batch pushed onto the cluster fabric
  kSchedule,    ///< admission: dispatch after `detail` ns queued
  kFault,       ///< injected faults fired during an attempt (`detail`)
  kRetry,       ///< scheduler re-dispatch; `detail` = attempt number
  kFallback,    ///< degraded to the fallback backend after retries
  // Flight-recorder instants (obs/recorder.h): the always-on black box
  // records the admission core, pool, fabric and executors with these in
  // addition to the kinds above.
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

/// The per-query recorder. Created by the session when ExecOptions::trace
/// is set, handed to the executor as a raw pointer (null = tracing off),
/// drained after the run — including cancelled and failed runs, so a
/// trace of a query that died is still inspectable.
class TraceSink {
 public:
  TraceSink() : t0_(std::chrono::steady_clock::now()) {}

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Nanoseconds since sink creation (monotonic).
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

  /// Sizes the per-slot buffers. Called once by the executor before any
  /// worker starts (single-threaded setup); growing never invalidates
  /// previously recorded slots.
  void EnsureSlots(uint32_t slots) {
    if (per_slot_.size() < slots) per_slot_.resize(slots);
  }
  uint32_t slots() const { return static_cast<uint32_t>(per_slot_.size()); }

  /// Lock-free append from the slot's owning thread.
  void Record(uint32_t slot, const TraceEvent& ev) {
    per_slot_[slot].push_back(ev);
  }

  /// Append from a thread that owns no slot (session, pool bookkeeping).
  void RecordShared(const TraceEvent& ev) {
    std::lock_guard<std::mutex> lock(shared_mu_);
    shared_.push_back(ev);
  }

  /// Moves every recorded event out, sorted by start time. Call after all
  /// recording threads have quiesced (the executor has returned).
  std::vector<TraceEvent> Drain();

 private:
  std::chrono::steady_clock::time_point t0_;
  std::vector<std::vector<TraceEvent>> per_slot_;
  std::mutex shared_mu_;
  std::vector<TraceEvent> shared_;
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

/// The drained, backend-neutral trace of one query execution.
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
