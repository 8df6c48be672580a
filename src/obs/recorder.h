// obs::FlightRecorder — the session's one event pipeline.
//
// Every event the admission core (submit, deadline arm/fire, tenant
// reject), the query attempt (schedule, retry, fault, fallback), the
// worker pool (rent/return/worker death), the cluster fabric
// (send/drop/dup/heartbeat miss) and the executors (steals, build-cache
// hits and misses, trace spans) produce is written once, here, tagged
// with its query's admission seq. The recorder serves two readers:
//
//   - The always-on black box: a bounded, session-wide ring of recent
//     events, kept hot at a cost low enough to leave on in production.
//     When an anomaly surfaces — a missed deadline, an Unavailable
//     verdict, a retry, a digest mismatch — the session snapshots the
//     rings into a forensic bundle (SessionOptions::forensics_dir) and
//     the flight that led up to the failure is inspectable in
//     chrome://tracing.
//   - Per-query traces: between BeginTrace(seq) and EndTrace(seq) every
//     event with that seq is also appended to the trace's buffer as it is
//     written, so a QueryTrace is the query's share of the stream. It is
//     collected at write time, not read back from the rings, so it is
//     complete whatever the ring size, ring-pool exhaustion or a
//     disarmed black box.
//
// Design:
//   - A fixed pool of single-writer ring buffers. The first time a thread
//     records, it claims a ring (mutex slow path, once per thread); after
//     that every Record is wait-free: a handful of relaxed stores plus one
//     release publish, overwriting the oldest slot when full. Threads
//     beyond the pool drop events (counted) rather than block.
//   - Slots are seqlock-published: the writer invalidates the slot's
//     sequence word, stores the payload into relaxed atomics, then
//     publishes generation-tagged sequence + head with release order.
//     Snapshot (any thread, any time) copies slots and discards any whose
//     sequence changed — torn reads are impossible by construction, and
//     every access is an atomic, so the scheme is clean under TSan.
//   - Trace collection costs an untraced event one relaxed load and a
//     mask test (a bit per seq mod 64 of the open traces); an event of a
//     traced seq takes one mutex append before its ring write.
//   - Disarmed (Options::armed = false) the rings cost one branch; traces
//     still collect.
//
// Ring snapshots and traces share the TraceEvent schema, so both export
// through the Chrome-trace pipeline (obs/export.h).

#ifndef HIERDB_OBS_RECORDER_H_
#define HIERDB_OBS_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"

namespace hierdb::obs {

class FlightRecorder {
 public:
  struct Options {
    /// Ring pool size: distinct recording threads the session expects
    /// (pool workers + lanes + reactor + callers). Extra threads drop.
    uint32_t rings = 48;
    /// Events retained per ring (rounded up to a power of two). Oldest
    /// events are overwritten — the recorder keeps the recent past only.
    uint32_t events_per_ring = 1024;
    /// False constructs a disarmed recorder: no rings, Snapshot yields
    /// nothing, and only traced events are kept (for their trace).
    bool armed = true;
  };

  explicit FlightRecorder(const Options& options);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool armed() const { return armed_; }

  /// Nanoseconds since recorder construction — the time base every ring
  /// event uses (one clock for the whole session's flight).
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

  /// Records one event: into the open trace of its query, if any, then
  /// into the calling thread's ring. The ring write is wait-free after
  /// the thread's first call and drops (counted) when the ring pool is
  /// exhausted. Safe from any thread, any time.
  void Record(const TraceEvent& ev) {
    if (MayTrace(ev.query)) Collect(ev);
    if (!armed_) return;
    Ring* r = RingForThisThread();
    if (r == nullptr) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Write(*r, ev);
  }

  /// Convenience: an instant of `kind` stamped now.
  void Instant(EventKind kind, uint64_t query, uint64_t detail,
               int32_t node = 0, int32_t worker = -1, int32_t op = -1) {
    if (!armed_ && !MayTrace(query)) return;
    TraceEvent ev;
    ev.kind = kind;
    ev.node = node;
    ev.worker = worker;
    ev.op = op;
    ev.start_ns = ev.end_ns = NowNs();
    ev.detail = detail;
    ev.query = query;
    Record(ev);
  }

  /// Starts collecting query `query`'s events (query > 0, not already
  /// traced). Call before the first event of the traced attempt.
  void BeginTrace(uint64_t query);
  /// Whether `query`'s events are being collected.
  bool Tracing(uint64_t query) const;
  /// Stops collecting `query` and returns its events in start order, with
  /// timestamps in ns since its BeginTrace. Call after every thread that
  /// records for the query has quiesced.
  std::vector<TraceEvent> EndTrace(uint64_t query);

  /// Copies out every currently readable event, sorted by start time.
  /// Runs concurrently with writers: slots being overwritten mid-copy are
  /// skipped, everything else is consistent. This is the forensic-dump
  /// primitive — cheap enough to call on every anomaly.
  std::vector<TraceEvent> Snapshot() const;

  struct Stats {
    uint64_t recorded = 0;      ///< events written (lifetime)
    uint64_t dropped = 0;       ///< events lost to ring-pool exhaustion
    uint32_t rings_claimed = 0; ///< threads that claimed a ring
    uint32_t rings = 0;         ///< pool size
    uint32_t events_per_ring = 0;
  };
  Stats stats() const;

 private:
  // One seqlock slot: `seq` publishes a generation (head value + 2 of the
  // write that filled it; 0 = never written), the payload words are
  // individually-relaxed atomics. kWords covers every TraceEvent field.
  static constexpr uint32_t kWords = 11;
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> w[kWords];
  };
  struct Ring {
    explicit Ring(uint32_t capacity);
    const uint32_t mask;
    std::atomic<uint64_t> head{0};  ///< next write position
    std::vector<Slot> slots;
  };

  Ring* RingForThisThread();
  void Write(Ring& r, const TraceEvent& ev);

  static uint64_t TraceBit(uint64_t query) {
    return uint64_t{1} << (query & 63);
  }
  /// False proves `query` untraced; true may be a mask collision.
  bool MayTrace(uint64_t query) const {
    return (trace_mask_.load(std::memory_order_relaxed) & TraceBit(query)) !=
           0;
  }
  /// Appends `ev` to its query's open trace, if there is one.
  void Collect(const TraceEvent& ev);

  /// An open trace: the query, its start on NowNs's clock, its events.
  struct Collection {
    uint64_t query = 0;
    uint64_t t0 = 0;
    std::vector<TraceEvent> events;
  };

  const bool armed_;
  const std::chrono::steady_clock::time_point t0_;
  /// Distinguishes this recorder from any other (including one that later
  /// reuses this address) in the thread-local ring cache.
  const uint64_t id_;

  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};

  mutable std::mutex trace_mu_;
  std::vector<Collection> traces_;  ///< open traces (under trace_mu_)
  /// OR of TraceBit over traces_ (written under trace_mu_).
  std::atomic<uint64_t> trace_mask_{0};

  mutable std::mutex claim_mu_;
  std::unordered_map<std::thread::id, Ring*> claimed_;
  uint32_t next_ring_ = 0;
};

}  // namespace hierdb::obs

#endif  // HIERDB_OBS_RECORDER_H_
