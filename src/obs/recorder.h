// obs::FlightRecorder — the session's always-on black box.
//
// The per-query TraceSink (obs/trace.h) answers "where did time go?" for
// queries you knew to trace in advance. The flight recorder answers it
// after the fact: a bounded, session-wide ring of recent events from the
// admission core (submit, dispatch, deadline arm/fire, retry, tenant
// reject), the worker pool (rent/return/steal/worker death), the cluster
// fabric (send/drop/dup/heartbeat miss) and the executors, kept hot at a
// cost low enough to leave on in production. When an anomaly surfaces —
// a missed deadline, an Unavailable verdict, a retry, a digest mismatch —
// the session snapshots the rings into a forensic bundle
// (SessionOptions::forensics_dir) and the flight that led up to the
// failure is inspectable in chrome://tracing.
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
//   - Disarmed (Options::armed = false, or a null FlightRecorder* at the
//     call site) the entire feature costs one branch.
//
// The recorder reuses the TraceEvent schema, so ring snapshots export
// through the existing Chrome-trace pipeline (obs/export.h) unchanged.

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
    /// False constructs a disarmed recorder: Record returns on the first
    /// branch and Snapshot yields nothing. For A/B overhead measurement.
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

  /// Records one event into the calling thread's ring. Wait-free after
  /// the thread's first call; drops (counted) when the ring pool is
  /// exhausted. Safe from any thread, any time.
  void Record(const TraceEvent& ev) {
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
               int32_t node = 0, int32_t worker = -1) {
    if (!armed_) return;
    TraceEvent ev;
    ev.kind = kind;
    ev.node = node;
    ev.worker = worker;
    ev.start_ns = ev.end_ns = NowNs();
    ev.detail = detail;
    ev.query = query;
    Record(ev);
  }

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

  const bool armed_;
  const std::chrono::steady_clock::time_point t0_;
  /// Distinguishes this recorder from any other (including one that later
  /// reuses this address) in the thread-local ring cache.
  const uint64_t id_;

  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};

  mutable std::mutex claim_mu_;
  std::unordered_map<std::thread::id, Ring*> claimed_;
  uint32_t next_ring_ = 0;
};

}  // namespace hierdb::obs

#endif  // HIERDB_OBS_RECORDER_H_
