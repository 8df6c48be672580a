// api::Scheduler — the session's async admission core (internal; the
// public surface is QueryHandle/SessionOptions in session.h).
//
// Submit hands the scheduler an already-planned query as a closure plus
// its optimizer plan cost, deadline and tenant. Admission is entirely
// non-blocking: the caller's thread checks the tenant's queue-depth bound
// (ResourceExhausted per tenant — one full tenant never blocks another),
// enqueues, arms the deadline timer and returns. No thread is spawned or
// parked per query: a single event-loop thread (sched::EventLoop) owns
// the timer wheel and reacts to submit/completion events by pumping the
// admission queue (sched::AdmissionQueue — FIFO, shortest-cost-first,
// earliest-deadline-first or cost-aware EDF, with weighted per-tenant
// in-flight quotas); dispatched queries execute on a small fixed set of
// lane threads bounded by max_concurrent_queries. Ten queries or a
// hundred thousand queued, scheduling costs one reactor thread plus the
// lanes actually executing.
//
// Deadlines (ExecOptions::deadline_ms) arm on the wheel at admission.
// Expiring while queued completes the handle right on the loop thread
// with Status::DeadlineExceeded; expiring mid-execution raises the same
// cooperative stop token Cancel uses, and the lane translates the
// executor's Cancelled into DeadlineExceeded (partial progress counters
// ride along in the status message). A deadline that races completion
// delivers the finished result, like a losing Cancel.
//
// Cancellation races are resolved by the per-query state mutex: a queued
// query cancels instantly (the pump sweeps the dead entry); a running
// query gets its stop token raised and completes with Status::Cancelled
// once the executor's workers observe it (checked per activation batch).
// A cancel that races completion may still deliver the finished result —
// cancellation is best-effort by design.

#ifndef HIERDB_API_SCHEDULER_H_
#define HIERDB_API_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/session.h"
#include "common/status.h"
#include "obs/recorder.h"
#include "sched/admission_queue.h"
#include "sched/event_loop.h"

namespace hierdb::api {

namespace internal {

/// Shared state behind one QueryHandle.
struct QueryState {
  std::mutex mu;
  std::condition_variable cv;
  enum class Phase { kQueued, kRunning, kDone } phase = Phase::kQueued;
  bool taken = false;
  bool cancel_requested = false;  ///< a Cancel already won on this query
  std::optional<Result<QueryResult>> result;

  /// Cooperative stop token, threaded into the executors' worker loops;
  /// raised by QueryHandle::Cancel on a running query — and by the
  /// scheduler's timer wheel when the query's deadline fires mid-run.
  std::atomic<bool> stop{false};
  /// Set (before stop) by the deadline timer so the lane can tell a
  /// deadline stop from a user cancel when the executor returns Cancelled.
  std::atomic<bool> deadline_fired{false};

  double plan_cost = 0.0;  ///< optimizer cost (cost-ordered policies' key)
  double deadline_ms = 0.0;
  uint64_t deadline_ns = 0;  ///< absolute, event-loop clock; 0 = none
  uint32_t tenant = 0;       ///< resolved tenant index (0 = default "")
  uint64_t seq = 0;          ///< admission order (FIFO key, tie-break)
  uint64_t dispatch_seq = 0; ///< assigned when the pump dispatches
  /// Retry state: `attempt` is the 0-based index of the current run;
  /// after an Unavailable failure the lane re-queues the query (with
  /// backoff) while attempt + 1 < max_attempts. The deadline, if any,
  /// stays absolute across attempts.
  uint32_t attempt = 0;
  uint32_t max_attempts = 1;
  double backoff_base_ms = 10.0;
  double backoff_max_ms = 1000.0;
  /// The run closure receives the attempt index so the session layer can
  /// switch the final attempt to the fallback backend, and the query's
  /// admission seq so executor-side flight-recorder events carry the same
  /// query tag the scheduler's own instants do.
  std::function<Result<QueryResult>(const std::atomic<bool>& stop,
                                    uint32_t attempt, uint64_t seq)>
      run;
  std::chrono::steady_clock::time_point submitted;
  std::chrono::steady_clock::time_point dispatched;
  /// The owning scheduler's cancellation counter (shared so Cancel can
  /// account eagerly even if it outlives the scheduler).
  std::shared_ptr<std::atomic<uint64_t>> cancel_count;
};

}  // namespace internal

/// Retry policy for one submission (see ExecOptions::max_retries).
struct RetrySpec {
  uint32_t max_retries = 0;  ///< re-dispatches after the first attempt
  /// Grants one extra final attempt intended for a degraded backend; the
  /// run closure sees it as the last attempt index.
  bool fallback = false;
  double backoff_base_ms = 10.0;
  double backoff_max_ms = 1000.0;

  uint32_t max_attempts() const {
    return 1 + max_retries + (fallback ? 1 : 0);
  }
};

class Scheduler {
 public:
  /// `recorder`, when non-null, receives a flight-recorder instant for
  /// every admission event (submit, tenant reject, deadline arm/fire) —
  /// the black box of the admission core. A dispatch (kSchedule) and a
  /// re-dispatch (kRetry) are the attempt's own opening events: the run
  /// closure writes them, inside its trace. Not owned; must outlive the
  /// scheduler (the session declares it first).
  explicit Scheduler(const SessionOptions& options,
                     obs::FlightRecorder* recorder = nullptr);
  /// Drains: refuses new work and waits for every admitted query.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admits `run` (cost `plan_cost`, deadline `deadline_ms` from now — 0
  /// none — billed against `tenant`, "" default) or completes the
  /// returned handle immediately: ResourceExhausted when the tenant's
  /// queue is full, InvalidArgument for an undeclared tenant. Never
  /// blocks and never spawns a per-query thread. `run` receives the
  /// query's stop token (cooperative cancellation and deadlines) and the
  /// 0-based attempt index. Per `retry`, an Unavailable failure releases
  /// the lane and re-queues the query after capped exponential backoff
  /// with deterministic jitter (armed on the same timer wheel as
  /// deadlines); re-admission bypasses the queue-depth bound (the query
  /// was already admitted).
  QueryHandle Submit(
      double plan_cost, double deadline_ms, const std::string& tenant,
      const RetrySpec& retry,
      std::function<Result<QueryResult>(const std::atomic<bool>&, uint32_t,
                                        uint64_t)>
          run);

  /// A handle already carrying `result` — for validation/planning errors
  /// that never reach the queue.
  static QueryHandle Completed(Result<QueryResult> result);

  SchedulerStats stats() const;

 private:
  /// Event-loop reactions. Pump dispatches queued queries into lanes up
  /// to the concurrency limit and per-tenant quotas; OnTimer handles one
  /// expired deadline.
  void Pump();
  void OnTimer(uint64_t id);
  /// A backoff timer fired: re-queue the query for its next attempt
  /// (unless cancel/deadline finished it during the backoff).
  void OnRetryTimer(uint64_t seq);
  /// Marks the pump as pending; returns true when the caller (holding
  /// mu_) should post it after unlocking (coalesces redundant posts).
  bool SchedulePumpLocked();
  void LaneLoop();

  const SessionOptions options_;
  obs::FlightRecorder* const recorder_;  ///< session black box (null ok)

  mutable std::mutex mu_;
  std::condition_variable lane_cv_;   ///< lanes: ready_ non-empty or stop
  std::condition_variable drain_cv_;  ///< destructor: completions
  sched::AdmissionQueue queue_;
  sched::AdmissionQueue::AliveFn alive_;  ///< phase == kQueued
  /// Dispatched queries a lane has not picked up yet (depth bounded by
  /// max_concurrent_queries via in_flight_).
  std::deque<std::shared_ptr<internal::QueryState>> ready_;
  std::vector<std::thread> lanes_;  ///< grown on demand, never beyond limit
  /// Deadline-armed queries by seq; erased at completion or expiry.
  std::unordered_map<uint64_t, std::shared_ptr<internal::QueryState>> armed_;
  /// Queries sitting out a retry backoff, by seq. Their timer ids carry
  /// kRetryTimerBit so deadline and backoff timers for the same query
  /// coexist on the one wheel.
  std::unordered_map<uint64_t, std::shared_ptr<internal::QueryState>>
      retry_armed_;
  static constexpr uint64_t kRetryTimerBit = 1ull << 63;
  uint64_t next_seq_ = 1;
  uint64_t next_dispatch_ = 1;
  uint32_t in_flight_ = 0;
  bool stop_ = false;
  bool pump_posted_ = false;
  /// Online run-time calibration for cost-aware EDF: EWMA of observed
  /// exec-ms per unit plan cost over completed queries.
  double ms_per_cost_ = 1e-3;
  uint64_t cost_samples_ = 0;
  SchedulerStats stats_;  ///< cancelled lives in cancel_count_ instead
  struct TenantCounters {
    uint64_t submitted = 0;
    uint64_t rejected = 0;
    uint64_t deadline_missed = 0;
  };
  std::vector<TenantCounters> tenant_counters_;
  /// Bumped by QueryHandle::Cancel the instant it wins, so stats() never
  /// under-reports cancellations the pump has not yet swept.
  std::shared_ptr<std::atomic<uint64_t>> cancel_count_ =
      std::make_shared<std::atomic<uint64_t>>(0);
  /// Declared last: destroyed first, joining the reactor thread before
  /// the state it pumps goes away. (Lane threads join in ~Scheduler.)
  sched::EventLoop loop_;
};

}  // namespace hierdb::api

#endif  // HIERDB_API_SCHEDULER_H_
