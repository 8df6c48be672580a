// api::WorkerPool — the session-wide worker pool every real-backend query
// rents its workers from.
//
// One pool, sized to the machine (SessionOptions::pool_threads, default
// hardware_concurrency), serves every concurrent query of a session. When
// its size equals the number of CPUs the process may run on, each pool
// thread is pinned to its own CPU.
// Executions *rent* workers instead of spawning threads:
//
//   - Rent() returns a per-query ExecContext. Its SpawnWorkers(n, body)
//     registers a "team" of n worker slots; pool threads claim and run
//     slots FIFO across teams, and the renting caller (the scheduler's
//     dispatcher thread) claims its own team's slots too — so every query
//     always owns at least one thread and progress never depends on pool
//     capacity. Every team is cooperative (any one body completes the
//     work, common/exec_context.h), the cluster's included: its node
//     workers and schedulers are roles its bodies take in turn, not
//     threads. Total OS threads stay pool size + dispatchers no matter
//     how many queries overlap, on every backend.
//
//   - Cross-query load balancing: an execution publishes a steal hook
//     ("run one of my activations"); idle pool threads and parked workers
//     of *other* executions invoke it. This extends the paper's
//     intra-query load-balancing hierarchy (local queues, then global
//     steals) with a third, cross-query level: a lone query can soak up
//     the whole pool even when it rented few workers, and a finished
//     query's threads immediately drain its neighbors' queues.
//
// Teardown contract: the pool outlives every context it rented (the
// Session destroys its scheduler — draining all queries — before the
// pool). ClearStealHook / context destruction block until in-flight hook
// calls drain, so an executor may free its run state right after.

#ifndef HIERDB_API_WORKER_POOL_H_
#define HIERDB_API_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/exec_context.h"
#include "fault/fault.h"
#include "obs/recorder.h"

namespace hierdb::api {

/// Lifetime counters of a session's worker pool.
struct PoolStats {
  uint32_t pool_threads = 0;   ///< fixed pool size
  uint64_t pool_tasks = 0;     ///< worker bodies run by pool threads
  uint64_t caller_tasks = 0;   ///< worker bodies run by renting callers
  uint64_t foreign_steals = 0; ///< cross-query activations stolen
  /// Worker bodies skipped by injected worker death (chaos testing).
  uint64_t worker_deaths = 0;
};

class WorkerPool {
 public:
  /// `threads` == 0 is normalized to 1. `recorder`, when non-null, gets a
  /// flight-recorder instant per rent/return/foreign-steal/worker-death
  /// (obs/recorder.h; not owned, must outlive the pool).
  explicit WorkerPool(uint32_t threads,
                      obs::FlightRecorder* recorder = nullptr);
  ~WorkerPool();  // joins; requires all rented contexts destroyed

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  uint32_t threads() const { return static_cast<uint32_t>(threads_.size()); }
  PoolStats stats() const;

  /// A per-execution context renting this pool's workers. `stop` is the
  /// execution's cancellation token (may be null). `injector`, when
  /// armed, may kill a pool thread as it picks up one of this context's
  /// worker slots: the thread drops the slot without running the body and
  /// the slot is re-queued for another (possibly the same) claimer —
  /// death with recovery. Every body still runs exactly once, so teams
  /// whose slots each own essential work (per-partition merges) stay
  /// correct; renting callers are never killed.
  std::unique_ptr<ExecContext> Rent(const std::atomic<bool>* stop,
                                    fault::FaultInjector* injector = nullptr);

 private:
  class Context;

  /// One SpawnWorkers call: n slots, claimed by pool threads and the
  /// renting caller; `unfinished` counts bodies not yet returned.
  struct Team {
    const std::function<void(uint32_t)>* body = nullptr;
    uint32_t total = 0;
    uint32_t next = 0;  ///< next unclaimed slot
    uint32_t unfinished = 0;
    /// Fault injection for this team's execution (null = none).
    fault::FaultInjector* injector = nullptr;
    /// Slots dropped by a "dying" pool thread, waiting to be re-claimed.
    std::vector<uint32_t> requeued;
    bool has_slot() const { return next < total || !requeued.empty(); }
  };

  void ThreadLoop();
  /// Runs one foreign activation via some renter's steal hook (skipping
  /// `skip`, the caller's own context). Returns true iff work ran.
  bool StealForeign(const Context* skip);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< pool threads: slots or stop
  std::condition_variable team_cv_;  ///< renters: team completion
  std::condition_variable hook_cv_;  ///< hook-drain waiters
  std::vector<std::shared_ptr<Team>> teams_;
  std::vector<Context*> renters_;
  uint32_t hooked_renters_ = 0;  ///< renters with a registered steal hook
  size_t steal_rr_ = 0;  ///< round-robin cursor over renters
  bool stop_ = false;
  obs::FlightRecorder* recorder_ = nullptr;  ///< session black box (null ok)

  uint64_t pool_tasks_ = 0;
  uint64_t caller_tasks_ = 0;
  uint64_t foreign_steals_ = 0;
  uint64_t worker_deaths_ = 0;

  std::vector<std::thread> threads_;  ///< declared last: joined first
};

}  // namespace hierdb::api

#endif  // HIERDB_API_WORKER_POOL_H_
