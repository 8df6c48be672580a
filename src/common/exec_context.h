// ExecContext — where an executor's worker threads come from.
//
// The real-thread backends (mt::PipelineExecutor, cluster::ClusterExecutor)
// historically spawned their own std::threads per query, so a session
// running max_concurrent_queries x threads_per_node queries oversubscribed
// the host and the paper's dynamic load balancing stopped at the
// single-query boundary. The ExecContext interface decouples "how many
// workers does this execution want" from "which OS threads run them":
//
//   SpawnWorkers(n, body)   runs body(0..n-1) to completion and returns
//                           when every body has returned. The fallback
//                           ThreadSpawnContext spawns n threads; the
//                           session's WorkerPool context *rents* pooled
//                           threads instead (the renting caller always
//                           participates, so every execution owns at
//                           least one thread). Bodies are cooperative:
//                           any one of them, run alone, completes the
//                           work, so a saturated pool that runs them in
//                           sequence on the caller never deadlocks.
//
//   Park()                  called by a worker that found no runnable
//                           work. A pooling context uses the idle beat to
//                           steal one activation from another in-flight
//                           query (SetStealHook below) — the paper's
//                           load-balancing hierarchy extended across
//                           query boundaries. Returns true if foreign
//                           work ran; false means "nap briefly yourself".
//
//   SetStealHook(fn)        an executor publishes "run one of my
//                           activations" so idle threads of *other*
//                           executions (and idle pool threads) can help.
//                           ClearStealHook() blocks until in-flight hook
//                           calls drain, so the executor may tear down
//                           its run state right after.
//
//   GuestSlots()            how many foreign threads may be inside the
//                           steal hook at once — executors provision that
//                           many extra per-worker state slots.
//
//   StopRequested()         cooperative cancellation token, checked by
//                           workers once per activation/morsel. A stopped
//                           execution returns Status::Cancelled.
//
// Contexts are per-execution objects: cheap, not thread-safe to share
// across concurrent Execute calls (each query rents its own).

#ifndef HIERDB_COMMON_EXEC_CONTEXT_H_
#define HIERDB_COMMON_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <functional>

namespace hierdb {

class ExecContext {
 public:
  virtual ~ExecContext() = default;

  /// Runs body(0), ..., body(n-1) to completion and returns once all of
  /// them returned. The bodies must be cooperative: any single body, run
  /// alone, completes (one mt::PipelineExecutor worker finishes the whole
  /// query; so does one cluster body, which takes every node's worker and
  /// scheduler roles in turn). The context may run bodies sequentially on
  /// however many threads it has to spare.
  virtual void SpawnWorkers(uint32_t n,
                            const std::function<void(uint32_t)>& body) = 0;

  /// Idle-worker hook: may run one activation of another in-flight
  /// execution. Returns true iff foreign work was executed.
  virtual bool Park() { return false; }

  /// Publishes this execution's cross-query steal entry point. The hook
  /// runs at most one activation and returns whether it did.
  virtual void SetStealHook(std::function<bool()> hook) { (void)hook; }
  /// Unpublishes the hook and waits for in-flight calls to drain.
  virtual void ClearStealHook() {}

  /// Upper bound on concurrent foreign callers of the steal hook.
  virtual uint32_t GuestSlots() const { return 0; }

  /// Cooperative cancellation: true once the owner asked this execution
  /// to stop (checked per activation batch).
  virtual bool StopRequested() const { return false; }
};

/// The fallback context: SpawnWorkers starts n dedicated std::threads and
/// joins them. Executors use it when a white-box caller (a test, a bench)
/// passes no context; every Session query rents from its WorkerPool
/// instead.
class ThreadSpawnContext final : public ExecContext {
 public:
  /// `stop` (optional) is the cancellation token.
  explicit ThreadSpawnContext(const std::atomic<bool>* stop = nullptr)
      : stop_(stop) {}

  void SpawnWorkers(uint32_t n,
                    const std::function<void(uint32_t)>& body) override;

  bool StopRequested() const override {
    return stop_ != nullptr && stop_->load(std::memory_order_acquire);
  }

 private:
  const std::atomic<bool>* stop_;
};

}  // namespace hierdb

#endif  // HIERDB_COMMON_EXEC_CONTEXT_H_
