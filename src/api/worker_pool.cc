#include "api/worker_pool.h"

#include <algorithm>
#include <chrono>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace hierdb::api {

namespace {

/// The CPUs this thread may run on, in id order (empty where unknown).
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
#endif
  return cpus;
}

void PinCurrentThread(int cpu) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
#else
  (void)cpu;
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// The per-execution rented context.

class WorkerPool::Context final : public ExecContext {
 public:
  Context(WorkerPool* pool, const std::atomic<bool>* stop,
          fault::FaultInjector* injector)
      : pool_(pool), stop_(stop), injector_(injector) {
    if (pool_->recorder_ != nullptr) {
      pool_->recorder_->Instant(obs::EventKind::kPoolRent, 0,
                                pool_->threads());
    }
    std::lock_guard<std::mutex> lock(pool_->mu_);
    pool_->renters_.push_back(this);
  }

  ~Context() override {
    if (pool_->recorder_ != nullptr) {
      pool_->recorder_->Instant(obs::EventKind::kPoolReturn, 0, 0);
    }
    std::unique_lock<std::mutex> lock(pool_->mu_);
    if (hook_) --pool_->hooked_renters_;
    hook_ = nullptr;
    auto& rs = pool_->renters_;
    rs.erase(std::find(rs.begin(), rs.end(), this));
    pool_->hook_cv_.wait(lock, [&] { return hook_inflight_ == 0; });
  }

  void SpawnWorkers(uint32_t n,
                    const std::function<void(uint32_t)>& body) override {
    if (n == 0) return;
    auto team = std::make_shared<Team>();
    team->body = &body;
    team->total = n;
    team->unfinished = n;
    if (injector_ != nullptr && injector_->plan().worker_death_prob > 0.0) {
      team->injector = injector_;
    }
    {
      std::lock_guard<std::mutex> lock(pool_->mu_);
      pool_->teams_.push_back(team);
    }
    pool_->work_cv_.notify_all();
    // The renting caller participates: it keeps claiming its own team's
    // slots until none are unclaimed. This guarantees every execution at
    // least one thread regardless of pool load (a fully busy pool simply
    // leaves all n slots to the caller, which runs them in sequence —
    // bodies of an already-finished execution return immediately).
    for (;;) {
      uint32_t idx;
      {
        std::lock_guard<std::mutex> lock(pool_->mu_);
        if (!team->requeued.empty()) {
          idx = team->requeued.back();
          team->requeued.pop_back();
        } else if (team->next < team->total) {
          idx = team->next++;
        } else {
          break;
        }
      }
      body(idx);
      std::lock_guard<std::mutex> lock(pool_->mu_);
      ++pool_->caller_tasks_;
      if (--team->unfinished == 0) pool_->team_cv_.notify_all();
    }
    std::unique_lock<std::mutex> lock(pool_->mu_);
    pool_->team_cv_.wait(lock, [&] { return team->unfinished == 0; });
    auto& ts = pool_->teams_;
    ts.erase(std::find(ts.begin(), ts.end(), team));
  }

  bool Park() override { return pool_->StealForeign(this); }

  void SetStealHook(std::function<bool()> hook) override {
    {
      std::lock_guard<std::mutex> lock(pool_->mu_);
      // Track hooked-renter transitions in both directions (setting a
      // null hook unpublishes, though only ClearStealHook also drains
      // in-flight calls).
      if (hook_ && !hook) --pool_->hooked_renters_;
      if (!hook_ && hook) ++pool_->hooked_renters_;
      hook_ = std::move(hook);
    }
    // Idle pool threads park indefinitely when nothing is stealable;
    // a new hook is new potential work.
    pool_->work_cv_.notify_all();
  }

  void ClearStealHook() override {
    std::unique_lock<std::mutex> lock(pool_->mu_);
    if (hook_) --pool_->hooked_renters_;
    hook_ = nullptr;
    pool_->hook_cv_.wait(lock, [&] { return hook_inflight_ == 0; });
  }

  uint32_t GuestSlots() const override {
    // Possible concurrent hook callers: every pool thread plus parked
    // workers of other executions (each runs on a pool thread or on a
    // renting caller). A small headroom over the pool size covers the
    // caller threads; an exhausted slot set just makes a steal attempt
    // return false.
    return pool_->threads() + 8;
  }

  bool StopRequested() const override {
    return stop_ != nullptr && stop_->load(std::memory_order_acquire);
  }

 private:
  friend class WorkerPool;

  WorkerPool* pool_;
  const std::atomic<bool>* stop_;
  fault::FaultInjector* injector_;
  // Guarded by pool_->mu_.
  std::function<bool()> hook_;
  uint32_t hook_inflight_ = 0;
};

// ---------------------------------------------------------------------------
// Pool.

WorkerPool::WorkerPool(uint32_t threads, obs::FlightRecorder* recorder)
    : recorder_(recorder) {
  if (threads == 0) threads = 1;
  // A machine-sized pool runs one worker per CPU, pinned. Left to the
  // kernel, a new process's workers were seen stacked on one CPU for up
  // to a second (they nap and wake every few hundred microseconds, which
  // reads as light load), so every query ran at one core's speed.
  const std::vector<int> cpus = AllowedCpus();
  const bool pin = cpus.size() == threads;
  threads_.reserve(threads);
  for (uint32_t i = 0; i < threads; ++i) {
    const int cpu = pin ? cpus[i] : -1;
    threads_.emplace_back([this, cpu] {
      if (cpu >= 0) PinCurrentThread(cpu);
      ThreadLoop();
    });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

PoolStats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PoolStats s;
  s.pool_threads = static_cast<uint32_t>(threads_.size());
  s.pool_tasks = pool_tasks_;
  s.caller_tasks = caller_tasks_;
  s.foreign_steals = foreign_steals_;
  s.worker_deaths = worker_deaths_;
  return s;
}

std::unique_ptr<ExecContext> WorkerPool::Rent(const std::atomic<bool>* stop,
                                              fault::FaultInjector* injector) {
  return std::make_unique<Context>(this, stop, injector);
}

void WorkerPool::ThreadLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    // Claim a worker slot, FIFO across teams (admission order);
    // death-requeued slots of a team go first.
    std::shared_ptr<Team> team;
    uint32_t idx = 0;
    for (auto& t : teams_) {
      if (t->has_slot()) {
        team = t;
        if (!t->requeued.empty()) {
          idx = t->requeued.back();
          t->requeued.pop_back();
        } else {
          idx = t->next++;
        }
        break;
      }
    }
    if (team != nullptr) {
      // Injected worker death: the thread drops the slot without running
      // the body and re-queues it for another claimer (the renting
      // caller, a peer, or this same thread's next beat) — so every body
      // still runs exactly once and progress is preserved.
      if (team->injector != nullptr && team->injector->ShouldKillWorker()) {
        team->requeued.push_back(idx);
        ++worker_deaths_;
        if (recorder_ != nullptr) {
          recorder_->Instant(obs::EventKind::kWorkerDeath, 0, idx);
        }
        work_cv_.notify_all();
        team_cv_.notify_all();  // wake the renting caller to reclaim
        continue;
      }
      ++pool_tasks_;
      lock.unlock();
      (*team->body)(idx);
      lock.lock();
      if (--team->unfinished == 0) team_cv_.notify_all();
      continue;
    }
    // No unclaimed slots. With no steal hooks registered either, there is
    // nothing a pool thread could possibly do: park until a team or hook
    // arrives (an idle session burns no CPU). Otherwise lend the beat to
    // some in-flight execution and poll at a steal cadence.
    if (hooked_renters_ == 0) {
      work_cv_.wait(lock, [&] {
        if (stop_ || hooked_renters_ > 0) return true;
        for (auto& t : teams_) {
          if (t->has_slot()) return true;
        }
        return false;
      });
      continue;
    }
    lock.unlock();
    bool stole = StealForeign(nullptr);
    lock.lock();
    if (stole) continue;
    work_cv_.wait_for(lock, std::chrono::microseconds(500));
  }
}

bool WorkerPool::StealForeign(const Context* skip) {
  Context* target = nullptr;
  std::function<bool()> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t n = renters_.size();
    for (size_t i = 0; i < n && target == nullptr; ++i) {
      Context* c = renters_[steal_rr_++ % n];
      if (c == skip || !c->hook_) continue;
      target = c;
      hook = c->hook_;  // copy: survives a concurrent ClearStealHook
      ++c->hook_inflight_;
    }
  }
  if (target == nullptr) return false;
  // The target context cannot be destroyed while hook_inflight_ > 0 (its
  // destructor and ClearStealHook wait on hook_cv_), so calling the hook
  // and decrementing below are safe.
  bool ran = hook();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (--target->hook_inflight_ == 0) hook_cv_.notify_all();
    if (ran) ++foreign_steals_;
  }
  if (ran && recorder_ != nullptr) {
    // detail = 1 activation ran; worker -1 (not slot-scoped).
    recorder_->Instant(obs::EventKind::kSteal, 0, 1);
  }
  return ran;
}

}  // namespace hierdb::api
