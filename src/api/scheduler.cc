#include "api/scheduler.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace hierdb::api {

namespace {

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string FmtMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", ms);
  return buf;
}

// splitmix64 finalizer for deterministic backoff jitter: same (seq,
// attempt) always jitters the same way, so retry schedules reproduce.
uint64_t JitterHash(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Capped exponential backoff with deterministic jitter in [0.5, 1.0] of
/// the capped delay. `attempt` is the upcoming attempt index (>= 1).
uint64_t BackoffNs(const internal::QueryState& st) {
  double ms = st.backoff_base_ms;
  for (uint32_t i = 1; i < st.attempt; ++i) ms *= 2.0;
  ms = std::min(ms, st.backoff_max_ms);
  const uint64_t h = JitterHash(st.seq * 0x100000001b3ULL + st.attempt);
  const double jitter =
      0.5 + 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
  return static_cast<uint64_t>(ms * jitter * 1e6);
}

}  // namespace

// ---------------------------------------------------------------------------
// QueryHandle

void QueryHandle::Wait() const {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] {
    return state_->phase == internal::QueryState::Phase::kDone;
  });
}

bool QueryHandle::WaitFor(std::chrono::milliseconds timeout) const {
  if (state_ == nullptr) return true;
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, timeout, [&] {
    return state_->phase == internal::QueryState::Phase::kDone;
  });
}

bool QueryHandle::Done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->phase == internal::QueryState::Phase::kDone;
}

bool QueryHandle::Cancel() {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->cancel_requested) return false;  // only one cancel wins
  if (state_->phase == internal::QueryState::Phase::kQueued) {
    state_->cancel_requested = true;
    state_->phase = internal::QueryState::Phase::kDone;
    state_->run = nullptr;
    state_->result = Status::Cancelled("query cancelled before dispatch");
    if (state_->cancel_count != nullptr) {
      state_->cancel_count->fetch_add(1, std::memory_order_relaxed);
    }
    state_->cv.notify_all();
    return true;
  }
  if (state_->phase == internal::QueryState::Phase::kRunning) {
    // Cooperative: raise the stop token; the executor's workers observe
    // it per activation batch and the run returns Status::Cancelled. If
    // the query finishes first, its result is delivered anyway
    // (best-effort cancellation).
    state_->cancel_requested = true;
    state_->stop.store(true, std::memory_order_release);
    if (state_->cancel_count != nullptr) {
      state_->cancel_count->fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }
  return false;  // already done
}

Result<QueryResult> QueryHandle::Take() {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("Take on an empty QueryHandle");
  }
  Wait();
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->taken) {
    return Status::FailedPrecondition("query result already taken");
  }
  state_->taken = true;
  return *std::move(state_->result);
}

// ---------------------------------------------------------------------------
// Scheduler

namespace {

// A zero concurrency limit would admit queries no lane ever runs (Take
// would hang forever), and a zero queue depth would reject every Submit —
// even on an idle session — because dispatch always passes through the
// queue. Treat both as 1, the minimal working configuration.
SessionOptions Normalize(SessionOptions o) {
  if (o.max_concurrent_queries == 0) o.max_concurrent_queries = 1;
  if (o.max_queued == 0) o.max_queued = 1;
  return o;
}

sched::OrderPolicy ToOrderPolicy(AdmissionPolicy p) {
  switch (p) {
    case AdmissionPolicy::kFifo:
      return sched::OrderPolicy::kFifo;
    case AdmissionPolicy::kShortestCostFirst:
      return sched::OrderPolicy::kShortestCostFirst;
    case AdmissionPolicy::kEarliestDeadlineFirst:
      return sched::OrderPolicy::kEarliestDeadlineFirst;
    case AdmissionPolicy::kCostAwareEdf:
      return sched::OrderPolicy::kCostAwareEdf;
  }
  return sched::OrderPolicy::kFifo;
}

/// Turns SessionOptions tenants into resolved limits: the default ""
/// tenant always exists (index 0, weight 1 unless overridden), weights
/// divide max_concurrent_queries into floored shares of at least 1, and
/// a zero per-tenant queue bound inherits the session's.
///
/// The floor of 1 can oversubscribe max_concurrent_queries when tenants
/// outnumber it, so a clamp pass then shaves the largest shares — never
/// below 1 — until the sum fits (or every share is 1, the irreducible
/// case where tenants simply outnumber lanes). Clamped tenants report
/// TenantStats::clamped so operators can see their configured weight was
/// not honored exactly; a share of 0 would starve a tenant outright,
/// which is why 1 is the floor.
std::vector<sched::TenantLimits> ResolveTenants(const SessionOptions& o) {
  std::vector<sched::TenantLimits> out;
  sched::TenantLimits def;
  def.name = "";
  def.weight = 1;
  def.max_queued = o.max_queued;
  out.push_back(def);
  for (const TenantOptions& t : o.tenants) {
    const uint32_t w = std::max<uint32_t>(t.weight, 1);
    const uint32_t q = t.max_queued != 0 ? t.max_queued : o.max_queued;
    if (t.name.empty()) {  // explicit override of the default tenant
      out[0].weight = w;
      out[0].max_queued = q;
      continue;
    }
    sched::TenantLimits l;
    l.name = t.name;
    l.weight = w;
    l.max_queued = q;
    out.push_back(std::move(l));
  }
  uint64_t total_w = 0;
  for (const auto& l : out) total_w += l.weight;
  for (auto& l : out) {
    l.max_inflight = std::max<uint32_t>(
        1, static_cast<uint32_t>(
               static_cast<uint64_t>(o.max_concurrent_queries) * l.weight /
               total_w));
  }
  uint64_t sum = 0;
  for (const auto& l : out) sum += l.max_inflight;
  const uint32_t cap = std::max<uint32_t>(o.max_concurrent_queries, 1);
  while (sum > cap) {
    auto it = std::max_element(
        out.begin(), out.end(),
        [](const sched::TenantLimits& a, const sched::TenantLimits& b) {
          return a.max_inflight < b.max_inflight;
        });
    if (it->max_inflight <= 1) break;  // all shares at the floor
    --it->max_inflight;
    it->clamped = true;
    --sum;
  }
  return out;
}

}  // namespace

Scheduler::Scheduler(const SessionOptions& options,
                     obs::FlightRecorder* recorder)
    : options_(Normalize(options)),
      recorder_(recorder),
      queue_(ToOrderPolicy(options_.admission), options_.scf_aging_ms,
             ResolveTenants(options_)),
      alive_([](const sched::QueueItem& item) {
        auto st = std::static_pointer_cast<internal::QueryState>(item.payload);
        std::lock_guard<std::mutex> slock(st->mu);
        return st->phase == internal::QueryState::Phase::kQueued;
      }),
      tenant_counters_(queue_.tenant_count()),
      loop_([this](uint64_t seq) { OnTimer(seq); }) {}

Scheduler::~Scheduler() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Completions signal drain_cv_; queued cancels and expiries can empty
    // the queue without one, so also poll at a coarse interval. Queries
    // sitting out a retry backoff count as admitted work too.
    while (in_flight_ != 0 || !ready_.empty() || !retry_armed_.empty() ||
           queue_.CountLive(alive_) != 0) {
      drain_cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
    stop_ = true;
  }
  lane_cv_.notify_all();
  for (auto& l : lanes_) l.join();
  // loop_ (declared last) destructs first, joining the reactor thread.
}

QueryHandle Scheduler::Completed(Result<QueryResult> result) {
  auto state = std::make_shared<internal::QueryState>();
  state->phase = internal::QueryState::Phase::kDone;
  state->result = std::move(result);
  return QueryHandle(std::move(state));
}

bool Scheduler::SchedulePumpLocked() {
  if (pump_posted_) return false;
  pump_posted_ = true;
  return true;
}

QueryHandle Scheduler::Submit(
    double plan_cost, double deadline_ms, const std::string& tenant,
    const RetrySpec& retry,
    std::function<Result<QueryResult>(const std::atomic<bool>&, uint32_t,
                                      uint64_t)>
        run) {
  int t = -1;
  for (uint32_t i = 0; i < queue_.tenant_count(); ++i) {
    if (queue_.limits(i).name == tenant) {
      t = static_cast<int>(i);
      break;
    }
  }
  if (t < 0) {
    return Completed(Status::InvalidArgument(
        "unknown tenant \"" + tenant +
        "\" (declare it in SessionOptions::tenants)"));
  }

  auto state = std::make_shared<internal::QueryState>();
  state->plan_cost = plan_cost;
  state->deadline_ms = deadline_ms;
  state->tenant = static_cast<uint32_t>(t);
  state->max_attempts = std::max<uint32_t>(retry.max_attempts(), 1);
  state->backoff_base_ms = std::max(retry.backoff_base_ms, 0.0);
  state->backoff_max_ms =
      std::max(retry.backoff_max_ms, state->backoff_base_ms);
  state->run = std::move(run);
  state->submitted = std::chrono::steady_clock::now();

  uint64_t seq = 0;
  uint64_t deadline_ns = 0;
  bool post_pump = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const sched::TenantLimits& lim = queue_.limits(state->tenant);
    if (queue_.queued(state->tenant) >= lim.max_queued) {
      // Entries cancelled or deadline-expired while waiting still occupy
      // slots until swept; reclaim before judging capacity so dead
      // entries free their admission slots immediately.
      queue_.SweepDead(state->tenant, alive_);
    }
    if (queue_.queued(state->tenant) >= lim.max_queued) {
      ++stats_.rejected;
      ++tenant_counters_[state->tenant].rejected;
      if (recorder_ != nullptr) {
        recorder_->Instant(obs::EventKind::kTenantReject, 0, state->tenant);
      }
      return Completed(Status::ResourceExhausted(
          (lim.name.empty() ? std::string("admission queue full (")
                            : "tenant \"" + lim.name + "\" queue full (") +
          std::to_string(lim.max_queued) + " queued)"));
    }
    seq = next_seq_++;
    state->seq = seq;
    state->cancel_count = cancel_count_;
    const uint64_t now_ns = loop_.NowNs();
    if (deadline_ms > 0) {
      deadline_ns = now_ns + static_cast<uint64_t>(deadline_ms * 1e6);
      state->deadline_ns = deadline_ns;
      armed_.emplace(seq, state);
    }
    sched::QueueItem item;
    item.seq = seq;
    item.tenant = state->tenant;
    item.cost = plan_cost;
    item.cost_ms = plan_cost * ms_per_cost_;
    item.deadline_ns = deadline_ns;
    item.submit_ns = now_ns;
    item.payload = state;
    queue_.Push(std::move(item));
    ++stats_.submitted;
    ++tenant_counters_[state->tenant].submitted;
    // Arm while still holding mu_ (mu_ -> loop mutex is the established
    // order; nothing takes them the other way round). Dispatch goes
    // through Pump, which needs mu_, so the arm is ordered strictly
    // before any completion's CancelTimer — a timer can never be
    // installed for an already-finished query.
    if (deadline_ns != 0) loop_.ArmTimer(seq, deadline_ns);
    if (recorder_ != nullptr) {
      recorder_->Instant(obs::EventKind::kSubmit, seq, seq);
      if (deadline_ns != 0) {
        recorder_->Instant(obs::EventKind::kDeadlineArm, seq, deadline_ns);
      }
    }
    post_pump = SchedulePumpLocked();
  }
  loop_.Start();
  if (post_pump) loop_.Post([this] { Pump(); });
  return QueryHandle(std::move(state));
}

void Scheduler::Pump() {
  std::lock_guard<std::mutex> lock(mu_);
  pump_posted_ = false;
  while (in_flight_ < options_.max_concurrent_queries) {
    std::optional<sched::QueueItem> item =
        queue_.PopBest(loop_.NowNs(), alive_);
    if (!item.has_value()) break;
    auto state =
        std::static_pointer_cast<internal::QueryState>(item->payload);
    bool dispatch = false;
    {
      std::lock_guard<std::mutex> slock(state->mu);
      // Re-check under the state lock: a Cancel can complete the entry
      // between the pop's alive test and here.
      if (state->phase == internal::QueryState::Phase::kQueued) {
        state->phase = internal::QueryState::Phase::kRunning;
        state->dispatch_seq = next_dispatch_++;
        state->dispatched = std::chrono::steady_clock::now();
        dispatch = true;
      }
    }
    if (!dispatch) continue;
    ++in_flight_;
    stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_);
    queue_.OnDispatch(item->tenant);
    ready_.push_back(std::move(state));
    // Lanes never exit until shutdown, so keeping lanes_.size() >=
    // in_flight_ (bounded by the concurrency limit) guarantees a lane
    // per dispatched query.
    if (lanes_.size() < in_flight_) {
      lanes_.emplace_back([this] { LaneLoop(); });
    }
    lane_cv_.notify_one();
  }
}

void Scheduler::OnTimer(uint64_t id) {
  if (id & kRetryTimerBit) {
    OnRetryTimer(id & ~kRetryTimerBit);
    return;
  }
  const uint64_t seq = id;
  std::shared_ptr<internal::QueryState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = armed_.find(seq);
    if (it == armed_.end()) return;  // completed first — deadline lost
    state = std::move(it->second);
    armed_.erase(it);
  }
  {
    // mu_ before state->mu (the order established in Pump). Counters and
    // retry cleanup must land atomically with the completion: a Take()
    // woken by the cv below may read scheduler_stats() immediately, and
    // must already see the miss reflected there.
    std::lock_guard<std::mutex> lock(mu_);
    std::lock_guard<std::mutex> slock(state->mu);
    using Phase = internal::QueryState::Phase;
    if (state->phase == Phase::kQueued) {
      // Never dispatched: complete right here on the loop thread. The
      // dead queue entry is swept lazily by the pump / Submit.
      ++stats_.deadline_missed;
      ++stats_.deadline_missed_queued;
      ++tenant_counters_[state->tenant].deadline_missed;
      // If the expiry caught the query sitting out a retry backoff, its
      // outcome is now final: drop the pending re-queue.
      if (retry_armed_.erase(seq) != 0) {
        loop_.CancelTimer(seq | kRetryTimerBit);
      }
      state->phase = Phase::kDone;
      state->run = nullptr;
      state->result = Status::DeadlineExceeded(
          "deadline (" + FmtMs(state->deadline_ms) +
          " ms) expired while queued");
      if (recorder_ != nullptr) {
        recorder_->Instant(obs::EventKind::kDeadlineFire, seq, 0);
      }
      state->cv.notify_all();
      drain_cv_.notify_all();
    } else if (state->phase == Phase::kRunning) {
      // Raise the cooperative stop token; the lane translates the
      // executor's Cancelled into DeadlineExceeded via deadline_fired.
      state->deadline_fired.store(true, std::memory_order_release);
      state->stop.store(true, std::memory_order_release);
      if (recorder_ != nullptr) {  // detail 1 = caught mid-execution
        recorder_->Instant(obs::EventKind::kDeadlineFire, seq, 1);
      }
    }
    // kDone: lost the race to completion/cancel — nothing to do.
  }
}

void Scheduler::OnRetryTimer(uint64_t seq) {
  bool post_pump = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = retry_armed_.find(seq);
    if (it == retry_armed_.end()) return;  // outcome finalized meanwhile
    std::shared_ptr<internal::QueryState> state = std::move(it->second);
    retry_armed_.erase(it);
    bool requeue = false;
    {
      std::lock_guard<std::mutex> slock(state->mu);
      // A cancel or queued-deadline expiry during the backoff already
      // completed the handle; the retry is then moot.
      requeue = state->phase == internal::QueryState::Phase::kQueued;
    }
    if (requeue) {
      sched::QueueItem item;
      item.seq = state->seq;
      item.tenant = state->tenant;
      item.cost = state->plan_cost;
      item.cost_ms = state->plan_cost * ms_per_cost_;
      item.deadline_ns = state->deadline_ns;
      item.submit_ns = loop_.NowNs();
      item.payload = state;
      // No depth-bound check: the query was admitted at Submit and its
      // slot was never returned to the caller.
      queue_.Push(std::move(item));
      post_pump = SchedulePumpLocked();
    }
    drain_cv_.notify_all();
  }
  if (post_pump) loop_.Post([this] { Pump(); });
}

void Scheduler::LaneLoop() {
  for (;;) {
    std::shared_ptr<internal::QueryState> state;
    {
      std::unique_lock<std::mutex> lock(mu_);
      lane_cv_.wait(lock, [&] { return stop_ || !ready_.empty(); });
      if (ready_.empty()) return;  // stop_ and fully drained
      state = std::move(ready_.front());
      ready_.pop_front();
    }

    const auto dispatched = state->dispatched;
    Result<QueryResult> result =
        state->run(state->stop, state->attempt, state->seq);
    const auto finished = std::chrono::steady_clock::now();
    const double exec_ms = MsBetween(dispatched, finished);
    if (result.ok()) {
      QueryResult& qr = result.value();
      qr.queue_ms = MsBetween(state->submitted, dispatched);
      qr.exec_ms = exec_ms;
      qr.dispatch_seq = state->dispatch_seq;
    }

    // A run stopped by the deadline timer surfaces as Cancelled from the
    // executors; translate. A user Cancel that also won keeps Cancelled
    // (the user asked first — the eager cancel count already holds it).
    {
      std::lock_guard<std::mutex> slock(state->mu);
      if (!result.ok() &&
          result.status().code() == StatusCode::kCancelled &&
          state->deadline_fired.load(std::memory_order_acquire) &&
          !state->cancel_requested) {
        result = Status::DeadlineExceeded(
            "deadline (" + FmtMs(state->deadline_ms) +
            " ms) exceeded mid-execution: " + result.status().message());
      }
    }

    // Retry: an Unavailable failure re-queues the query for another
    // attempt after capped exponential backoff — unless a cancel or a
    // fired deadline already owns the outcome, or attempts are exhausted.
    // The lane is released for the duration of the backoff and the
    // deadline (absolute) stays armed, so a retrying query can still
    // expire while waiting.
    bool retry = false;
    if (!result.ok() &&
        result.status().code() == StatusCode::kUnavailable) {
      std::lock_guard<std::mutex> slock(state->mu);
      if (!state->cancel_requested &&
          !state->deadline_fired.load(std::memory_order_acquire) &&
          state->attempt + 1 < state->max_attempts) {
        ++state->attempt;
        state->phase = internal::QueryState::Phase::kQueued;
        retry = true;
      }
    }
    if (retry) {
      bool post_pump = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        --in_flight_;
        queue_.OnComplete(state->tenant);
        ++stats_.retries;
        retry_armed_[state->seq] = state;
        loop_.ArmTimer(state->seq | kRetryTimerBit,
                       loop_.NowNs() + BackoffNs(*state));
        post_pump = SchedulePumpLocked();
        drain_cv_.notify_all();
      }
      if (post_pump) loop_.Post([this] { Pump(); });
      continue;
    }
    state->run = nullptr;  // release the captured plan

    // Commit the scheduler counters before publishing to the handle, so a
    // caller reading scheduler_stats() right after Take() sees this query
    // accounted for. A run stopped by Cancel counts as cancelled (already
    // accounted eagerly by Cancel itself), not failed; a deadline miss
    // counts as deadline_missed, not failed.
    bool post_pump = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      queue_.OnComplete(state->tenant);
      if (state->deadline_ns != 0) armed_.erase(state->seq);
      if (result.ok()) {
        ++stats_.completed;
        // Calibrate cost-aware EDF's run-time estimate from what actually
        // happened (first sample snaps, then a 0.9/0.1 EWMA).
        const double per = exec_ms / std::max(state->plan_cost, 1.0);
        ms_per_cost_ =
            cost_samples_ == 0 ? per : 0.9 * ms_per_cost_ + 0.1 * per;
        ++cost_samples_;
      } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
        ++stats_.deadline_missed;
        ++tenant_counters_[state->tenant].deadline_missed;
      } else if (result.status().code() != StatusCode::kCancelled) {
        ++stats_.failed;
      }
      post_pump = SchedulePumpLocked();
      drain_cv_.notify_all();
    }
    if (state->deadline_ns != 0) loop_.CancelTimer(state->seq);

    {
      std::lock_guard<std::mutex> slock(state->mu);
      if (state->cancel_requested &&
          result.status().code() != StatusCode::kCancelled) {
        // The cancel lost the race: the query completed (or failed, or
        // missed its deadline) before any worker observed the stop token,
        // and was counted under that outcome above. Undo the eager
        // cancellation count so the terminal outcomes stay reconciled
        // with submissions.
        state->cancel_count->fetch_sub(1, std::memory_order_relaxed);
      }
      state->result = std::move(result);
      state->phase = internal::QueryState::Phase::kDone;
      state->cv.notify_all();
    }
    if (post_pump) loop_.Post([this] { Pump(); });
  }
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SchedulerStats s = stats_;
  s.cancelled = cancel_count_->load(std::memory_order_relaxed);
  s.in_flight = in_flight_;
  // Entries cancelled/expired but not yet swept are done, not waiting.
  s.queued = static_cast<uint32_t>(queue_.CountLive(alive_));
  s.loop_threads = loop_.started() ? 1 : 0;
  s.lane_threads = static_cast<uint32_t>(lanes_.size());
  const sched::EventLoop::Stats ls = loop_.stats();
  s.loop_wakeups = ls.wakeups;
  s.timers_fired = ls.timers_fired;
  s.loop_max_queue_depth = ls.max_queue_depth;
  s.timer_slip_total_ns = ls.timer_slip_total_ns;
  s.timer_slip_max_ns = ls.timer_slip_max_ns;
  s.loop_lag_p50_ms = ls.loop_lag_p50_ms;
  s.loop_lag_p99_ms = ls.loop_lag_p99_ms;
  s.tenants.reserve(queue_.tenant_count());
  for (uint32_t t = 0; t < queue_.tenant_count(); ++t) {
    const sched::TenantLimits& lim = queue_.limits(t);
    TenantStats ts;
    ts.name = lim.name;
    ts.max_inflight = lim.max_inflight;
    ts.max_queued = lim.max_queued;
    ts.clamped = lim.clamped;
    ts.in_flight = queue_.inflight(t);
    ts.queued = static_cast<uint32_t>(queue_.CountLive(t, alive_));
    ts.submitted = tenant_counters_[t].submitted;
    ts.rejected = tenant_counters_[t].rejected;
    ts.deadline_missed = tenant_counters_[t].deadline_missed;
    s.tenants.push_back(std::move(ts));
  }
  return s;
}

}  // namespace hierdb::api
