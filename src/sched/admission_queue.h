// sched::AdmissionQueue — tenant-aware waiting queues with pluggable
// dispatch orderings and weighted in-flight quotas.
//
// The event loop asks one question: "which waiting query should dispatch
// next?" This class answers it in O(tenants x log queued): every tenant
// keeps its waiting entries in an ordered index keyed by the session's
// admission policy (FIFO seq, plan cost, absolute deadline, or deadline
// minus estimated run time), plus a seq-ordered side index for
// shortest-cost-first aging; PopBest compares the per-tenant heads among
// tenants that still have in-flight quota.
//
// Quotas are hard caps: a tenant never holds more than its weighted share
// of the concurrency limit, so one tenant's backlog cannot starve
// another's slots (the paper's load-balancing story applied to the
// admission tier). Queue-depth backpressure is also per tenant — a full
// tenant rejects while its neighbors keep admitting.
//
// Single-threaded by contract (operated under the scheduler's mutex).
// Entries cancelled while waiting die in place; they are skipped and
// reclaimed lazily via the caller's `alive` predicate.

#ifndef HIERDB_SCHED_ADMISSION_QUEUE_H_
#define HIERDB_SCHED_ADMISSION_QUEUE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace hierdb::sched {

enum class OrderPolicy {
  kFifo,
  kShortestCostFirst,      ///< cheapest plan cost first, with aging
  kEarliestDeadlineFirst,  ///< absolute deadline; deadline-less last (FIFO)
  kCostAwareEdf,           ///< deadline minus estimated run time (slack start)
};

/// Resolved per-tenant limits (the scheduler turns SessionOptions weights
/// into these at construction).
struct TenantLimits {
  std::string name;         ///< "" = the default tenant
  uint32_t weight = 1;
  uint32_t max_inflight = 1;  ///< hard concurrency share (>= 1)
  uint32_t max_queued = 1;    ///< waiting-depth bound (>= 1)
  /// The weighted share was reduced so the per-tenant shares sum to at
  /// most max_concurrent_queries (small sessions with many tenants).
  bool clamped = false;
};

/// One waiting query. `payload` is opaque to the queue (the scheduler
/// stores its per-query state there); `cost_ms` is the calibrated run-time
/// estimate cost-aware EDF subtracts from the deadline.
struct QueueItem {
  uint64_t seq = 0;
  uint32_t tenant = 0;
  double cost = 0.0;
  double cost_ms = 0.0;
  uint64_t deadline_ns = 0;  ///< 0 = no deadline
  uint64_t submit_ns = 0;
  std::shared_ptr<void> payload;
};

class AdmissionQueue {
 public:
  AdmissionQueue(OrderPolicy policy, double aging_ms,
                 std::vector<TenantLimits> tenants);

  uint32_t tenant_count() const {
    return static_cast<uint32_t>(tenants_.size());
  }
  const TenantLimits& limits(uint32_t t) const { return tenants_[t].limits; }

  /// Waiting entries of `t`, including dead (cancelled/expired) ones not
  /// yet swept.
  size_t queued(uint32_t t) const { return tenants_[t].by_seq.size(); }
  uint32_t inflight(uint32_t t) const { return tenants_[t].inflight; }

  void Push(QueueItem item);

  using AliveFn = std::function<bool(const QueueItem&)>;

  /// Pops the best live entry among tenants with spare in-flight quota,
  /// per the policy at `now_ns` (aging applies to shortest-cost-first
  /// only). Dead entries encountered on the way are dropped. Does NOT
  /// bump the in-flight count — call OnDispatch once the pop is used.
  std::optional<QueueItem> PopBest(uint64_t now_ns, const AliveFn& alive);

  void OnDispatch(uint32_t t) { ++tenants_[t].inflight; }
  void OnComplete(uint32_t t) { --tenants_[t].inflight; }

  /// Drops `t`'s dead entries (cancel freeing its admission slot before
  /// the loop would have swept it). Returns how many were dropped.
  size_t SweepDead(uint32_t t, const AliveFn& alive);

  /// Live waiting entries across all tenants (stats snapshot).
  size_t CountLive(const AliveFn& alive) const;
  size_t CountLive(uint32_t t, const AliveFn& alive) const;

 private:
  /// Ordered-index key: policy rank then FIFO tie-break.
  struct Rank {
    double key = 0.0;
    uint64_t seq = 0;
    bool operator<(const Rank& o) const {
      if (key != o.key) return key < o.key;
      return seq < o.seq;
    }
  };
  struct Tenant {
    TenantLimits limits;
    std::map<Rank, QueueItem> by_key;  ///< policy order
    /// seq -> key, for aging (oldest = begin) and targeted erase.
    std::map<uint64_t, Rank> by_seq;
    uint32_t inflight = 0;
  };

  double KeyFor(const QueueItem& item) const;
  void Erase(Tenant& t, const Rank& r);

  const OrderPolicy policy_;
  const double aging_ms_;
  std::vector<Tenant> tenants_;
};

}  // namespace hierdb::sched

#endif  // HIERDB_SCHED_ADMISSION_QUEUE_H_
