#include "sched/admission_queue.h"

namespace hierdb::sched {

namespace {

/// Deadline-less entries sort after every real deadline under the EDF
/// policies but keep a meaningful secondary order (FIFO via the seq
/// tie-break for EDF, cost for cost-aware EDF).
constexpr double kNoDeadlineBase = 1e30;

}  // namespace

AdmissionQueue::AdmissionQueue(OrderPolicy policy, double aging_ms,
                               std::vector<TenantLimits> tenants)
    : policy_(policy), aging_ms_(aging_ms) {
  tenants_.reserve(tenants.size());
  for (auto& t : tenants) {
    Tenant slot;
    slot.limits = std::move(t);
    if (slot.limits.max_inflight == 0) slot.limits.max_inflight = 1;
    if (slot.limits.max_queued == 0) slot.limits.max_queued = 1;
    tenants_.push_back(std::move(slot));
  }
}

double AdmissionQueue::KeyFor(const QueueItem& item) const {
  switch (policy_) {
    case OrderPolicy::kFifo:
      return 0.0;  // seq tie-break is the whole order
    case OrderPolicy::kShortestCostFirst:
      return item.cost;
    case OrderPolicy::kEarliestDeadlineFirst:
      return item.deadline_ns == 0 ? kNoDeadlineBase
                                   : static_cast<double>(item.deadline_ns);
    case OrderPolicy::kCostAwareEdf:
      // Latest slack start time: a query must begin by (deadline - run
      // estimate) to have a chance; dispatch the most urgent start first.
      // Deadline-less entries queue behind, cheapest first (starting the
      // short ones keeps slots turning over for future deadlines).
      return item.deadline_ns == 0
                 ? kNoDeadlineBase + item.cost_ms
                 : static_cast<double>(item.deadline_ns) -
                       item.cost_ms * 1e6;
  }
  return 0.0;
}

void AdmissionQueue::Push(QueueItem item) {
  Tenant& t = tenants_[item.tenant];
  Rank r{KeyFor(item), item.seq};
  t.by_seq.emplace(item.seq, r);
  t.by_key.emplace(r, std::move(item));
}

void AdmissionQueue::Erase(Tenant& t, const Rank& r) {
  t.by_key.erase(r);
  t.by_seq.erase(r.seq);
}

std::optional<QueueItem> AdmissionQueue::PopBest(uint64_t now_ns,
                                                 const AliveFn& alive) {
  const bool aging =
      policy_ == OrderPolicy::kShortestCostFirst && aging_ms_ > 0;
  const uint64_t aging_ns =
      aging ? static_cast<uint64_t>(aging_ms_ * 1e6) : 0;
  for (;;) {
    // Per eligible tenant the head candidate is either its oldest entry
    // (when that entry has aged past the bound — aged entries outrank
    // cost order and go FIFO among themselves) or its policy-order
    // minimum; compare heads across tenants the same way.
    Tenant* best_t = nullptr;
    Rank best_r{};
    bool best_aged = false;
    for (Tenant& t : tenants_) {
      if (t.by_seq.empty() || t.inflight >= t.limits.max_inflight) continue;
      Rank r = t.by_key.begin()->first;
      bool r_aged = false;
      if (aging) {
        const auto& oldest = *t.by_seq.begin();
        const QueueItem& oi = t.by_key.find(oldest.second)->second;
        if (oi.submit_ns + aging_ns <= now_ns) {
          r = oldest.second;
          r_aged = true;
        }
      }
      const bool wins =
          best_t == nullptr ||
          (r_aged != best_aged
               ? r_aged
               : (r_aged ? r.seq < best_r.seq : r < best_r));
      if (wins) {
        best_t = &t;
        best_r = r;
        best_aged = r_aged;
      }
    }
    if (best_t == nullptr) return std::nullopt;
    auto it = best_t->by_key.find(best_r);
    QueueItem item = std::move(it->second);
    Erase(*best_t, best_r);
    if (alive(item)) return item;
    // Cancelled/expired while waiting: already accounted by whoever killed
    // it — drop and keep looking.
  }
}

size_t AdmissionQueue::SweepDead(uint32_t tnt, const AliveFn& alive) {
  Tenant& t = tenants_[tnt];
  size_t dropped = 0;
  for (auto it = t.by_key.begin(); it != t.by_key.end();) {
    if (alive(it->second)) {
      ++it;
      continue;
    }
    t.by_seq.erase(it->first.seq);
    it = t.by_key.erase(it);
    ++dropped;
  }
  return dropped;
}

size_t AdmissionQueue::CountLive(uint32_t tnt, const AliveFn& alive) const {
  size_t n = 0;
  for (const auto& [r, item] : tenants_[tnt].by_key) {
    if (alive(item)) ++n;
  }
  return n;
}

size_t AdmissionQueue::CountLive(const AliveFn& alive) const {
  size_t n = 0;
  for (uint32_t t = 0; t < tenants_.size(); ++t) n += CountLive(t, alive);
  return n;
}

}  // namespace hierdb::sched
