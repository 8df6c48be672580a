// fault:: — seeded, deterministic fault injection for chaos testing.
//
// A FaultPlan is a declarative schedule of fault points: probabilistic
// message faults on the fabric (drop / duplicate / delay), positional
// node faults in the cluster executor (stall / crash a given node's
// scheduler at its Nth step), and probabilistic worker-thread death
// in the session worker pool. A FaultInjector evaluates the plan: every
// decision for the Nth event at a given site is a pure hash of
// (seed, site, n), so two injectors built from the same plan produce the
// exact same firing sequence regardless of wall-clock timing or thread
// interleaving of unrelated sites.
//
// The hooks are compiled in unconditionally; every call site takes the
// injector as a possibly-null pointer and the null check is the whole
// cost when no plan is armed.

#ifndef HIERDB_FAULT_FAULT_H_
#define HIERDB_FAULT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hierdb::fault {

/// Injection sites. Each site keeps its own event counter inside the
/// injector, so the decision stream at one site is independent of traffic
/// at the others.
enum class Site : uint32_t {
  kFabricDrop = 0,
  kFabricDup,
  kFabricDelay,
  kNodeStall,
  kNodeCrash,
  kWorkerDeath,
};

const char* SiteName(Site s);

/// A seeded schedule of faults. Plain data; copy freely. A
/// default-constructed plan is unarmed and injects nothing.
struct FaultPlan {
  uint64_t seed = 0;

  // --- Fabric message faults (evaluated per Fabric::Send) ---
  double drop_prob = 0.0;    ///< silently discard the message
  double dup_prob = 0.0;     ///< deliver the message twice
  double delay_prob = 0.0;   ///< sleep before delivery
  uint32_t delay_us = 200;   ///< delay length when a delay fires

  // --- Cluster node faults (positional, deterministic) ---
  /// Once `stall_node`'s scheduler has completed `stall_after_polls`
  /// steps, skip its steps for stall_ms (its workers run on; no thread
  /// sleeps). stall_ms == 0 skips them until the query is cancelled or
  /// fails (i.e. until detection fires).
  int stall_node = -1;
  uint64_t stall_after_polls = 0;
  uint32_t stall_ms = 0;
  /// Crash `crash_node`'s scheduler after `crash_after_polls` steps: it
  /// never steps again.
  int crash_node = -1;
  uint64_t crash_after_polls = 0;

  // --- Worker pool faults ---
  /// Probability that a pool thread dies (skips the body) when picking up
  /// a work slot. Never applied to renting callers, so forward progress
  /// is preserved.
  double worker_death_prob = 0.0;

  /// True when any fault point is configured.
  bool armed() const {
    return drop_prob > 0.0 || dup_prob > 0.0 || delay_prob > 0.0 ||
           stall_node >= 0 || crash_node >= 0 || worker_death_prob > 0.0;
  }
};

/// Counters of faults actually fired, snapshot into reports.
struct FaultCounters {
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t delayed = 0;
  uint64_t stalls = 0;
  uint64_t crashes = 0;
  uint64_t worker_deaths = 0;
  uint64_t total() const {
    return dropped + duplicated + delayed + stalls + crashes + worker_deaths;
  }
};

/// Evaluates a FaultPlan. Thread-safe; one injector is shared by every
/// component participating in a query (fabric, cluster nodes, worker
/// pool) so the counters aggregate across the whole execution.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  const FaultPlan& plan() const { return plan_; }
  bool armed() const { return plan_.armed(); }

  /// Probabilistic sites: returns whether the fault fires for this
  /// site's next event, advancing the site counter. Deterministic in the
  /// per-site event ordinal.
  bool ShouldDropMessage() { return Fire(Site::kFabricDrop, plan_.drop_prob); }
  bool ShouldDuplicateMessage() { return Fire(Site::kFabricDup, plan_.dup_prob); }
  bool ShouldDelayMessage() { return Fire(Site::kFabricDelay, plan_.delay_prob); }
  bool ShouldKillWorker() { return Fire(Site::kWorkerDeath, plan_.worker_death_prob); }

  /// Positional sites: `poll` is the node's own scheduler-step ordinal,
  /// which the caller maintains, so these are pure predicates.
  bool ShouldStallNode(int node, uint64_t poll) {
    if (plan_.stall_node != node || poll != plan_.stall_after_polls) return false;
    Count(Site::kNodeStall);
    return true;
  }
  bool ShouldCrashNode(int node, uint64_t poll) {
    if (plan_.crash_node != node || poll != plan_.crash_after_polls) return false;
    Count(Site::kNodeCrash);
    return true;
  }

  FaultCounters counters() const;

  /// Firing log: sequence of (site, per-site ordinal) for every fault
  /// that fired, in per-site order. Used by determinism tests.
  std::vector<std::pair<Site, uint64_t>> FiringLog() const;

  /// The raw decision function — exposed so tests can assert two
  /// same-seed injectors agree on every (site, n) without running a
  /// workload. Returns a uniform double in [0, 1).
  static double Decision(uint64_t seed, Site site, uint64_t n);

 private:
  static constexpr int kNumSites = 6;

  bool Fire(Site site, double prob);
  void Count(Site site);

  FaultPlan plan_;
  std::atomic<uint64_t> next_event_[kNumSites] = {};
  std::atomic<uint64_t> fired_[kNumSites] = {};
  mutable std::mutex log_mu_;
  std::vector<std::pair<Site, uint64_t>> log_;
};

}  // namespace hierdb::fault

#endif  // HIERDB_FAULT_FAULT_H_
