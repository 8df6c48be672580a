#include "fault/fault.h"

namespace hierdb::fault {

namespace {
// splitmix64 finalizer: full-avalanche mix so consecutive ordinals at a
// site decorrelate.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

double FaultInjector::Decision(uint64_t seed, Site site, uint64_t n) {
  uint64_t h = Mix(seed ^ Mix((static_cast<uint64_t>(site) << 56) ^ n));
  // Top 53 bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultInjector::Fire(Site site, double prob) {
  if (prob <= 0.0) return false;
  const int idx = static_cast<int>(site);
  const uint64_t n = next_event_[idx].fetch_add(1, std::memory_order_relaxed);
  if (Decision(plan_.seed, site, n) >= prob) return false;
  fired_[idx].fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(log_mu_);
  log_.emplace_back(site, n);
  return true;
}

void FaultInjector::Count(Site site) {
  const int idx = static_cast<int>(site);
  const uint64_t n = next_event_[idx].fetch_add(1, std::memory_order_relaxed);
  fired_[idx].fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(log_mu_);
  log_.emplace_back(site, n);
}

FaultCounters FaultInjector::counters() const {
  FaultCounters c;
  c.dropped = fired_[static_cast<int>(Site::kFabricDrop)].load(std::memory_order_relaxed);
  c.duplicated = fired_[static_cast<int>(Site::kFabricDup)].load(std::memory_order_relaxed);
  c.delayed = fired_[static_cast<int>(Site::kFabricDelay)].load(std::memory_order_relaxed);
  c.stalls = fired_[static_cast<int>(Site::kNodeStall)].load(std::memory_order_relaxed);
  c.crashes = fired_[static_cast<int>(Site::kNodeCrash)].load(std::memory_order_relaxed);
  c.worker_deaths = fired_[static_cast<int>(Site::kWorkerDeath)].load(std::memory_order_relaxed);
  return c;
}

std::vector<std::pair<Site, uint64_t>> FaultInjector::FiringLog() const {
  std::lock_guard<std::mutex> lk(log_mu_);
  return log_;
}

}  // namespace hierdb::fault
