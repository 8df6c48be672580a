#include "common/idle_signal.h"

namespace hierdb {

bool IdleSignal::Wait(uint64_t seen, std::chrono::microseconds timeout) {
  if (epoch_.load() != seen) return true;
  std::unique_lock<std::mutex> lock(mu_);
  waiters_.fetch_add(1);
  const bool moved =
      cv_.wait_for(lock, timeout, [&] { return epoch_.load() != seen; });
  waiters_.fetch_sub(1);
  return moved;
}

// The empty critical section orders the bump against a waiter between
// its predicate check and its block: that waiter holds the mutex, so the
// notify below cannot fall before it sleeps.
bool IdleSignal::Bump() {
  epoch_.fetch_add(1);
  if (waiters_.load() == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return true;
}

void IdleSignal::Signal() {
  if (Bump()) cv_.notify_one();
}

void IdleSignal::SignalAll() {
  if (Bump()) cv_.notify_all();
}

}  // namespace hierdb
