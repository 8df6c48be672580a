// IdleSignal — how an idle worker waits for runnable work.
//
// An eventcount: an epoch, a count of waiters and a condition variable,
// shared by everything one team of worker bodies can run. A worker reads
// the epoch (Epoch) before it looks for work. If its sweep found none, it
// waits (Wait) until the epoch moves past what it read. Whoever makes
// work runnable bumps the epoch after publishing the work:
//
//   Signal()      one unit of work (a queued activation, a delivered
//                 message): wakes one waiter;
//   SignalAll()   a change every waiter must see (an op terminated or
//                 unblocked, a cancel, a finished node): wakes them all.
//
// A bump between a worker's read and its wait makes the wait return at
// once, so a signal is never lost. The waiter count lets a bump with
// nobody waiting skip the mutex. Wait's timeout is the caller's liveness
// net for what nothing signals (a stop token set from outside, a
// heartbeat that is due, another query's work to steal).

#ifndef HIERDB_COMMON_IDLE_SIGNAL_H_
#define HIERDB_COMMON_IDLE_SIGNAL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace hierdb {

class IdleSignal {
 public:
  /// The epoch to pass to Wait: read it before looking for work.
  uint64_t Epoch() const { return epoch_.load(); }

  /// Blocks until the epoch differs from `seen` or `timeout` passed.
  /// Returns true when the epoch moved (at once if it already had),
  /// false when the timeout ended the wait.
  bool Wait(uint64_t seen, std::chrono::microseconds timeout);

  /// Bumps the epoch and wakes one waiter.
  void Signal();
  /// Bumps the epoch and wakes every waiter.
  void SignalAll();

  /// Callers blocked in Wait right now. A waiter counts itself under the
  /// mutex it waits on, so one counted here is inside the wait.
  uint32_t Waiters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return waiters_.load();
  }

 private:
  /// Bumps the epoch; true if a waiter may need a notify.
  bool Bump();

  // Sequentially consistent on purpose: a signaller bumps the epoch and
  // then reads the waiter count; a waiter counts itself and then reads
  // the epoch. One of the two always sees the other.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint32_t> waiters_{0};
  mutable std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace hierdb

#endif  // HIERDB_COMMON_IDLE_SIGNAL_H_
