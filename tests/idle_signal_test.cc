// Tests for the idle wait of both real backends (common/idle_signal.h).
// No assertion depends on how long anything takes: a wait that should
// return has a 60 s net, so only the ctest timeout bounds a lost signal.

#include <atomic>
#include <chrono>
#include <thread>

#include "common/idle_signal.h"
#include "gtest/gtest.h"

namespace hierdb {
namespace {

constexpr std::chrono::microseconds kNet = std::chrono::seconds(60);

// Spins until `pred` holds, yielding between looks.
template <class Pred>
void Await(Pred pred) {
  while (!pred()) std::this_thread::yield();
}

TEST(IdleSignal, SignalBeforeTheWaitIsNotLost) {
  IdleSignal s;
  const uint64_t seen = s.Epoch();
  s.Signal();  // between the read and the wait
  EXPECT_TRUE(s.Wait(seen, kNet));
  EXPECT_EQ(s.Waiters(), 0u);
}

TEST(IdleSignal, UnmovedEpochEndsOnTheNet) {
  IdleSignal s;
  EXPECT_FALSE(s.Wait(s.Epoch(), std::chrono::microseconds(1)));
}

TEST(IdleSignal, SignalWakesABlockedWaiter) {
  IdleSignal s;
  const uint64_t seen = s.Epoch();
  std::atomic<bool> woke{false};
  std::thread waiter([&] { woke.store(s.Wait(seen, kNet)); });
  Await([&] { return s.Waiters() == 1; });
  s.Signal();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(IdleSignal, SignalWakesOneOfTwoWaitersAndSignalAllTheRest) {
  IdleSignal s;
  const uint64_t seen = s.Epoch();
  std::atomic<int> returned{0};
  std::atomic<int> signalled{0};
  auto wait = [&] {
    if (s.Wait(seen, kNet)) signalled.fetch_add(1);
    returned.fetch_add(1);
  };
  std::thread a(wait);
  std::thread b(wait);
  Await([&] { return s.Waiters() == 2; });
  s.Signal();
  Await([&] { return returned.load() == 1; });
  // The other waiter stays blocked: give it every chance to return.
  for (int i = 0; i < 1000; ++i) std::this_thread::yield();
  EXPECT_EQ(returned.load(), 1);
  EXPECT_EQ(s.Waiters(), 1u);
  s.SignalAll();
  a.join();
  b.join();
  EXPECT_EQ(signalled.load(), 2);
  EXPECT_EQ(s.Waiters(), 0u);
}

TEST(IdleSignal, SignalAllWakesEveryWaiter) {
  IdleSignal s;
  const uint64_t seen = s.Epoch();
  std::atomic<int> signalled{0};
  std::thread waiters[3];
  for (auto& t : waiters) {
    t = std::thread([&] {
      if (s.Wait(seen, kNet)) signalled.fetch_add(1);
    });
  }
  Await([&] { return s.Waiters() == 3; });
  s.SignalAll();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(signalled.load(), 3);
}

}  // namespace
}  // namespace hierdb
