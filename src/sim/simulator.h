// Discrete-event simulation kernel.
//
// The kernel maintains a virtual clock (nanoseconds) and a priority queue
// of events. Ties are broken by insertion sequence number, which makes the
// whole simulation deterministic for a fixed seed. The paper's experiments
// ran on a real KSR1 with simulated operators; we simulate the processors
// as well (see DESIGN.md, substitution table) so that the control variables
// of every experiment are exact.

#ifndef HIERDB_SIM_SIMULATOR_H_
#define HIERDB_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace hierdb::sim {

using EventFn = std::function<void()>;

/// Deterministic discrete-event simulator.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `when` (>= Now()).
  void ScheduleAt(SimTime when, EventFn fn);

  /// Schedules `fn` to run `delay` ns from now.
  void ScheduleAfter(SimTime delay, EventFn fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Runs events until the queue drains or `max_events` fire.
  /// Returns the number of events executed.
  uint64_t Run(uint64_t max_events = UINT64_MAX);

  /// Runs until virtual time exceeds `until` or the queue drains.
  uint64_t RunUntil(SimTime until);

  bool Empty() const { return queue_.empty(); }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    EventFn fn;
  };
  struct EventCompare {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventCompare> queue_;
};

}  // namespace hierdb::sim

#endif  // HIERDB_SIM_SIMULATOR_H_
