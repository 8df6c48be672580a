#include "sim/simulator.h"

namespace hierdb::sim {

void Simulator::ScheduleAt(SimTime when, EventFn fn) {
  HIERDB_CHECK(when >= now_, "cannot schedule an event in the past");
  queue_.push(Event{when, next_seq_++, std::move(fn)});
}

uint64_t Simulator::Run(uint64_t max_events) {
  uint64_t executed = 0;
  while (!queue_.empty() && executed < max_events) {
    // Move out of the queue before running: the handler may schedule.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.time;
    ev.fn();
    ++executed;
  }
  return executed;
}

uint64_t Simulator::RunUntil(SimTime until) {
  uint64_t executed = 0;
  while (!queue_.empty() && queue_.top().time <= until) {
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.time;
    ev.fn();
    ++executed;
  }
  if (now_ < until) now_ = until;
  return executed;
}

}  // namespace hierdb::sim
