#include "src/sim/scheduler.h"

#include <algorithm>
#include <utility>

namespace polarx::sim {

void Scheduler::ScheduleAt(SimTime at, std::function<void()> fn) {
  if (at < now_) at = now_;
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = uint32_t(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.push_back(Event{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), EventCompare{});
}

void Scheduler::ScheduleAfter(SimTime delay, std::function<void()> fn) {
  ScheduleAt(now_ + delay, std::move(fn));
}

bool Scheduler::Step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), EventCompare{});
  const Event ev = heap_.back();
  heap_.pop_back();
  // Moved out and the slot freed before the call, so the handler may
  // schedule further events (growing slots_) safely.
  std::function<void()> fn = std::move(slots_[ev.slot]);
  free_slots_.push_back(ev.slot);
  now_ = ev.at;
  ++executed_;
  fn();
  return true;
}

void Scheduler::Run() {
  while (Step()) {
  }
}

void Scheduler::RunUntil(SimTime deadline) {
  while (!heap_.empty() && heap_.front().at <= deadline) {
    Step();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace polarx::sim
