// Discrete-event simulation kernel. All cross-datacenter experiments (E1
// cross-DC transactions, E2 elasticity, A2 Paxos ablations) run on this
// virtual clock, so their results are deterministic and independent of the
// wall-clock speed of the host machine.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace polarx::sim {

/// Virtual time in microseconds since simulation start.
using SimTime = uint64_t;

inline constexpr SimTime kUsPerMs = 1000;
inline constexpr SimTime kUsPerSec = 1000 * 1000;

/// A single-threaded event loop over virtual time. Events scheduled for the
/// same instant fire in FIFO order of scheduling (stable), which keeps runs
/// reproducible.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `at` (clamped to Now()).
  void ScheduleAt(SimTime at, std::function<void()> fn);

  /// Schedules `fn` to run `delay` microseconds from now.
  void ScheduleAfter(SimTime delay, std::function<void()> fn);

  /// Runs one event. Returns false if the queue is empty.
  bool Step();

  /// Runs until the event queue is empty.
  void Run();

  /// Runs events with timestamp <= deadline; leaves later events queued and
  /// advances Now() to `deadline`.
  void RunUntil(SimTime deadline);

  /// Number of pending events.
  size_t PendingEvents() const { return heap_.size(); }

  /// Total events executed since construction (for sanity checks).
  uint64_t executed_events() const { return executed_; }

 private:
  /// A heap entry stays three words: the callback waits in `slots_`, so
  /// sifting the heap never moves a std::function.
  struct Event {
    SimTime at;
    uint64_t seq;   // tie-break for stable ordering
    uint32_t slot;  // index into slots_
  };
  struct EventCompare {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  std::vector<Event> heap_;  // min-heap on (at, seq) under EventCompare
  std::vector<std::function<void()>> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace polarx::sim
