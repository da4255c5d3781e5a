// Simulated processing resources: a Server models a node with a fixed number
// of cores; work items queue FIFO and occupy one core for their service time.
// This is what makes simulated throughput saturate realistically instead of
// scaling without bound.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/sim/scheduler.h"

namespace polarx::sim {

/// M/G/c-style server: `cores` units of concurrency, FIFO queue.
class Server {
 public:
  Server(Scheduler* sched, uint32_t cores);

  /// Enqueues a work item that needs `service_us` of core time; `done` fires
  /// on the virtual clock when it completes.
  void Execute(SimTime service_us, std::function<void()> done);

  uint32_t cores() const { return cores_; }
  uint32_t busy_cores() const { return busy_; }
  size_t queue_depth() const { return queue_.size(); }
  /// Cumulative core-time consumed (us), for utilization accounting.
  uint64_t busy_time_us() const { return busy_time_us_; }

 private:
  struct Item {
    SimTime service_us;
    std::function<void()> done;
  };

  void StartNext();
  /// Completion event of the item running in `running_[slot]`.
  void Complete(uint32_t slot);

  Scheduler* sched_;
  uint32_t cores_;
  uint32_t busy_ = 0;
  uint64_t busy_time_us_ = 0;
  std::deque<Item> queue_;
  /// Callbacks of the items on a core. The completion event carries only
  /// (this, slot), which std::function stores without allocating.
  std::vector<std::function<void()>> running_;
  std::vector<uint32_t> free_running_;
};

}  // namespace polarx::sim
