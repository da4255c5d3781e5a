#include "src/sim/resource.h"

#include <cassert>
#include <utility>

namespace polarx::sim {

Server::Server(Scheduler* sched, uint32_t cores)
    : sched_(sched), cores_(cores == 0 ? 1 : cores) {
  assert(sched_ != nullptr);
}

void Server::Execute(SimTime service_us, std::function<void()> done) {
  queue_.push_back(Item{service_us, std::move(done)});
  StartNext();
}

void Server::StartNext() {
  while (busy_ < cores_ && !queue_.empty()) {
    Item item = std::move(queue_.front());
    queue_.pop_front();
    ++busy_;
    busy_time_us_ += item.service_us;
    uint32_t slot;
    if (free_running_.empty()) {
      slot = uint32_t(running_.size());
      running_.push_back(std::move(item.done));
    } else {
      slot = free_running_.back();
      free_running_.pop_back();
      running_[slot] = std::move(item.done);
    }
    sched_->ScheduleAfter(item.service_us, [this, slot] { Complete(slot); });
  }
}

void Server::Complete(uint32_t slot) {
  std::function<void()> done = std::move(running_[slot]);
  free_running_.push_back(slot);
  --busy_;
  done();
  StartNext();
}

}  // namespace polarx::sim
