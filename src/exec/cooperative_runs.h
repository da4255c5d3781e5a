// N indexed jobs run cooperatively by the threads that need their outputs
// (§VI-C; DESIGN.md §9 "No deadlock"). Every caller of Run() claims
// unclaimed job indices from a shared counter and runs them inline until
// none is left, then waits only for the jobs that other callers claimed.
// A claimed job is always running on its claimer's thread, so callers on a
// pool with fewer threads than callers always finish, where a barrier
// across the callers would deadlock. A job may itself call Run() on
// another CooperativeRuns (a build nested inside a build slice): as long
// as those nest as a tree, every wait is for a job a running thread holds.
//
// The Exchange runs its producers this way, and a JoinHashTable the slices
// of its build side.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace polarx {

template <typename T>
class CooperativeRuns {
 public:
  using Job = std::function<Status(int job, T* out)>;

  /// Runs each of jobs [0, n) exactly once across all callers; job i
  /// writes its output to outputs()[i]. The caller whose job lands last
  /// runs `finish` (when no job failed) over the outputs before any caller
  /// returns. Returns the first failure, a job's or finish's, to every
  /// caller; every job runs even after one failed. All callers pass the
  /// same `n` >= 1; a later call, once everything ran, returns the same
  /// Status without running anything.
  Status Run(int n, const Job& job,
             const std::function<Status(std::vector<T>*)>& finish = {}) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (n < 1) return Status::InvalidArgument("CooperativeRuns: no jobs");
      if (n_ == 0) {
        n_ = n;
        outputs_.resize(size_t(n));
      } else if (n != n_) {
        return Status::InvalidArgument(
            "CooperativeRuns: callers disagree on N");
      }
    }
    for (;;) {
      int i;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (next_ == n_) break;
        i = next_++;
      }
      Status s = job(i, &outputs_[size_t(i)]);
      std::unique_lock<std::mutex> lock(mu_);
      if (!s.ok() && status_.ok()) status_ = std::move(s);
      if (++done_ < n_) continue;
      // The last job landed: outputs_ is final, and no other caller
      // returns before finished_ is set.
      if (status_.ok() && finish) {
        lock.unlock();
        Status f = finish(&outputs_);
        lock.lock();
        status_ = std::move(f);
      }
      finished_ = true;
      done_cv_.notify_all();
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return finished_; });
    return status_;
  }

  /// The job outputs, complete once Run() returned.
  std::vector<T>& outputs() { return outputs_; }

 private:
  std::mutex mu_;
  std::condition_variable done_cv_;
  int n_ = 0;     // fixed by the first Run()
  int next_ = 0;  // next unclaimed job
  int done_ = 0;
  bool finished_ = false;
  Status status_;  // first failure
  std::vector<T> outputs_;
};

}  // namespace polarx
