// The CN-local time-slicing scheduler and TP/AP resource isolation
// (§VI-C/D). Jobs run in slices on a shared worker set:
//
//  - Three logical pools: TP Core Pool (unrestricted), AP Core Pool
//    (concurrency capped — the cgroups cpu quota analogue), Slow Query AP
//    Pool (lowest share).
//  - Preemptive reclassification: a "TP" job that keeps running past
//    tp_reclass_threshold of accumulated CPU is demoted to the AP pool; an
//    AP job past ap_reclass_threshold is demoted to the slow pool. This is
//    how a misclassified AP query is prevented from hurting TP latency.
//  - Each slice is bounded (a job's RunSlice does a bounded amount of work
//    and returns), so long queries cannot monopolize a worker.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/exec/operator.h"

namespace polarx {

enum class QueryClass : uint8_t { kTp = 0, kAp = 1, kSlowAp = 2 };

/// A unit of sliced execution. RunSlice performs a bounded chunk of work
/// and returns true when the job has finished.
class SlicedJob {
 public:
  virtual ~SlicedJob() = default;
  virtual bool RunSlice() = 0;
};

/// Wraps an operator tree as a sliced job: each slice pulls a bounded
/// number of batches. Rows are accumulated internally.
class OperatorJob : public SlicedJob {
 public:
  explicit OperatorJob(OperatorPtr plan, size_t batches_per_slice = 4);
  bool RunSlice() override;

  const Status& status() const { return status_; }
  std::vector<Row>& rows() { return rows_; }

 private:
  OperatorPtr plan_;
  size_t batches_per_slice_;
  bool opened_ = false;
  Status status_;
  std::vector<Row> rows_;
};

struct SchedulerOptions {
  size_t num_workers = 8;
  /// Max AP (incl. slow) slices running concurrently: the CPU quota.
  size_t ap_max_concurrency = 2;
  /// Of which at most this many may be slow-pool slices.
  size_t slow_max_concurrency = 1;
  /// Accumulated CPU beyond which a TP-classified job is demoted to AP.
  std::chrono::microseconds tp_reclass_threshold{50 * 1000};
  /// Accumulated CPU beyond which an AP job is demoted to the slow pool.
  std::chrono::microseconds ap_reclass_threshold{500 * 1000};
};

/// Handle for awaiting a submitted query.
class JobHandle {
 public:
  void Wait();
  bool done() const { return done_.load(std::memory_order_acquire); }
  QueryClass final_class() const { return final_class_; }
  /// Total CPU consumed across slices.
  std::chrono::microseconds cpu_time() const {
    return std::chrono::microseconds(cpu_us_.load());
  }
  /// Wall-clock from submit to completion.
  std::chrono::microseconds latency() const {
    return std::chrono::microseconds(latency_us_.load());
  }

 private:
  friend class QueryScheduler;
  std::shared_ptr<SlicedJob> job;
  std::atomic<bool> done_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  QueryClass final_class_ = QueryClass::kTp;
  QueryClass current_class_ = QueryClass::kTp;
  std::atomic<uint64_t> cpu_us_{0};
  std::atomic<uint64_t> latency_us_{0};
  std::chrono::steady_clock::time_point submit_time_;
};

/// The CN's local scheduler.
class QueryScheduler {
 public:
  explicit QueryScheduler(SchedulerOptions options = SchedulerOptions{});
  ~QueryScheduler();

  /// Submits a job with its optimizer-assigned class.
  std::shared_ptr<JobHandle> Submit(std::shared_ptr<SlicedJob> job,
                                    QueryClass cls);

  /// Toggles resource isolation (the §VII-C "isolation switch"). With it
  /// off, AP jobs compete freely with TP jobs for all workers.
  void SetIsolationEnabled(bool enabled);
  bool isolation_enabled() const { return isolation_enabled_; }

  /// Telemetry.
  uint64_t demotions_to_ap() const { return demotions_to_ap_.load(); }
  uint64_t demotions_to_slow() const { return demotions_to_slow_.load(); }

 private:
  void WorkerLoop();
  std::shared_ptr<JobHandle> PickJobLocked();
  void Requeue(std::shared_ptr<JobHandle> handle);

  SchedulerOptions options_;
  std::atomic<bool> isolation_enabled_{true};
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<JobHandle>> tp_queue_;
  std::deque<std::shared_ptr<JobHandle>> ap_queue_;
  std::deque<std::shared_ptr<JobHandle>> slow_queue_;
  size_t ap_running_ = 0;
  size_t slow_running_ = 0;
  bool shutdown_ = false;
  std::atomic<uint64_t> demotions_to_ap_{0};
  std::atomic<uint64_t> demotions_to_slow_{0};
  std::vector<std::thread> workers_;
};

}  // namespace polarx
