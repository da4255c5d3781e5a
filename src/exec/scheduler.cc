#include "src/exec/scheduler.h"

namespace polarx {

OperatorJob::OperatorJob(OperatorPtr plan, size_t batches_per_slice)
    : plan_(std::move(plan)), batches_per_slice_(batches_per_slice) {}

bool OperatorJob::RunSlice() {
  if (!status_.ok()) return true;
  if (!opened_) {
    status_ = plan_->Open();
    if (!status_.ok()) return true;
    opened_ = true;
  }
  Batch batch;
  for (size_t i = 0; i < batches_per_slice_; ++i) {
    status_ = plan_->Next(&batch);
    if (!status_.ok()) return true;
    if (batch.empty()) {
      plan_->Close();
      return true;
    }
    for (auto& row : batch.rows) rows_.push_back(std::move(row));
  }
  return false;  // more slices needed
}

void JobHandle::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_.load(std::memory_order_acquire); });
}

QueryScheduler::QueryScheduler(SchedulerOptions options) : options_(options) {
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryScheduler::~QueryScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::shared_ptr<JobHandle> QueryScheduler::Submit(
    std::shared_ptr<SlicedJob> job, QueryClass cls) {
  auto handle = std::make_shared<JobHandle>();
  handle->job = std::move(job);
  handle->current_class_ = cls;
  handle->final_class_ = cls;
  handle->submit_time_ = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    switch (cls) {
      case QueryClass::kTp:
        tp_queue_.push_back(handle);
        break;
      case QueryClass::kAp:
        ap_queue_.push_back(handle);
        break;
      case QueryClass::kSlowAp:
        slow_queue_.push_back(handle);
        break;
    }
  }
  work_cv_.notify_one();
  return handle;
}

void QueryScheduler::SetIsolationEnabled(bool enabled) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    isolation_enabled_ = enabled;
  }
  work_cv_.notify_all();  // lifting the quota may unblock queued AP work
}

std::shared_ptr<JobHandle> QueryScheduler::PickJobLocked() {
  // TP first, always unrestricted.
  if (!tp_queue_.empty()) {
    auto h = tp_queue_.front();
    tp_queue_.pop_front();
    return h;
  }
  bool isolate = isolation_enabled_.load(std::memory_order_relaxed);
  // AP pool: capped concurrency when isolation is on.
  if (!ap_queue_.empty() &&
      (!isolate || ap_running_ + slow_running_ < options_.ap_max_concurrency)) {
    auto h = ap_queue_.front();
    ap_queue_.pop_front();
    ++ap_running_;
    return h;
  }
  if (!slow_queue_.empty() &&
      (!isolate || (slow_running_ < options_.slow_max_concurrency &&
                    ap_running_ + slow_running_ <
                        options_.ap_max_concurrency))) {
    auto h = slow_queue_.front();
    slow_queue_.pop_front();
    ++slow_running_;
    return h;
  }
  return nullptr;
}

void QueryScheduler::Requeue(std::shared_ptr<JobHandle> handle) {
  // Reclassification happens between slices (§VI-D: jobs are preempted at
  // slice boundaries and re-assigned to a lower pool).
  auto cpu = std::chrono::microseconds(handle->cpu_us_.load());
  if (handle->current_class_ == QueryClass::kTp &&
      cpu > options_.tp_reclass_threshold) {
    handle->current_class_ = QueryClass::kAp;
    handle->final_class_ = QueryClass::kAp;
    demotions_to_ap_.fetch_add(1);
  } else if (handle->current_class_ == QueryClass::kAp &&
             cpu > options_.ap_reclass_threshold) {
    handle->current_class_ = QueryClass::kSlowAp;
    handle->final_class_ = QueryClass::kSlowAp;
    demotions_to_slow_.fetch_add(1);
  }
  switch (handle->current_class_) {
    case QueryClass::kTp:
      tp_queue_.push_back(std::move(handle));
      break;
    case QueryClass::kAp:
      ap_queue_.push_back(std::move(handle));
      break;
    case QueryClass::kSlowAp:
      slow_queue_.push_back(std::move(handle));
      break;
  }
}

void QueryScheduler::WorkerLoop() {
  for (;;) {
    std::shared_ptr<JobHandle> handle;
    QueryClass running_as{};
    {
      std::unique_lock<std::mutex> lock(mu_);
      // A worker whose only queued work is over the AP quota waits here
      // too: a submit, a finished slice or an isolation toggle wakes it.
      work_cv_.wait(lock, [this, &handle] {
        return shutdown_ || (handle = PickJobLocked()) != nullptr;
      });
      if (handle == nullptr) return;  // shutdown
      running_as = handle->current_class_;
    }

    auto start = std::chrono::steady_clock::now();
    bool finished = handle->job->RunSlice();
    auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    handle->cpu_us_.fetch_add(elapsed.count());

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (running_as == QueryClass::kAp) --ap_running_;
      if (running_as == QueryClass::kSlowAp) --slow_running_;
      if (!finished) {
        Requeue(handle);
      }
    }
    if (finished) {
      auto total = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - handle->submit_time_);
      handle->latency_us_.store(total.count());
      {
        std::lock_guard<std::mutex> lock(handle->mu_);
        handle->done_.store(true, std::memory_order_release);
      }
      handle->cv_.notify_all();
    }
    work_cv_.notify_one();
  }
}

}  // namespace polarx
