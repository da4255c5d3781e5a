#include "src/exec/mpp.h"

#include <iterator>

namespace polarx {

Result<std::vector<Row>> MppExecutor::RunParallel(
    int num_tasks, const FragmentFactory& factory) {
  std::mutex mu;
  std::condition_variable done_cv;
  std::vector<Row> all;
  Status first_error;
  int remaining = num_tasks;
  // Records one task's outcome; the last one wakes the coordinator.
  auto finish = [&](Result<std::vector<Row>> rows) {
    std::lock_guard<std::mutex> lock(mu);
    if (!rows.ok()) {
      if (first_error.ok()) first_error = rows.status();
    } else {
      for (auto& r : *rows) all.push_back(std::move(r));
    }
    if (--remaining == 0) done_cv.notify_all();
  };

  for (int t = 0; t < num_tasks; ++t) {
    const bool queued = pool_->Submit([&, t] {
      OperatorPtr fragment = factory(t, num_tasks);
      Result<std::vector<Row>> rows = Collect(fragment.get());
      fragment.reset();
      finish(std::move(rows));
    });
    if (!queued) {
      finish(Status::Unavailable("MppExecutor: thread pool refused a task"));
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  if (!first_error.ok()) return first_error;
  return all;
}

Result<std::vector<Row>> MppExecutor::RunPartialFinal(
    int num_tasks, const FragmentFactory& partial_factory,
    const std::function<OperatorPtr(OperatorPtr gathered)>& merge_factory) {
  POLARX_ASSIGN_OR_RETURN(std::vector<Row> partials,
                          RunParallel(num_tasks, partial_factory));
  last_gathered_rows_ = partials.size();
  OperatorPtr merge =
      merge_factory(std::make_unique<ValuesOp>(std::move(partials)));
  return Collect(merge.get());
}

std::vector<TableStore*> MppExecutor::ShardsForTask(
    const std::vector<TableStore*>& shards, int task, int num_tasks) {
  auto [first, last] = ShardBlock(shards.size(), task, num_tasks);
  return std::vector<TableStore*>(shards.begin() + first,
                                  shards.begin() + last);
}

// -------------------------------------------------------------- Exchange --

Result<std::vector<Row>> Exchange::Take(int task, int num_tasks,
                                        const ProducerFactory& producer) {
  POLARX_RETURN_NOT_OK(producers_.Run(
      num_tasks, [&](int p, std::vector<std::vector<Row>>* buckets) {
        buckets->resize(size_t(num_tasks));
        OperatorPtr fragment = producer(p);
        return Produce(fragment.get(), num_tasks, buckets);
      }));
  // Every producer ran; each consumer moves out only its own bucket.
  auto& out = producers_.outputs();
  std::vector<Row> rows = std::move(out[0][size_t(task)]);
  for (size_t p = 1; p < out.size(); ++p) {
    std::vector<Row>& bucket = out[p][size_t(task)];
    rows.insert(rows.end(), std::make_move_iterator(bucket.begin()),
                std::make_move_iterator(bucket.end()));
  }
  return rows;
}

Status Exchange::Produce(Operator* fragment, int num_tasks,
                         std::vector<std::vector<Row>>* buckets) const {
  POLARX_RETURN_NOT_OK(fragment->Open());
  Batch batch;
  for (;;) {
    POLARX_RETURN_NOT_OK(fragment->Next(&batch));
    if (batch.empty()) break;
    for (Row& row : batch.rows) {
      const int b = Bucket(RowKeyHash(row, keys_), num_tasks);
      (*buckets)[size_t(b)].push_back(std::move(row));
    }
  }
  fragment->Close();
  return Status::Ok();
}

Status ExchangeSourceOp::Open() {
  if (num_tasks_ == 1) {
    // One producer and one bucket: stream the producer through unhashed.
    input_ = producer_(0);
  } else {
    POLARX_ASSIGN_OR_RETURN(std::vector<Row> bucket,
                            exchange_->Take(task_, num_tasks_, producer_));
    input_ = std::make_unique<ValuesOp>(std::move(bucket));
  }
  return input_->Open();
}

Status ExchangeSourceOp::Next(Batch* out) {
  POLARX_RETURN_NOT_OK(input_->Next(out));
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

}  // namespace polarx
