// MPP execution (§VI-C): a query plan is split into per-shard/per-task plan
// fragments; the Query Coordinator schedules tasks over worker threads
// (standing in for CN nodes), collects their results, and runs a final
// merge fragment. Two-phase aggregation composes with this: tasks run
// partial aggregation, and the final phase runs either in the merge or,
// behind a hash-repartition Exchange, in the tasks themselves.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/exec/cooperative_runs.h"
#include "src/exec/operator.h"

namespace polarx {

/// Builds the plan fragment for task `task` of `num_tasks` (typically a
/// scan restricted to that task's shard subset, plus pushed-down work).
using FragmentFactory =
    std::function<OperatorPtr(int task, int num_tasks)>;

class MppExecutor {
 public:
  /// `pool` supplies the worker threads ("CN nodes"); its size bounds task
  /// parallelism.
  explicit MppExecutor(ThreadPool* pool) : pool_(pool) {}

  /// Runs `num_tasks` fragments in parallel and concatenates their output
  /// rows (arbitrary order). A task the pool refuses (it is shutting down)
  /// counts as finished with an error.
  Result<std::vector<Row>> RunParallel(int num_tasks,
                                       const FragmentFactory& factory);

  /// Parallel fragments + a final merge operator built over their gathered
  /// output by `merge_factory`.
  ///
  /// A fragment may itself be a two-stage plan: a final stage (final
  /// aggregation, HAVING, join-backs, per-task top-N) over an
  /// ExchangeSourceOp whose producers are the partial stage. Then task t
  /// finishes bucket t of the shuffled partials and the merge only
  /// concatenates, merges top-N lists or runs a small join.
  ///
  /// Runtime filters are wired *inside* a fragment plan: the factory puts
  /// a RuntimeFilterSlot between a fragment's join and its probe scan.
  /// What does cross task boundaries is read-only after publish: a join
  /// whose build side every task reads in full may share one
  /// JoinHashTable, and with it the runtime filter, with the same join in
  /// the other tasks; the tasks drain its build slices between them, then
  /// all probe it.
  /// Pruning shrinks the per-task output gathered here (see
  /// last_gathered_rows()), not just join-local work.
  Result<std::vector<Row>> RunPartialFinal(
      int num_tasks, const FragmentFactory& partial_factory,
      const std::function<OperatorPtr(OperatorPtr gathered)>& merge_factory);

  /// Rows gathered from fragments into the most recent RunPartialFinal
  /// merge (the "shuffled into the coordinator" count).
  uint64_t last_gathered_rows() const { return last_gathered_rows_; }

  /// The block of shards [first, last) that `task` owns among `num_shards`:
  /// [S·t/N, S·(t+1)/N), so each task owns whole partitions, consecutive
  /// ones, and the blocks cover every shard once. The data-locality
  /// assignment of scan fragments: tables of one table group give a task
  /// the same partitions.
  static std::pair<size_t, size_t> ShardBlock(size_t num_shards, int task,
                                              int num_tasks) {
    return {num_shards * size_t(task) / size_t(num_tasks),
            num_shards * size_t(task + 1) / size_t(num_tasks)};
  }

  /// The shards of `shards` in `task`'s ShardBlock.
  static std::vector<TableStore*> ShardsForTask(
      const std::vector<TableStore*>& shards, int task, int num_tasks);

 private:
  ThreadPool* pool_;
  uint64_t last_gathered_rows_ = 0;
};

/// Builds producer fragment `producer` of an Exchange.
using ProducerFactory = std::function<OperatorPtr(int producer)>;

/// Hash-repartition exchange between two stages of one MPP plan (§VI-C
/// shuffle). Producer p of N drains its fragment and routes each row to
/// bucket B(RowKeyHash(keys)) of N; consumer task t then reads bucket t,
/// so rows with equal keys, from any producer, meet in one task.
///
/// There are no dedicated producer threads. Each consumer's Take() first
/// claims unclaimed producer indices and runs them inline, then waits
/// until every producer is done (CooperativeRuns). A consumer only ever
/// waits on producers that a running consumer claimed, so N consumers on
/// a pool of fewer threads cannot deadlock (a barrier across the consumers
/// would). One exchange serves one execution of one plan.
class Exchange {
 public:
  explicit Exchange(std::vector<int> keys) : keys_(std::move(keys)) {}

  /// Bucket `task` of `num_tasks`, after every producer has run. Each of
  /// the `num_tasks` consumers calls this once, with the same `num_tasks`;
  /// `producer` builds the producer fragments this call claims (so it is
  /// called exactly `num_tasks` times across all consumers). A failed
  /// producer's Status is returned to every consumer.
  Result<std::vector<Row>> Take(int task, int num_tasks,
                                const ProducerFactory& producer);

  /// The bucket of a row with key hash `hash` among `num_tasks`: the high
  /// 32 bits pick it, so the low bits that KeyWordTable slots on stay
  /// uniform inside one bucket.
  static int Bucket(uint64_t hash, int num_tasks) {
    return int(((hash >> 32) * uint64_t(num_tasks)) >> 32);
  }

 private:
  Status Produce(Operator* fragment, int num_tasks,
                 std::vector<std::vector<Row>>* buckets) const;

  const std::vector<int> keys_;
  // Producer p's output: its rows by bucket.
  CooperativeRuns<std::vector<std::vector<Row>>> producers_;
};

/// Leaf of a final stage: emits bucket `task` of `exchange` in batches.
/// Open() runs the producers this task claims and waits for the rest. With
/// one task it streams producer 0 through, and the exchange is never used.
class ExchangeSourceOp : public Operator {
 public:
  ExchangeSourceOp(std::shared_ptr<Exchange> exchange, int task,
                   int num_tasks, ProducerFactory producer)
      : exchange_(std::move(exchange)),
        task_(task),
        num_tasks_(num_tasks),
        producer_(std::move(producer)) {}

  Status Open() override;
  Status Next(Batch* out) override;
  void Close() override {
    if (input_ != nullptr) input_->Close();
  }

 private:
  std::shared_ptr<Exchange> exchange_;
  int task_, num_tasks_;
  ProducerFactory producer_;
  OperatorPtr input_;  // the bucket's rows, or producer 0 when N = 1
};

}  // namespace polarx
