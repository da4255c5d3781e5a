// MPP execution (§VI-C): a query plan is split into per-shard/per-task plan
// fragments; the Query Coordinator schedules tasks over worker threads
// (standing in for CN nodes), collects partial results, and runs a final
// merge fragment. Two-phase aggregation composes with this: tasks run
// partial aggregation, the coordinator merges with AggMode::kFinal.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
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
  /// rows (arbitrary order).
  Result<std::vector<Row>> RunParallel(int num_tasks,
                                       const FragmentFactory& factory);

  /// Convenience: parallel partial fragments + a final merge operator built
  /// over the gathered partials by `merge_factory`.
  ///
  /// Runtime filters are wired *inside* a fragment plan: the factory puts
  /// a RuntimeFilterSlot between a fragment's join and its probe scan.
  /// What does cross task boundaries is read-only after publish: a join
  /// whose build side every task reads in full may share one
  /// JoinHashTable, and with it the runtime filter, with the same join in
  /// the other tasks; the first task builds it, the rest wait and probe.
  /// Pruning shrinks the per-task partials gathered here (see
  /// last_gathered_rows()), not just join-local work.
  Result<std::vector<Row>> RunPartialFinal(
      int num_tasks, const FragmentFactory& partial_factory,
      const std::function<OperatorPtr(OperatorPtr gathered)>& merge_factory);

  /// Rows gathered from partial fragments into the most recent
  /// RunPartialFinal merge (the "shuffled into the coordinator" count).
  uint64_t last_gathered_rows() const { return last_gathered_rows_; }

  /// Splits `shards` into the subset owned by `task` (round-robin), the
  /// standard data-locality assignment for scan fragments.
  static std::vector<TableStore*> ShardsForTask(
      const std::vector<TableStore*>& shards, int task, int num_tasks);

 private:
  ThreadPool* pool_;
  uint64_t last_gathered_rows_ = 0;
};

}  // namespace polarx
