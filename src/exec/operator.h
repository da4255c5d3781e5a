// Pull-based (volcano) operators with batch-at-a-time execution, the
// building blocks of PolarDB-X's query executor (§VI-C). TPC-H plans, the
// MPP engine, and the HTAP router all compose these.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/exec/expr.h"
#include "src/exec/join_table.h"
#include "src/exec/key_word_table.h"
#include "src/exec/runtime_filter.h"
#include "src/partition/partition.h"
#include "src/storage/key_codec.h"
#include "src/storage/table.h"

namespace polarx {

/// Rows flow between operators in batches of up to kExecBatchSize.
inline constexpr size_t kExecBatchSize = 1024;

struct Batch {
  std::vector<Row> rows;
  bool empty() const { return rows.empty(); }
};

/// Base class. Contract: Open() once, then Next() until it yields an empty
/// batch (end of stream), then Close(). Next() never blocks on user input;
/// long-running operators cooperate with the time-slicing scheduler by
/// returning after at most one batch.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;
  virtual Status Next(Batch* out) = 0;
  virtual void Close() {}

  uint64_t rows_produced() const { return rows_produced_; }

 protected:
  uint64_t rows_produced_ = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Scans the committed-visible rows of one or more table shards at a
/// snapshot, with optional pushed-down filter and projection (§VI-B
/// operator push-down: the filter runs "inside the scan").
class TableScanOp : public Operator {
 public:
  TableScanOp(std::vector<TableStore*> shards, Timestamp snapshot_ts,
              ExprPtr filter = nullptr, std::vector<int> projection = {});

  /// Restricts the scan to primary keys in [from, to) (empty = unbounded);
  /// unlike a pushed-down filter this prunes the B+Tree range itself.
  void SetKeyRange(EncodedKey from, EncodedKey to) {
    range_from_ = std::move(from);
    range_to_ = std::move(to);
  }

  /// Attaches a runtime-filter slot: projected output rows are tested
  /// against the join build side's filter (once the join publishes it) and
  /// dropped at the scan instead of flowing to the join.
  void SetRuntimeFilter(std::shared_ptr<RuntimeFilterSlot> slot) {
    rf_slot_ = std::move(slot);
  }

  Status Open() override;
  Status Next(Batch* out) override;

 private:
  std::vector<TableStore*> shards_;
  Timestamp snapshot_ts_;
  ExprPtr filter_;
  std::vector<int> projection_;
  std::shared_ptr<RuntimeFilterSlot> rf_slot_;
  EncodedKey range_from_, range_to_;
  size_t shard_index_ = 0;
  EncodedKey cursor_;
};

/// Emits a pre-materialized row set (exchange receiver / test source).
class ValuesOp : public Operator {
 public:
  explicit ValuesOp(std::vector<Row> rows) : source_(std::move(rows)) {}
  Status Open() override {
    pos_ = 0;
    return Status::Ok();
  }
  Status Next(Batch* out) override;

 private:
  std::vector<Row> source_;
  size_t pos_ = 0;
};

class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}
  Status Open() override { return child_->Open(); }
  Status Next(Batch* out) override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
};

class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs)
      : child_(std::move(child)), exprs_(std::move(exprs)) {}
  Status Open() override { return child_->Open(); }
  Status Next(Batch* out) override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
};

enum class JoinType { kInner, kLeftSemi, kLeftAnti, kLeftOuter };

/// The build side of one hash join: the table the join fills and probes,
/// and the slices that fill it (JoinHashTable::Build).
struct JoinBuild {
  /// A build side read by this join alone: a private table and one slice,
  /// `build` itself.
  template <typename Op>
  JoinBuild(std::unique_ptr<Op> build)  // NOLINT: implicit on purpose
      : table(std::make_shared<JoinHashTable>()),
        num_slices(1),
        slice(OneSlice(std::move(build))) {}
  /// A build side in `num_slices` slices made by `slice`, into `table`,
  /// which the joins of every task of one MPP join site share.
  JoinBuild(std::shared_ptr<JoinHashTable> table, int num_slices,
            BuildSliceFactory slice)
      : table(std::move(table)),
        num_slices(num_slices),
        slice(std::move(slice)) {}

  std::shared_ptr<JoinHashTable> table;
  int num_slices;
  BuildSliceFactory slice;

 private:
  static BuildSliceFactory OneSlice(OperatorPtr build);
};

/// In-memory hash join: builds on the right child, probes with the left.
/// Output rows are probe columns followed by build columns (inner/outer
/// joins). Empty key vectors make this a cross/scalar join (all rows match).
class HashJoinOp : public Operator {
 public:
  /// `build_width` is required for kLeftOuter (NULL-pad width when the
  /// build side has no match); ignored otherwise. `build` is one operator
  /// (a private table) or the sliced build side of a shared table.
  HashJoinOp(OperatorPtr probe, JoinBuild build,
             std::vector<int> probe_keys, std::vector<int> build_keys,
             JoinType type = JoinType::kInner, size_t build_width = 0);

  /// Makes this join the source of a runtime filter: Open() summarizes
  /// every build-side key into a bloom + bounds filter and publishes it on
  /// `slot` before opening the probe child (so a scan holding the same
  /// slot prunes from its first batch). Only inner/semi joins publish —
  /// pruning the probe of an anti/outer join would drop output rows.
  void SetRuntimeFilterSource(std::shared_ptr<RuntimeFilterSlot> slot) {
    rf_slot_ = std::move(slot);
  }

  Status Open() override;
  Status Next(Batch* out) override;
  void Close() override { probe_->Close(); }

 private:
  OperatorPtr probe_;
  JoinBuild build_;
  std::vector<int> probe_keys_, build_keys_;
  JoinType type_;
  size_t build_width_;
  std::shared_ptr<RuntimeFilterSlot> rf_slot_;
  std::vector<uint64_t> probe_key_;  // reused per probe row
  // carry-over state when one probe row matches many build rows
  Batch pending_probe_;
  size_t probe_pos_ = 0;
};

/// Index nested-loop join: for each probe row, computes a primary key and
/// looks it up in the inner table's shards (the plan shape PolarDB-X picks
/// when the probe side is small, §VII-C). `rule`, the inner table's
/// partition rule, routes each lookup to the owning shard.
class LookupJoinOp : public Operator {
 public:
  LookupJoinOp(OperatorPtr probe, std::vector<TableStore*> inner_shards,
               PartitionRule rule, std::vector<ExprPtr> key_exprs,
               Timestamp snapshot_ts, JoinType type = JoinType::kInner);
  LookupJoinOp(OperatorPtr probe, TableStore* inner,
               std::vector<ExprPtr> key_exprs, Timestamp snapshot_ts,
               JoinType type = JoinType::kInner)
      : LookupJoinOp(std::move(probe), std::vector<TableStore*>{inner},
                     PartitionRule(1), std::move(key_exprs), snapshot_ts,
                     type) {}

  /// Refuses kLeftOuter, which it does not implement.
  Status Open() override;
  Status Next(Batch* out) override;
  void Close() override { probe_->Close(); }

  uint64_t lookups() const { return lookups_; }

 private:
  OperatorPtr probe_;
  std::vector<TableStore*> inner_;
  PartitionRule rule_;
  std::vector<ExprPtr> key_exprs_;
  Timestamp snapshot_ts_;
  JoinType type_;
  uint64_t lookups_ = 0;
};

/// Materializes its child at Open(), then delegates to a subplan built from
/// the collected rows. This is how multi-pass merge stages (scalar
/// subqueries, self-joins against aggregates) are composed.
class SubplanOp : public Operator {
 public:
  using Builder = std::function<OperatorPtr(std::vector<Row> rows)>;
  SubplanOp(OperatorPtr child, Builder builder)
      : child_(std::move(child)), builder_(std::move(builder)) {}

  Status Open() override;
  Status Next(Batch* out) override;
  void Close() override;

 private:
  OperatorPtr child_;
  Builder builder_;
  OperatorPtr inner_;
};

enum class AggOp { kSum, kCount, kMin, kMax, kAvg };

struct AggSpec {
  AggOp op;
  ExprPtr expr;  // null for COUNT(*)
};

/// Aggregation phase: kComplete computes final values in one pass;
/// kPartial emits mergeable states (avg => sum+count columns); kFinal
/// merges partial states (input columns: groups then states).
enum class AggMode { kComplete, kPartial, kFinal };

/// One group's running state of one aggregate: the sum and the count of
/// its numeric inputs (COUNT keeps the count of its non-NULL inputs only).
/// Min/max keep a Value of their own instead, NULL until an input arrives.
struct AggAcc {
  double sum = 0;
  int64_t count = 0;
};

/// Folds input `v` of one aggregate `op` into its group's state: COUNT
/// counts non-NULL inputs, SUM/AVG add numbers (NULLs and strings are
/// skipped), MIN/MAX keep in `*extreme` the least/greatest non-NULL input
/// under CompareValues, the first of equal ones (`extreme` is read for
/// min/max only). HashAggOp folds every input through this, and ColumnAggOp
/// every input whose type it does not fold into typed slots.
void FoldAggInput(AggOp op, const Value& v, AggAcc* acc, Value* extreme);

/// Appends one group's aggregate columns to `out`, one per aggregate of
/// `aggs` (two, sum and count, for avg in kPartial mode): each from its
/// entry of `accs`, or, for min/max, moved from the next of `extremes`.
/// HashAggOp and ColumnAggOp both emit through this, so it alone defines
/// the partial-state layout that kFinal reads.
void AppendAggregates(const std::vector<AggSpec>& aggs, AggMode mode,
                      const AggAcc* accs, Value* extremes, Row* out);

/// Hash aggregation. Output: group-by values, then one column per aggregate
/// (two for avg in partial mode), one row per group in first-seen order.
///
/// A group's state is one AggAcc per aggregate, in one flat groups x
/// aggregates array, plus one Value slot per min/max aggregate in a second
/// groups x min/max array. Group-by and aggregate inputs that are column
/// references are read in place from the input row; only computed ones go
/// through Expr::Eval.
class HashAggOp : public Operator {
 public:
  HashAggOp(OperatorPtr child, std::vector<ExprPtr> group_by,
            std::vector<AggSpec> aggs, AggMode mode = AggMode::kComplete);

  Status Open() override;
  Status Next(Batch* out) override;
  void Close() override { child_->Close(); }

 private:
  /// The id of the group whose key is cells `cols` of `row`, made (its key
  /// values copied, its state zeroed) when new.
  size_t GroupOf(const Row& row, const std::vector<int>& cols);
  void Fold(const Row& row, size_t g);
  void FoldMerged(const Row& row, size_t g);

  OperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggSpec> aggs_;
  AggMode mode_;
  // Per aggregate: the column it reads in place (-1: its input is computed,
  // or absent for COUNT(*)), and for min/max its index among the group's
  // extremes_ slots.
  std::vector<int> input_cols_;
  std::vector<size_t> extreme_of_;
  size_t num_extremes_ = 0;
  // The cells of an input row that are its key: the group-by columns when
  // every group-by is a column reference (and 0 .. n-1 for kFinal);
  // otherwise empty, and the key is computed into group_buf_.
  std::vector<int> key_cols_;
  std::vector<int> group_cols_;  // 0 .. group_by_.size() - 1
  Row group_buf_;
  // Group g is id g of `table_`; its key values are groups_[g], its
  // accumulators aggs_.size() entries of accs_ from g * aggs_.size(), its
  // min/max slots num_extremes_ entries of extremes_ from g * num_extremes_.
  KeyWordTable table_;
  std::vector<Row> groups_;
  std::vector<AggAcc> accs_;
  std::vector<Value> extremes_;
  std::vector<uint64_t> key_buf_;  // reused per input row
  bool consumed_ = false;
  size_t out_pos_ = 0;
};

struct SortKey {
  int column;
  bool ascending = true;
};

class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys, size_t limit = 0)
      : child_(std::move(child)), keys_(std::move(keys)), limit_(limit) {}
  Status Open() override;
  Status Next(Batch* out) override;
  void Close() override { child_->Close(); }

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  size_t limit_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  bool sorted_ = false;
};

/// Drains an operator tree into a row vector.
Result<std::vector<Row>> Collect(Operator* op);

}  // namespace polarx
