// In-Memory Column Index (§VI-E): a columnar mirror of selected columns of
// a row-store table, maintained from the logical redo stream. Records carry
// the transaction's commit timestamp, so a scan at a snapshot sees exactly
// the rows the row store's MVCC would — enabling hybrid plans that mix both
// stores on one consistent snapshot.
//
// Maintenance can be delayed and batched (the paper's overhead mitigation):
// in batched mode committed operations buffer until FlushPending(), and the
// index's snapshot version lags the row store; AP queries then run at the
// index's version.
//
// Storage is typed column vectors (int64/double/string) with insert/delete
// timestamp arrays; updates append a new row version and tombstone the old
// one. Scans decide visibility and filters on the typed arrays, and the
// pushed-down aggregation assigns group ids from them too; a Row is
// materialized only for output (and, row at a time, for a predicate shape
// the vectorized evaluator does not cover, holding just its columns).
//
// Scans can be restricted to a contiguous row-id range (RowRange), which is
// how MPP fragments split one index between tasks. Readers share the index
// lock, so parallel fragments scan their slices concurrently; maintenance
// takes it exclusively.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/exec/expr.h"
#include "src/exec/operator.h"
#include "src/exec/runtime_filter.h"
#include "src/storage/redo.h"
#include "src/storage/value.h"

namespace polarx {

/// One typed column vector.
struct ColumnVector {
  ValueType type = ValueType::kInt64;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  std::vector<bool> nulls;
  size_t null_count = 0;

  size_t size() const { return nulls.size(); }
  void Append(const Value& v);
  Value Get(size_t row) const;
};

/// A contiguous range [begin, end) of row ids (version slots) of a
/// ColumnIndex. A scan clamps `end` to the index's size when it runs, so
/// the default range, and any range ending at kToEnd, covers every version
/// present at that moment.
struct RowRange {
  static constexpr size_t kToEnd = std::numeric_limits<size_t>::max();
  size_t begin = 0;
  size_t end = kToEnd;
};

class ColumnIndex {
 public:
  /// Indexes `columns` of `schema` (empty = all columns). Column ids in
  /// scans/exprs refer to positions in the indexed subset.
  ColumnIndex(Schema schema, std::vector<int> columns = {});

  const Schema& schema() const { return schema_; }
  const std::vector<int>& columns() const { return columns_; }

  // ---- maintenance ----

  /// Applies one committed transaction's row operations (typically wired to
  /// RedoApplier::SetCommitHook on an RO replica). In batched mode the ops
  /// buffer until FlushPending().
  void ApplyCommit(Timestamp commit_ts, const std::vector<RedoRecord>& ops);

  /// Enables delayed/batched maintenance with the given buffer bound.
  void SetBatching(bool enabled, size_t max_buffered_ops = 4096);

  /// Applies all buffered operations; advances version().
  void FlushPending();

  /// The index's snapshot version: max commit_ts applied (lags the row
  /// store in batched mode).
  Timestamp version() const;

  size_t pending_ops() const;
  size_t live_rows(Timestamp snapshot) const;
  size_t total_versions() const;

  // ---- scans ----

  /// Builds the ascending selection vector of row ids in `range` visible
  /// at `snapshot` and passing `filter` (may be null). Each conjunct
  /// `column <op> literal` whose literal the column's type compares exactly
  /// runs as one tight loop over the typed array; every other conjunct goes
  /// through EvalBoolVector, and one it does not cover is evaluated row at
  /// a time on rows holding only the columns it references. No full-width
  /// row is built.
  void BuildSelection(Timestamp snapshot, const ExprPtr& filter,
                      std::vector<uint32_t>* selection,
                      RowRange range = {}) const;

  /// Materializes the indexed columns of row `rowid`.
  Row MaterializeRow(uint32_t rowid) const;

  /// Materializes `cols` (empty = all indexed columns) of
  /// selection[start, start + count) into `out`, taking the index lock
  /// once for the whole batch instead of once per row and touching only
  /// the requested column vectors.
  void MaterializeBatch(const std::vector<uint32_t>& selection, size_t start,
                        size_t count, const std::vector<int>& cols,
                        std::vector<Row>* out) const;

  /// Sum of a numeric column over a selection (vectorized aggregate).
  double SumSelected(int col, const std::vector<uint32_t>& selection) const;

  /// Vectorized boolean evaluation over selected rows, equal row for row to
  /// Expr::EvalBool (two-valued: a comparison with NULL is false, NOT of it
  /// true). Covers comparisons of any two int64/double/string operands
  /// (columns, literals, arithmetic, Year, CASE, Substr) under
  /// CompareValues' rules, IN, Contains, StartsWith, IsNull and
  /// AND/OR/NOT. Returns false when the shape is unsupported (caller falls
  /// back to row-at-a-time EvalBool).
  bool EvalBoolVector(const Expr& expr,
                      const std::vector<uint32_t>& selection,
                      std::vector<uint8_t>* out) const;

  /// Encodes `key_cols` (positions in the indexed column subset) of the
  /// selected rows as keys of `table`, a column at a time over the typed
  /// arrays: `keys` gets table->width() words per row and `hashes` each
  /// row's RowKeyHash, as KeyWordTable::Encode gives them for the row.
  void EncodeKeys(const std::vector<int>& key_cols,
                  const std::vector<uint32_t>& selection, KeyWordTable* table,
                  std::vector<uint64_t>* keys,
                  std::vector<uint64_t>* hashes) const;
  /// EncodeKeys for probes of `table`, which stays unchanged (as with
  /// KeyWordTable::EncodeProbe). With `hashed` set, `hashes` already holds
  /// each selected row's RowKeyHash (FilterSelection's) and is kept.
  void EncodeKeys(const std::vector<int>& key_cols,
                  const std::vector<uint32_t>& selection,
                  const KeyWordTable& table, std::vector<uint64_t>* keys,
                  std::vector<uint64_t>* hashes, bool hashed = false) const;

  /// Drops the selected rows whose `key_cols` fail `rf` (int64 bounds, then
  /// bloom on the RowKeyHash) from `selection`, hashing a column at a time;
  /// `tested`/`dropped` count them for the ablation counters. When given,
  /// `kept_hashes` gets the RowKeyHash of each row kept, in selection order.
  void FilterSelection(const RuntimeFilter& rf,
                       const std::vector<int>& key_cols,
                       std::vector<uint32_t>* selection, uint64_t* tested,
                       uint64_t* dropped,
                       std::vector<uint64_t>* kept_hashes = nullptr) const;

  const ColumnVector& column(int i) const { return data_[i]; }

 private:
  // Folds and emits its groups over the typed arrays under one lock.
  friend class ColumnAggOp;

  void ApplyOne(Timestamp commit_ts, const RedoRecord& op);

  Schema schema_;
  std::vector<int> columns_;  // source column ids
  // Shared by read-only paths, exclusive for ApplyCommit / FlushPending /
  // SetBatching.
  mutable std::shared_mutex mu_;
  std::vector<ColumnVector> data_;
  std::vector<Timestamp> insert_ts_;
  std::vector<Timestamp> delete_ts_;  // kMaxTimestamp while live
  std::unordered_map<EncodedKey, uint32_t> pk_to_row_;
  Timestamp version_ = 0;
  bool batching_ = false;
  size_t max_buffered_ = 4096;
  struct PendingCommit {
    Timestamp commit_ts;
    std::vector<RedoRecord> ops;
  };
  std::vector<PendingCommit> pending_;
  size_t pending_op_count_ = 0;
};

/// A hash join's build side as a scan of a column index probes it: the
/// rows of `build` keyed on `build_keys`, matched on the index columns
/// `probe_cols`. With `use_runtime_filter` (inner and semi joins only) the
/// build side's bloom + min/max bounds prune the probe selection first.
struct ColumnJoinProbe {
  JoinBuild build;
  std::vector<int> probe_cols;
  std::vector<int> build_keys;
  bool use_runtime_filter = true;
};

/// The probe of a hash join over a column index, shared by ColumnHashJoinOp
/// and ColumnAggOp's semi-join: fills `join.build`'s table (with its
/// runtime filter when `join.use_runtime_filter`), sets `selection` to the
/// rows of `range` visible at `snapshot`, passing `filter` and the runtime
/// filter, and `matches` to the first matching build row of each
/// (JoinHashTable::kNoRow when none). Probe keys are encoded a column at a
/// time into the build table's key format (ColumnIndex::EncodeKeys): the
/// filter tests the hash the lookup uses. Counts the filter's tested and
/// dropped rows and the rows reaching the probe (the E4 work counters).
Status ProbeColumnJoin(const ColumnIndex& index, Timestamp snapshot,
                       const ExprPtr& filter, RowRange range,
                       const ColumnJoinProbe& join,
                       std::vector<uint32_t>* selection,
                       std::vector<uint32_t>* matches);

/// Aggregation pushed down into the column index (§VI-E: "table-scan and
/// filter ... and the first phase of aggregation are offloaded"): computes
/// group-by aggregates directly over the typed column vectors, without
/// materializing rows. Group ids come from HashAggOp's key table
/// (KeyWordTable), fed a column at a time by ColumnIndex::EncodeKeys, so
/// the groups and their first-seen output order are HashAggOp's over the
/// same selection.
///
/// The aggregate inputs are evaluated over the selection in blocks of
/// kExecBatchSize rows, each distinct input once per block (Q21's late
/// CASE feeds both a min and a max), under one index lock. Sums, counts
/// and averages fold into HashAggOp's per-group {sum, count} accumulators
/// (AggAcc); min/max of int64 and double inputs fold into typed per-group
/// slots, and of other inputs into Values under HashAggOp's rules
/// (FoldAggInput). NULL inputs are skipped, as HashAggOp skips them. Groups
/// are emitted through HashAggOp's emit path (AppendAggregates), so the
/// output is HashAggOp's for the same specs (kComplete or kPartial) and the
/// operator drops into plans as a replacement for Agg(Scan(...)).
///
/// With a semi-join, only the selected rows that match a build row are
/// aggregated, probed as ColumnHashJoinOp probes (ProbeColumnJoin): the
/// operator replaces Agg(ColumnHashJoinOp(kLeftSemi)) with the same
/// runtime-filter and probe counts.
class ColumnAggOp : public Operator {
 public:
  /// Aggregates the rows of `range` only (an MPP task's slice), and with
  /// `semi_join` only those whose keys it holds.
  ColumnAggOp(const ColumnIndex* index, Timestamp snapshot_ts,
              ExprPtr filter, std::vector<int> group_cols,
              std::vector<AggSpec> aggs, AggMode mode = AggMode::kComplete,
              RowRange range = {},
              std::optional<ColumnJoinProbe> semi_join = std::nullopt);

  Status Open() override;
  Status Next(Batch* out) override;

 private:
  const ColumnIndex* index_;
  Timestamp snapshot_ts_;
  ExprPtr filter_;
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
  AggMode mode_;
  RowRange range_;
  std::optional<ColumnJoinProbe> semi_join_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

/// Scan operator over a column index at a snapshot: applies the (vectorized)
/// filter and yields projected rows. Joins probe the index natively
/// (ColumnHashJoinOp), so runtime filters apply there, not here.
class ColumnScanOp : public Operator {
 public:
  /// `projection` indexes into the index's column subset (empty = all);
  /// only rows in `range` are scanned.
  ColumnScanOp(const ColumnIndex* index, Timestamp snapshot_ts,
               ExprPtr filter = nullptr, std::vector<int> projection = {},
               RowRange range = {});

  Status Open() override;
  Status Next(Batch* out) override;

 private:
  const ColumnIndex* index_;
  Timestamp snapshot_ts_;
  ExprPtr filter_;
  std::vector<int> projection_;
  RowRange range_;
  std::vector<uint32_t> selection_;
  size_t pos_ = 0;
};

/// Vectorized hash join probing a column index natively (§VI-E, the column
/// store's "built-in" hash join): the build child is consumed into a
/// JoinHashTable, and the probe side runs over the index's selection vector
/// — visibility + pushed-down filter + (for inner/semi joins) the build
/// side's own runtime filter (ProbeColumnJoin). A key id names exactly its
/// matching build rows. Survivors materialize in batches, projected
/// columns only.
/// Output layout matches HashJoinOp: projected probe columns, then build
/// columns (inner joins); probe columns only (semi/anti).
class ColumnHashJoinOp : public Operator {
 public:
  /// `projection` / `probe_keys` follow ColumnScanOp + HashJoinOp
  /// composition: `projection` indexes the index's column subset (empty =
  /// all), `probe_keys` are positions in the *projected* output row. When
  /// `use_runtime_filter` is set (inner/semi only), the build side's bloom
  /// + min/max bounds prune the probe selection before materialization.
  /// Only index rows in `range` are probed; the build side is read whole.
  /// `build` is one operator or a shared table's slices, as for HashJoinOp.
  ColumnHashJoinOp(const ColumnIndex* index, Timestamp snapshot_ts,
                   ExprPtr probe_filter, std::vector<int> projection,
                   std::vector<int> probe_keys, JoinBuild build,
                   std::vector<int> build_keys,
                   JoinType type = JoinType::kInner,
                   bool use_runtime_filter = true, RowRange range = {});

  Status Open() override;
  Status Next(Batch* out) override;
  void Close() override;

 private:
  const ColumnIndex* index_;
  Timestamp snapshot_ts_;
  ExprPtr probe_filter_;
  std::vector<int> projection_;
  JoinType type_;
  RowRange range_;
  ColumnJoinProbe join_;  // probe keys as index column positions
  std::vector<uint32_t> selection_;
  std::vector<uint32_t> matches_;  // first matching build row per selected row
  size_t pos_ = 0;
  // Per-batch scratch: surviving probe row ids and (inner joins) the
  // matched build-row index for each survivor.
  std::vector<uint32_t> hits_;
  std::vector<uint32_t> hit_build_;
};

}  // namespace polarx
