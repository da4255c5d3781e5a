// TPC-H-lite: a dbgen-style generator for the eight TPC-H tables and plan
// builders for all 22 queries, used by experiments E3/E4 (Figures 9-10).
//
// Fidelity notes: keys, cardinality ratios, value domains (types, brands,
// containers, ship modes, segments, priorities, the 25 nations / 5 regions)
// and date logic follow the TPC-H spec closely enough that every query's
// selectivity behaves like the paper's; decimals are doubles, dates are
// int64 day numbers, and text fields are shortened.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/colindex/column_index.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/exec/mpp.h"
#include "src/exec/operator.h"
#include "src/partition/partition.h"
#include "src/storage/table.h"

namespace polarx::tpch {

enum Table : int {
  kRegion = 0,
  kNation = 1,
  kSupplier = 2,
  kCustomer = 3,
  kPart = 4,
  kPartSupp = 5,
  kOrders = 6,
  kLineItem = 7,
  kNumTables = 8,
};

// Column indices (schema order) for plan construction.
namespace col {
// region
inline constexpr int r_regionkey = 0, r_name = 1;
// nation
inline constexpr int n_nationkey = 0, n_name = 1, n_regionkey = 2;
// supplier
inline constexpr int s_suppkey = 0, s_name = 1, s_address = 2,
                     s_nationkey = 3, s_phone = 4, s_acctbal = 5,
                     s_comment = 6;
// customer
inline constexpr int c_custkey = 0, c_name = 1, c_address = 2,
                     c_nationkey = 3, c_phone = 4, c_acctbal = 5,
                     c_mktsegment = 6, c_comment = 7;
// part
inline constexpr int p_partkey = 0, p_name = 1, p_mfgr = 2, p_brand = 3,
                     p_type = 4, p_size = 5, p_container = 6,
                     p_retailprice = 7;
// partsupp
inline constexpr int ps_partkey = 0, ps_suppkey = 1, ps_availqty = 2,
                     ps_supplycost = 3;
// orders
inline constexpr int o_orderkey = 0, o_custkey = 1, o_orderstatus = 2,
                     o_totalprice = 3, o_orderdate = 4, o_orderpriority = 5,
                     o_shippriority = 6, o_comment = 7;
// lineitem
inline constexpr int l_orderkey = 0, l_partkey = 1, l_suppkey = 2,
                     l_linenumber = 3, l_quantity = 4, l_extendedprice = 5,
                     l_discount = 6, l_tax = 7, l_returnflag = 8,
                     l_linestatus = 9, l_shipdate = 10, l_commitdate = 11,
                     l_receiptdate = 12, l_shipinstruct = 13,
                     l_shipmode = 14;
}  // namespace col

/// Schema of a TPC-H table.
Schema TableSchema(Table t);
const char* TableName(Table t);

struct TpchConfig {
  /// Scale factor: 1.0 = 6M lineitem rows. Tests use <= 0.01.
  double scale = 0.01;
  uint32_t shards_per_table = 4;
  uint64_t seed = 20220507;
};

/// A generated, sharded TPC-H database: data is loaded directly into
/// committed MVCC table shards (commit_ts = load_ts), ready for scans at
/// any snapshot >= load_ts. Optional column indexes per table (§VI-E).
///
/// Every table is hash-partitioned by its TableDef's rule (§II-B). orders
/// and lineitem form one table group partitioned on orderkey, so an
/// order's lines live in the order's shard; every other table is
/// partitioned on its whole primary key.
class TpchDb {
 public:
  explicit TpchDb(TpchConfig config = TpchConfig{});

  /// Generates and loads all tables. Returns the load snapshot timestamp.
  Timestamp Load();

  const std::vector<TableStore*>& shards(Table t) const {
    return shard_ptrs_[t];
  }
  const TableDef& table_def(Table t) const { return defs_[t]; }
  /// Whether joining `a` and `b` on a.a_col = b.b_col (full-schema column
  /// ids) runs inside each partition (TableGroupRegistry::PartitionWise).
  bool PartitionWise(Table a, int a_col, Table b, int b_col) const {
    return table_groups_.PartitionWise(defs_[a], {uint32_t(a_col)}, defs_[b],
                                       {uint32_t(b_col)});
  }
  uint64_t row_count(Table t) const { return row_counts_[t]; }
  Timestamp load_ts() const { return load_ts_; }
  const TpchConfig& config() const { return config_; }

  /// Builds an in-memory column index over every shard of `t` (merged),
  /// appending shard by shard and recording each shard's row-id range.
  void BuildColumnIndex(Table t);
  const ColumnIndex* column_index(Table t) const {
    return col_indexes_[t].get();
  }
  /// The row ids of `t`'s column index that MPP task `task` of `num_tasks`
  /// scans: the union of the ranges its shards (MppExecutor::ShardBlock)
  /// bulk-built, one contiguous range since the build appends shard by
  /// shard. So a task's column slice and its row-store shards hold the
  /// same rows. The last task's range runs to the index's end at scan time,
  /// so rows appended after the bulk build fall to exactly one task (a
  /// single task's range is the whole index).
  RowRange TaskRows(Table t, int task, int num_tasks) const;

 private:
  void LoadTable(Table t, std::vector<Row> rows);

  TpchConfig config_;
  std::array<TableDef, kNumTables> defs_;
  TableGroupRegistry table_groups_;
  std::array<std::vector<std::shared_ptr<TableStore>>, kNumTables> shards_;
  std::array<std::vector<TableStore*>, kNumTables> shard_ptrs_;
  std::array<uint64_t, kNumTables> row_counts_{};
  std::array<std::unique_ptr<ColumnIndex>, kNumTables> col_indexes_;
  // Shard s bulk-built row ids [bounds[s], bounds[s + 1]) of t's index.
  std::array<std::vector<size_t>, kNumTables> shard_row_bounds_;
  Timestamp load_ts_ = 0;
};

/// How a query accesses base tables.
struct ScanOptions {
  int task = 0;        // MPP task id
  int num_tasks = 1;   // 1 = single-node execution
  /// Use the in-memory column index for tables that have one. In an MPP
  /// plan each task scans the row ids its shards bulk-built into the
  /// partitioned table's index, so the column slice and the row-store
  /// shards of a task hold the same rows; broadcast tables are read in
  /// full by every task.
  bool use_column_index = false;
  /// Publish join build sides as bloom/min-max runtime filters into probe
  /// scans (DESIGN.md §9). Never changes results, only intermediate sizes.
  bool runtime_filters = true;
};

/// One TPC-H query: a fragment factory (per MPP task) plus a merge stage
/// run on the gathered fragment outputs; the merge reads no base table
/// except Q15's primary-key lookup of its top supplier. Single-node
/// execution is fragment(0, 1) piped into merge. A task owns whole
/// partitions, so joins and groupings on orderkey run inside each task
/// (Q3–Q5, Q7–Q10, Q12, Q18, Q21). Some fragments are two-stage: a final
/// stage over the task's bucket of a hash-repartition Exchange, whose
/// producers are the per-task partial stage (Q10, Q13, Q16, Q20, Q22, all
/// keyed on something other than orderkey); their merge only
/// concatenates, merges top-N lists, finishes an aggregate or drops
/// duplicates.
/// The build tables of its broadcast joins (the fragments that open such a
/// join drain its build slices between them, then all probe it read-only)
/// and its exchanges are created with the plan, which makes a plan good
/// for one execution with one set of ScanOptions.
struct TpchPlan {
  std::function<OperatorPtr(const ScanOptions&)> fragment;
  std::function<OperatorPtr(OperatorPtr)> merge;
  /// Which tables this query reads (for stats / routing).
  std::vector<Table> tables;
  /// What the tasks of one MPP execution share: the driving table of each
  /// shared join build side, and the number of exchanges.
  std::vector<Table> shared_builds;
  int exchanges = 0;
};

/// Builds the plan for query `q` in [1, 22] at `snapshot`.
TpchPlan BuildQuery(int q, const TpchDb& db, Timestamp snapshot);

/// Executes query `q` single-node; returns result rows. `base_options`
/// carries the store/join/filter knobs (task fields are overridden).
Result<std::vector<Row>> RunQuerySingleNode(int q, const TpchDb& db,
                                            Timestamp snapshot,
                                            const ScanOptions& base_options);
Result<std::vector<Row>> RunQuerySingleNode(int q, const TpchDb& db,
                                            Timestamp snapshot,
                                            bool use_column_index = false);

/// Executes query `q` with `num_tasks`-way MPP over `pool`.
Result<std::vector<Row>> RunQueryMpp(int q, const TpchDb& db,
                                     Timestamp snapshot, int num_tasks,
                                     ThreadPool* pool,
                                     const ScanOptions& base_options);
Result<std::vector<Row>> RunQueryMpp(int q, const TpchDb& db,
                                     Timestamp snapshot, int num_tasks,
                                     ThreadPool* pool,
                                     bool use_column_index = false);

}  // namespace polarx::tpch
