// Plan builders for all 22 TPC-H queries (experiment E4 / Fig. 10).
//
// Each query is a TpchPlan: a per-task fragment (scans of the query's
// driving table are restricted to the task's partitions: its block of
// shards on the row store, the row ids those shards bulk-built into the
// column index; small tables are scanned in full, i.e. broadcast) plus a
// merge stage on the coordinator. The merge reads only the gathered rows:
// final aggregation, having/top-n, sorting, and for Q2 and Q17 a join of
// the gathered rows with their own per-key minimum or average (SubplanOp);
// no merge scans a base table (Q15's merge looks up its one top supplier
// by primary key). Single-node execution is fragment({0,1}) | merge.
//
// orders and lineitem are one table group on orderkey, so a task's
// partitions of both hold the same orders, and work on orderkey stays in
// the task: joins of its lineitems with orders build privately from its
// orders (QB::PartitionBuild, decided from the catalog), Q4 semi-joins its
// orders with its lineitems, Q18 and Q21 group its lineitems by order.
//
// Where the final grouping or join is on another key (Q10, Q13, Q16, Q20,
// Q22), the partial stage becomes the producer of a hash-repartition
// Exchange keyed on it, and the fragment is the final stage over the
// task's bucket (QB::Shuffle), so the merge only concatenates, merges
// top-N lists, finishes an aggregate or drops duplicates. Q13 and Q22
// shuffle two inputs on custkey (the orders' partial counts and the task's
// customer slice), so each customer meets its orders' counts in exactly
// one task. With one task an exchange passes its one producer's rows
// straight through.
//
// Every other fragment join whose build side each task would read in full
// gets a build table (SharedBuild) created with the plan and captured by
// its fragment factory. The build side is cut into one slice per task, the
// way an exchange has one producer per task: slice s is the build subtree
// run with the ScanOptions of task s, whose driving scan reads task s's
// share of its table (QB::SlicedBuild). Every task that opens the join
// drains the slices nobody has claimed yet, so the tasks build the join's
// hash table and runtime filter together, once per query, and then all
// probe it read-only. A join whose build side is the task's own partition
// or its exchange bucket (Q13's outer join, Q22's anti-join) keeps a
// private one-slice table. Exchanges are created and captured the same
// way.
#include <algorithm>
#include <cassert>
#include <numeric>

#include "src/optimizer/cost.h"
#include "src/workload/tpch.h"

namespace polarx::tpch {

namespace {

using E = Expr;

/// Shared cost model for plan-construction decisions (runtime-filter
/// attachment); default thresholds, no per-query tuning.
const CostModel& PlanCostModel() {
  static const CostModel model;
  return model;
}

/// One join site's build table, shared by all tasks of one plan.
using SharedBuild = std::shared_ptr<JoinHashTable>;

/// Shared build tables for `plan`, one per build side, whose driving
/// tables are `tables`.
template <size_t N>
std::array<SharedBuild, N> NewSharedBuilds(TpchPlan* plan,
                                           const Table (&tables)[N]) {
  std::array<SharedBuild, N> builds;
  for (size_t i = 0; i < N; ++i) {
    plan->shared_builds.push_back(tables[i]);
    builds[i] = std::make_shared<JoinHashTable>();
  }
  return builds;
}

/// One repartitioning point between a plan's two stages, shared likewise.
using SharedExchange = std::shared_ptr<Exchange>;

SharedExchange NewExchange(TpchPlan* plan, std::vector<int> keys) {
  ++plan->exchanges;
  return std::make_shared<Exchange>(std::move(keys));
}

/// Shared plan-construction context.
struct QB {
  const TpchDb* db;
  Timestamp snap;

  /// The task's row-id slice of `t`'s column index (TpchDb::TaskRows);
  /// broadcast scans (`partition` unset) read the whole index.
  RowRange Slice(Table t, const ScanOptions& o, bool partition) const {
    return partition ? db->TaskRows(t, o.task, o.num_tasks) : RowRange{};
  }

  /// Scans table `t`. If `partition` is set the scan is restricted to the
  /// task's share (the MPP fragment's data-locality assignment: its shards
  /// on the row store, its Slice of the column index); otherwise the full
  /// table is read (broadcast side). The column index serves the scan when
  /// requested and available.
  OperatorPtr Scan(Table t, const ScanOptions& o, bool partition,
                   ExprPtr filter = nullptr,
                   std::vector<int> proj = {}) const {
    if (o.use_column_index && db->column_index(t) != nullptr) {
      return std::make_unique<ColumnScanOp>(
          db->column_index(t), snap, std::move(filter), std::move(proj),
          Slice(t, o, partition));
    }
    return RowScan(t, o, partition, std::move(filter), std::move(proj));
  }

  /// Scan's row-store path.
  std::unique_ptr<TableScanOp> RowScan(Table t, const ScanOptions& o,
                                       bool partition, ExprPtr filter,
                                       std::vector<int> proj) const {
    std::vector<TableStore*> shards = db->shards(t);
    if (partition && o.num_tasks > 1) {
      shards = MppExecutor::ShardsForTask(shards, o.task, o.num_tasks);
    }
    return std::make_unique<TableScanOp>(std::move(shards), snap,
                                         std::move(filter), std::move(proj));
  }

  /// Aggregation over a filtered scan of one table (groups/agg exprs in
  /// full-schema column ids). When the column index serves the scan, the
  /// first aggregation phase is pushed into it (ColumnAggOp, §VI-E).
  OperatorPtr AggScan(Table t, const ScanOptions& o, ExprPtr filter,
                      std::vector<int> group_cols,
                      std::vector<AggSpec> aggs, AggMode mode) const {
    if (o.use_column_index && db->column_index(t) != nullptr) {
      return std::make_unique<ColumnAggOp>(
          db->column_index(t), snap, std::move(filter),
          std::move(group_cols), std::move(aggs), mode,
          Slice(t, o, /*partition=*/true));
    }
    // The row scan copies only the columns up to the last one the groups
    // and aggregates read, so their full-schema ids stay valid without
    // copying the wide trailing columns (o_comment, ...).
    std::vector<int> used = group_cols;
    for (const AggSpec& a : aggs) {
      if (a.expr != nullptr) a.expr->CollectColumns(&used);
    }
    int width = 1;
    for (int c : used) width = std::max(width, c + 1);
    std::vector<int> proj(width);
    std::iota(proj.begin(), proj.end(), 0);
    std::vector<ExprPtr> group_exprs;
    for (int c : group_cols) group_exprs.push_back(Expr::Col(c));
    auto scan =
        Scan(t, o, /*partition=*/true, std::move(filter), std::move(proj));
    return std::make_unique<HashAggOp>(std::move(scan),
                                       std::move(group_exprs),
                                       std::move(aggs), mode);
  }

  /// Hash join whose probe side is a partitioned scan of `t` — the
  /// fragment shape of every big TPC-H lineitem join. Two optimizations
  /// hang off this helper:
  ///  - column-native join: with a column index available, the probe runs
  ///    as ColumnHashJoinOp over the task's slice of the index's selection
  ///    vector (a left outer join probes a ColumnScanOp through HashJoinOp);
  ///  - runtime filter: when the cost model approves
  ///    (ShouldAttachRuntimeFilter on the build estimates vs the probe
  ///    table size), the join's build side is published as a bloom+bounds
  ///    filter into the probe: ColumnHashJoinOp applies it to its selection
  ///    vector, a row-store scan gets it through a shared RuntimeFilterSlot.
  /// `probe_keys` index the projected scan output; `build_rows_est` is the
  /// whole build side's estimated cardinality after its own filters and
  /// `build_base_rows` its base-table row count (0 when unknown).
  OperatorPtr ScanJoin(Table t, const ScanOptions& o, ExprPtr scan_filter,
                       std::vector<int> proj, std::vector<int> probe_keys,
                       JoinBuild build, std::vector<int> build_keys,
                       JoinType type, double build_rows_est,
                       double build_base_rows) const {
    // Both sides at the scope the join has: a shared build (one slice per
    // task) holds the whole build side and meets every task's probe, so
    // the whole probe table; a private build here comes from
    // PartitionBuild, which is partition-wise for every TPC-H join, so it
    // meets the task's share of the probe.
    const double share = build.num_slices > 1 ? 1.0 : 1.0 / o.num_tasks;
    build_rows_est *= share;
    const bool attach =
        o.runtime_filters &&
        (type == JoinType::kInner || type == JoinType::kLeftSemi) &&
        PlanCostModel().ShouldAttachRuntimeFilter(
            build_rows_est, build_base_rows * share,
            double(db->row_count(t)) * share);
    if (o.use_column_index && db->column_index(t) != nullptr &&
        type != JoinType::kLeftOuter) {
      return std::make_unique<ColumnHashJoinOp>(
          db->column_index(t), snap, std::move(scan_filter), std::move(proj),
          std::move(probe_keys), std::move(build), std::move(build_keys),
          type, attach, Slice(t, o, /*partition=*/true));
    }
    // Only inner and semi joins attach, so a filtered probe is a row scan.
    OperatorPtr scan;
    std::shared_ptr<RuntimeFilterSlot> slot;
    if (attach) {
      slot = std::make_shared<RuntimeFilterSlot>();
      slot->key_cols = probe_keys;
      auto row_scan = RowScan(t, o, /*partition=*/true,
                              std::move(scan_filter), std::move(proj));
      row_scan->SetRuntimeFilter(slot);
      scan = std::move(row_scan);
    } else {
      scan = Scan(t, o, /*partition=*/true, std::move(scan_filter),
                  std::move(proj));
    }
    auto join = std::make_unique<HashJoinOp>(
        std::move(scan), std::move(build), std::move(probe_keys),
        std::move(build_keys), type);
    if (slot != nullptr) {
      join->SetRuntimeFilterSource(std::move(slot),
                                   size_t(build_rows_est) + 16);
    }
    return join;
  }

  /// The task's bucket of `ex`: the leaf of a fragment's final stage.
  /// Producer p of the exchange is `producer` run with the ScanOptions of
  /// task p, i.e. the fragment's partial stage for task p's share.
  OperatorPtr Shuffle(
      const SharedExchange& ex, const ScanOptions& o,
      std::function<OperatorPtr(const ScanOptions&)> producer) const {
    return std::make_unique<ExchangeSourceOp>(
        ex, o.task, o.num_tasks,
        [o, producer = std::move(producer)](int p) {
          ScanOptions po = o;
          po.task = p;
          return producer(po);
        });
  }

  /// Task `o`'s handle on the build side of a shared join site: `table`,
  /// filled from one slice per task, slice s being `slice` run with the
  /// ScanOptions of task s, as Shuffle runs its producers. `slice` scans
  /// its driving table with `partition` set, so the slices split the build
  /// side; a join inside it keeps its build side whole (a join's probe side
  /// distributes over a union), and shares it through its own table.
  JoinBuild SlicedBuild(
      const SharedBuild& table, const ScanOptions& o,
      std::function<OperatorPtr(const ScanOptions&)> slice) const {
    return JoinBuild(table, o.num_tasks,
                     [o, slice = std::move(slice)](int s) {
                       ScanOptions so = o;
                       so.task = s;
                       return slice(so);
                     });
  }

  /// Private build side of a join whose probe rows come from the task's
  /// partition of `probe`, on `probe_col` = `build`'s `build_col`
  /// (full-schema ids). `slice` runs the build subtree, driven by a
  /// partitioned scan of `build`, under the ScanOptions it is given. The
  /// catalog decides which: when the join is partition-wise (one table
  /// group, partitioned on these columns), the task's own, so the table
  /// holds the task's partition of `build`; otherwise one task's, so it
  /// holds all of `build`.
  JoinBuild PartitionBuild(
      const ScanOptions& o, Table probe, int probe_col, Table build,
      int build_col,
      const std::function<OperatorPtr(const ScanOptions&)>& slice) const {
    ScanOptions so = o;
    if (!db->PartitionWise(probe, probe_col, build, build_col)) {
      so.task = 0;
      so.num_tasks = 1;
    }
    return JoinBuild(slice(so));
  }

  /// PartitionBuild of a scan of `build`.
  JoinBuild PartitionScanBuild(const ScanOptions& o, Table probe,
                               int probe_col, Table build, int build_col,
                               ExprPtr filter, std::vector<int> proj) const {
    return PartitionBuild(
        o, probe, probe_col, build, build_col,
        [&](const ScanOptions& so) {
          return Scan(build, so, true, std::move(filter), std::move(proj));
        });
  }

  /// Index nested-loop join of `probe` with `t` on `t`'s primary key, read
  /// from `probe`'s column `key_col`, routed by `t`'s partition rule.
  OperatorPtr Lookup(OperatorPtr probe, Table t, int key_col) const {
    return std::make_unique<LookupJoinOp>(
        std::move(probe), db->shards(t), db->table_def(t).rule(),
        std::vector<ExprPtr>{E::Col(key_col)}, snap);
  }

  /// SlicedBuild of a scan of `t`.
  JoinBuild ScanBuild(const SharedBuild& table, const ScanOptions& o, Table t,
                      ExprPtr filter = nullptr,
                      std::vector<int> proj = {}) const {
    return SlicedBuild(table, o,
                       [qb = *this, t, filter, proj](const ScanOptions& so) {
                         return qb.Scan(t, so, true, filter, proj);
                       });
  }
};

OperatorPtr Join(OperatorPtr probe, JoinBuild build, std::vector<int> pk,
                 std::vector<int> bk, JoinType type = JoinType::kInner,
                 size_t build_width = 0) {
  return std::make_unique<HashJoinOp>(std::move(probe), std::move(build),
                                      std::move(pk), std::move(bk), type,
                                      build_width);
}

OperatorPtr Agg(OperatorPtr child, std::vector<ExprPtr> groups,
                std::vector<AggSpec> aggs,
                AggMode mode = AggMode::kComplete) {
  return std::make_unique<HashAggOp>(std::move(child), std::move(groups),
                                     std::move(aggs), mode);
}

OperatorPtr Filter(OperatorPtr child, ExprPtr pred) {
  return std::make_unique<FilterOp>(std::move(child), std::move(pred));
}

OperatorPtr Project(OperatorPtr child, std::vector<ExprPtr> exprs) {
  return std::make_unique<ProjectOp>(std::move(child), std::move(exprs));
}

OperatorPtr Sort(OperatorPtr child, std::vector<SortKey> keys,
                 size_t limit = 0) {
  return std::make_unique<SortOp>(std::move(child), std::move(keys), limit);
}

/// revenue term: price_col * (1 - disc_col)
ExprPtr Vol(int price_col, int disc_col) {
  return E::Arith(ArithOp::kMul, E::Col(price_col),
                  E::Arith(ArithOp::kSub, E::Lit(1.0), E::Col(disc_col)));
}

/// Group-by placeholder columns for final-mode aggregation (positional).
std::vector<ExprPtr> GroupCols(int n) {
  std::vector<ExprPtr> cols;
  for (int i = 0; i < n; ++i) cols.push_back(E::Col(i));
  return cols;
}

/// HAVING col > fraction * SUM(col): used by Q11.
class HavingFractionOp : public Operator {
 public:
  HavingFractionOp(OperatorPtr child, int col, double fraction)
      : child_(std::move(child)), col_(col), fraction_(fraction) {}
  Status Open() override {
    POLARX_ASSIGN_OR_RETURN(rows_, Collect(child_.get()));
    double total = 0;
    for (const auto& r : rows_) total += ValueAsDouble(r[col_]).ValueOr(0);
    threshold_ = total * fraction_;
    pos_ = 0;
    return Status::Ok();
  }
  Status Next(Batch* out) override {
    out->rows.clear();
    while (pos_ < rows_.size() && out->rows.size() < kExecBatchSize) {
      if (ValueAsDouble(rows_[pos_][col_]).ValueOr(0) > threshold_) {
        out->rows.push_back(std::move(rows_[pos_]));
      }
      ++pos_;
    }
    rows_produced_ += out->rows.size();
    return Status::Ok();
  }

 private:
  OperatorPtr child_;
  int col_;
  double fraction_;
  std::vector<Row> rows_;
  double threshold_ = 0;
  size_t pos_ = 0;
};

/// HAVING col = MAX(col): used by Q15.
class HavingMaxOp : public Operator {
 public:
  HavingMaxOp(OperatorPtr child, int col)
      : child_(std::move(child)), col_(col) {}
  Status Open() override {
    POLARX_ASSIGN_OR_RETURN(rows_, Collect(child_.get()));
    max_ = 0;
    for (const auto& r : rows_) {
      max_ = std::max(max_, ValueAsDouble(r[col_]).ValueOr(0));
    }
    pos_ = 0;
    return Status::Ok();
  }
  Status Next(Batch* out) override {
    out->rows.clear();
    while (pos_ < rows_.size() && out->rows.size() < kExecBatchSize) {
      if (ValueAsDouble(rows_[pos_][col_]).ValueOr(0) >= max_) {
        out->rows.push_back(std::move(rows_[pos_]));
      }
      ++pos_;
    }
    rows_produced_ += out->rows.size();
    return Status::Ok();
  }

 private:
  OperatorPtr child_;
  int col_;
  std::vector<Row> rows_;
  double max_ = 0;
  size_t pos_ = 0;
};

Value S(const char* s) { return Value{std::string(s)}; }

// The build side "nation joined with a region filter", projected to
// (n_nationkey, n_name), sliced by nation into `nation_b`.
JoinBuild NationOfRegion(const QB& qb, const SharedBuild& nation_b,
                         const ScanOptions& o, const char* region,
                         const SharedBuild& region_b) {
  return qb.SlicedBuild(
      nation_b, o, [qb, region, region_b](const ScanOptions& so) {
        // nation(nk, name, rk) JOIN region(rk) => width 4
        auto joined = Join(
            qb.Scan(kNation, so, true, nullptr,
                    {col::n_nationkey, col::n_name, col::n_regionkey}),
            qb.ScanBuild(region_b, so, kRegion,
                         E::ColCmp(CmpOp::kEq, col::r_name, S(region)),
                         {col::r_regionkey}),
            {2}, {0});
        return Project(std::move(joined), {E::Col(0), E::Col(1)});
      });
}

// ============================ queries =================================

TpchPlan Q1(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kLineItem};
  // Full-schema aggregate expressions (usable by scan+agg and by the
  // pushed-down column aggregation alike).
  std::vector<AggSpec> aggs = {
      {AggOp::kSum, E::Col(col::l_quantity)},
      {AggOp::kSum, E::Col(col::l_extendedprice)},
      {AggOp::kSum, Vol(col::l_extendedprice, col::l_discount)},
      {AggOp::kSum,
       E::Arith(ArithOp::kMul, Vol(col::l_extendedprice, col::l_discount),
                E::Arith(ArithOp::kAdd, E::Lit(1.0),
                         E::Col(col::l_tax)))},
      {AggOp::kAvg, E::Col(col::l_quantity)},
      {AggOp::kAvg, E::Col(col::l_extendedprice)},
      {AggOp::kAvg, E::Col(col::l_discount)},
      {AggOp::kCount, nullptr}};
  plan.fragment = [qb, aggs](const ScanOptions& o) {
    return qb.AggScan(
        kLineItem, o,
        E::ColCmp(CmpOp::kLe, col::l_shipdate, Days(1998, 9, 2)),
        {col::l_returnflag, col::l_linestatus}, aggs, AggMode::kPartial);
  };
  plan.merge = [aggs](OperatorPtr gathered) {
    return Sort(Agg(std::move(gathered), GroupCols(2), aggs,
                    AggMode::kFinal),
                {{0, true}, {1, true}});
  };
  return plan;
}

TpchPlan Q2(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kPart, kPartSupp, kSupplier, kNation, kRegion};
  auto [part_b, supp_b, europe_b, region_b] =
      NewSharedBuilds(&plan, {kPart, kSupplier, kNation, kRegion});
  // The full Q2 join, projected to the columns the query outputs plus the
  // (ps_partkey, ps_supplycost) pair used for the min-cost correlation:
  // out: ps_pk0 cost1 s_acctbal2 s_name3 n_name4 p_mfgr5 s_addr6 s_phone7
  //      s_comment8
  plan.fragment = [qb, part_b, supp_b, europe_b,
                   region_b](const ScanOptions& o) {
    auto part = qb.ScanBuild(
        part_b, o, kPart,
        E::And(E::ColCmp(CmpOp::kEq, col::p_size, int64_t{15}),
               E::Contains(E::Col(col::p_type), "BRASS")),
        {col::p_partkey, col::p_mfgr});
    // partsupp(pk0 sk1 qty2 cost3) x part(p_pk4 mfgr5)
    auto j1 = Join(qb.Scan(kPartSupp, o, true), std::move(part), {0}, {0});
    // + supplier at 6..12
    auto j2 =
        Join(std::move(j1), qb.ScanBuild(supp_b, o, kSupplier), {1}, {0});
    // + nation(EUROPE) at 13,14
    auto j3 = Join(std::move(j2),
                   NationOfRegion(qb, europe_b, o, "EUROPE", region_b), {9},
                   {0});
    return Project(std::move(j3),
                   {E::Col(0), E::Col(3), E::Col(11), E::Col(7), E::Col(14),
                    E::Col(5), E::Col(8), E::Col(10), E::Col(12)});
  };
  plan.merge = [](OperatorPtr gathered) {
    return std::make_unique<SubplanOp>(
        std::move(gathered), [](std::vector<Row> rows) -> OperatorPtr {
          auto mins = Agg(std::make_unique<ValuesOp>(rows),
                          {E::Col(0)}, {{AggOp::kMin, E::Col(1)}});
          auto joined = Join(std::make_unique<ValuesOp>(std::move(rows)),
                             std::move(mins), {0, 1}, {0, 1},
                             JoinType::kLeftSemi);
          // output: s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_addr,
          // s_phone, s_comment
          auto projected = Project(
              std::move(joined),
              {E::Col(2), E::Col(3), E::Col(4), E::Col(0), E::Col(5),
               E::Col(6), E::Col(7), E::Col(8)});
          return Sort(std::move(projected),
                      {{0, false}, {2, true}, {1, true}, {3, true}}, 100);
        });
  };
  return plan;
}

TpchPlan Q3(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kCustomer, kOrders, kLineItem};
  int64_t date = Days(1995, 3, 15);
  std::vector<AggSpec> aggs = {{AggOp::kSum, Vol(1, 2)}};
  auto [cust_b] = NewSharedBuilds(&plan, {kCustomer});
  plan.fragment = [qb, date, aggs, cust_b](const ScanOptions& o) {
    // oc: ok0 ck1 odate2 prio3 cck4
    auto oc = qb.PartitionBuild(
        o, kLineItem, col::l_orderkey, kOrders, col::o_orderkey,
        [qb, date, cust_b](const ScanOptions& so) {
          auto orders = qb.Scan(kOrders, so, true,
                                E::ColCmp(CmpOp::kLt, col::o_orderdate, date),
                                {col::o_orderkey, col::o_custkey,
                                 col::o_orderdate, col::o_shippriority});
          auto cust = qb.ScanBuild(cust_b, so, kCustomer,
                                   E::ColCmp(CmpOp::kEq, col::c_mktsegment,
                                             S("BUILDING")),
                                   {col::c_custkey});
          return Join(std::move(orders), std::move(cust), {1}, {0});
        });
    // j: lok0 ext1 disc2 ok3 ck4 odate5 prio6 cck7
    // build = BUILDING customers' pre-date orders (~1/5 segment x ~48%).
    auto j = qb.ScanJoin(kLineItem, o,
                         E::ColCmp(CmpOp::kGt, col::l_shipdate, date),
                         {col::l_orderkey, col::l_extendedprice,
                          col::l_discount},
                         {0}, std::move(oc), {0}, JoinType::kInner,
                         double(qb.db->row_count(kOrders)) * 0.096,
                         double(qb.db->row_count(kOrders)));
    return Agg(std::move(j), {E::Col(0), E::Col(5), E::Col(6)}, aggs,
               AggMode::kPartial);
  };
  plan.merge = [aggs](OperatorPtr gathered) {
    auto final_agg =
        Agg(std::move(gathered), GroupCols(3), aggs, AggMode::kFinal);
    // cols: ok0 odate1 prio2 rev3
    auto sorted = Sort(std::move(final_agg), {{3, false}, {1, true}}, 10);
    return Project(std::move(sorted),
                   {E::Col(0), E::Col(3), E::Col(1), E::Col(2)});
  };
  return plan;
}

TpchPlan Q4(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kOrders, kLineItem};
  int64_t lo = Days(1993, 7, 1), hi = Days(1993, 10, 1);
  std::vector<AggSpec> count = {{AggOp::kCount, nullptr}};
  plan.fragment = [qb, lo, hi, count](const ScanOptions& o) {
    // The task's qualifying orders semi-join its late lineitems, a
    // partition-wise join: each order meets all of its lines in one task,
    // so the task counts its orders by priority.
    auto orders = qb.Scan(
        kOrders, o, true,
        E::And(E::ColCmp(CmpOp::kGe, col::o_orderdate, lo),
               E::ColCmp(CmpOp::kLt, col::o_orderdate, hi)),
        {col::o_orderkey, col::o_orderpriority});
    auto line = qb.PartitionScanBuild(
        o, kOrders, col::o_orderkey, kLineItem, col::l_orderkey,
        E::Cmp(CmpOp::kLt, E::Col(col::l_commitdate),
               E::Col(col::l_receiptdate)),
        {col::l_orderkey});
    auto semi = Join(std::move(orders), std::move(line), {0}, {0},
                     JoinType::kLeftSemi);
    return Agg(std::move(semi), {E::Col(1)}, count, AggMode::kPartial);
  };
  plan.merge = [count](OperatorPtr gathered) {
    return Sort(Agg(std::move(gathered), GroupCols(1), count,
                    AggMode::kFinal),
                {{0, true}});
  };
  return plan;
}

TpchPlan Q5(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kCustomer, kOrders, kLineItem, kSupplier, kNation, kRegion};
  int64_t lo = Days(1994, 1, 1), hi = Days(1995, 1, 1);
  std::vector<AggSpec> aggs = {{AggOp::kSum, Vol(2, 3)}};
  auto [cust_b, supp_b, asia_b, region_b] =
      NewSharedBuilds(&plan, {kCustomer, kSupplier, kNation, kRegion});
  plan.fragment = [qb, lo, hi, aggs, cust_b, supp_b, asia_b,
                   region_b](const ScanOptions& o) {
    // oc: ok0 ck1 cck2 cnk3
    auto oc = qb.PartitionBuild(
        o, kLineItem, col::l_orderkey, kOrders, col::o_orderkey,
        [qb, lo, hi, cust_b](const ScanOptions& so) {
          auto orders = qb.Scan(
              kOrders, so, true,
              E::And(E::ColCmp(CmpOp::kGe, col::o_orderdate, lo),
                     E::ColCmp(CmpOp::kLt, col::o_orderdate, hi)),
              {col::o_orderkey, col::o_custkey});
          auto cust = qb.ScanBuild(cust_b, so, kCustomer, nullptr,
                                   {col::c_custkey, col::c_nationkey});
          return Join(std::move(orders), std::move(cust), {1}, {0});
        });
    // j: lok0 lsk1 ext2 disc3 ok4 ck5 cck6 cnk7
    // build = one year of orders (~1/7 of the date range).
    auto j = qb.ScanJoin(kLineItem, o, nullptr,
                         {col::l_orderkey, col::l_suppkey,
                          col::l_extendedprice, col::l_discount},
                         {0}, std::move(oc), {0}, JoinType::kInner,
                         double(qb.db->row_count(kOrders)) / 7.0,
                         double(qb.db->row_count(kOrders)));
    auto supp = qb.ScanBuild(supp_b, o, kSupplier, nullptr,
                             {col::s_suppkey, col::s_nationkey});
    // j2: + ssk8 snk9 ; join requires s_nationkey == c_nationkey
    auto j2 = Join(std::move(j), std::move(supp), {1, 7}, {0, 1});
    // j3: + nk10 nname11
    auto j3 = Join(std::move(j2),
                   NationOfRegion(qb, asia_b, o, "ASIA", region_b), {9}, {0});
    return Agg(std::move(j3), {E::Col(11)}, aggs, AggMode::kPartial);
  };
  plan.merge = [aggs](OperatorPtr gathered) {
    return Sort(Agg(std::move(gathered), GroupCols(1), aggs,
                    AggMode::kFinal),
                {{1, false}});
  };
  return plan;
}

TpchPlan Q6(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kLineItem};
  int64_t lo = Days(1994, 1, 1), hi = Days(1995, 1, 1);
  std::vector<AggSpec> aggs = {
      {AggOp::kSum, E::Arith(ArithOp::kMul, E::Col(col::l_extendedprice),
                             E::Col(col::l_discount))}};
  plan.fragment = [qb, lo, hi, aggs](const ScanOptions& o) {
    auto filter =
        E::And(E::And(E::ColCmp(CmpOp::kGe, col::l_shipdate, lo),
                      E::ColCmp(CmpOp::kLt, col::l_shipdate, hi)),
               E::And(E::Between(col::l_discount, 0.05, 0.07),
                      E::ColCmp(CmpOp::kLt, col::l_quantity, 24.0)));
    return qb.AggScan(kLineItem, o, std::move(filter), {}, aggs,
                      AggMode::kPartial);
  };
  plan.merge = [aggs](OperatorPtr gathered) {
    return Agg(std::move(gathered), {}, aggs, AggMode::kFinal);
  };
  return plan;
}

TpchPlan Q7(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kSupplier, kLineItem, kOrders, kCustomer, kNation};
  std::vector<AggSpec> aggs = {{AggOp::kSum, Vol(2, 3)}};
  auto [supp_nation_b, cust_nation_b, cust_b, supp_b] =
      NewSharedBuilds(&plan, {kNation, kNation, kCustomer, kSupplier});
  plan.fragment = [qb, aggs, supp_nation_b, cust_nation_b, cust_b,
                   supp_b](const ScanOptions& o) {
    auto nations_filter = E::Or(
        E::ColCmp(CmpOp::kEq, col::n_name, S("FRANCE")),
        E::ColCmp(CmpOp::kEq, col::n_name, S("GERMANY")));
    // ocn: ok0 ck1 + cn 2..5 (cck2 cnk3 nk4 cnname5)
    auto ocn = qb.PartitionBuild(
        o, kLineItem, col::l_orderkey, kOrders, col::o_orderkey,
        [qb, nations_filter, cust_b, cust_nation_b](const ScanOptions& so) {
          // cn: ck0 cnk1 nk2 nname3
          auto cn = qb.SlicedBuild(
              cust_b, so,
              [qb, nations_filter, cust_nation_b](const ScanOptions& cso) {
                return Join(qb.Scan(kCustomer, cso, true, nullptr,
                                    {col::c_custkey, col::c_nationkey}),
                            qb.ScanBuild(cust_nation_b, cso, kNation,
                                         nations_filter,
                                         {col::n_nationkey, col::n_name}),
                            {1}, {0});
              });
          return Join(qb.Scan(kOrders, so, true, nullptr,
                              {col::o_orderkey, col::o_custkey}),
                      std::move(cn), {1}, {0});
        });
    // j: lok0 lsk1 ext2 disc3 sdate4 + ocn 5..10 (cnname at 10)
    // build = orders of FRANCE/GERMANY customers (2/25 nations).
    auto j = qb.ScanJoin(
        kLineItem, o,
        E::Between(col::l_shipdate, Days(1995, 1, 1), Days(1996, 12, 31)),
        {col::l_orderkey, col::l_suppkey, col::l_extendedprice,
         col::l_discount, col::l_shipdate},
        {0}, std::move(ocn), {0}, JoinType::kInner,
        double(qb.db->row_count(kOrders)) * 0.08,
        double(qb.db->row_count(kOrders)));
    // sn: ssk0 snk1 nk2 nname3
    auto sn = qb.SlicedBuild(
        supp_b, o, [qb, nations_filter, supp_nation_b](const ScanOptions& so) {
          return Join(qb.Scan(kSupplier, so, true, nullptr,
                              {col::s_suppkey, col::s_nationkey}),
                      qb.ScanBuild(supp_nation_b, so, kNation, nations_filter,
                                   {col::n_nationkey, col::n_name}),
                      {1}, {0});
        });
    // j2: + sn 11..14 (snname at 14)
    auto j2 = Join(std::move(j), std::move(sn), {1}, {0});
    auto cross = Filter(
        std::move(j2),
        E::Or(E::And(E::ColCmp(CmpOp::kEq, 14, S("FRANCE")),
                     E::ColCmp(CmpOp::kEq, 10, S("GERMANY"))),
              E::And(E::ColCmp(CmpOp::kEq, 14, S("GERMANY")),
                     E::ColCmp(CmpOp::kEq, 10, S("FRANCE")))));
    return Agg(std::move(cross),
               {E::Col(14), E::Col(10), E::Year(E::Col(4))}, aggs,
               AggMode::kPartial);
  };
  plan.merge = [aggs](OperatorPtr gathered) {
    return Sort(Agg(std::move(gathered), GroupCols(3), aggs,
                    AggMode::kFinal),
                {{0, true}, {1, true}, {2, true}});
  };
  return plan;
}

TpchPlan Q8(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kPart, kSupplier, kLineItem, kOrders, kCustomer, kNation,
                 kRegion};
  auto [part_b, america_b, region_b, cust_b, supp_b, nation_b] =
      NewSharedBuilds(&plan,
                      {kPart, kNation, kRegion, kCustomer, kSupplier, kNation});
  plan.fragment = [qb, part_b, america_b, region_b, cust_b, supp_b,
                   nation_b](const ScanOptions& o) {
    auto part = qb.ScanBuild(part_b, o, kPart,
                             E::ColCmp(CmpOp::kEq, col::p_type,
                                       S("ECONOMY ANODIZED STEEL")),
                             {col::p_partkey});
    // lp: lok0 lpk1 lsk2 ext3 disc4 ppk5
    // build = one of 150 part types: the textbook runtime-filter join
    // (~0.7% of lineitems survive the partkey filter).
    auto lp = qb.ScanJoin(kLineItem, o, nullptr,
                          {col::l_orderkey, col::l_partkey, col::l_suppkey,
                           col::l_extendedprice, col::l_discount},
                          {1}, std::move(part), {0}, JoinType::kInner,
                          double(qb.db->row_count(kPart)) / 150.0,
                          double(qb.db->row_count(kPart)));
    auto orders = qb.PartitionScanBuild(
        o, kLineItem, col::l_orderkey, kOrders, col::o_orderkey,
        E::Between(col::o_orderdate, Days(1995, 1, 1), Days(1996, 12, 31)),
        {col::o_orderkey, col::o_custkey, col::o_orderdate});
    // lpo: +ook6 ock7 odate8
    auto lpo = Join(std::move(lp), std::move(orders), {0}, {0});
    // cnr: ck0 cnk1 nk2 nname3 (nation of AMERICA)
    auto cnr = qb.SlicedBuild(
        cust_b, o, [qb, america_b, region_b](const ScanOptions& so) {
          return Join(qb.Scan(kCustomer, so, true, nullptr,
                              {col::c_custkey, col::c_nationkey}),
                      NationOfRegion(qb, america_b, so, "AMERICA", region_b),
                      {1}, {0});
        });
    // j: +ck9 cnk10 nk11 nname12
    auto j = Join(std::move(lpo), std::move(cnr), {7}, {0});
    // supplier: +ssk13 snk14
    auto j2 = Join(std::move(j),
                   qb.ScanBuild(supp_b, o, kSupplier, nullptr,
                                {col::s_suppkey, col::s_nationkey}),
                   {2}, {0});
    // supplier nation: +nk15 nname16
    auto j3 = Join(std::move(j2),
                   qb.ScanBuild(nation_b, o, kNation, nullptr,
                                {col::n_nationkey, col::n_name}),
                   {14}, {0});
    auto proj = Project(std::move(j3),
                        {E::Col(8), E::Col(3), E::Col(4), E::Col(16)});
    // now: odate0 ext1 disc2 suppnation3
    std::vector<AggSpec> local_aggs = {
        {AggOp::kSum,
         E::Case(E::ColCmp(CmpOp::kEq, 3, S("BRAZIL")), Vol(1, 2),
                 E::Lit(0.0))},
        {AggOp::kSum, Vol(1, 2)}};
    return Agg(std::move(proj), {E::Year(E::Col(0))}, local_aggs,
               AggMode::kPartial);
  };
  plan.merge = [](OperatorPtr gathered) {
    std::vector<AggSpec> local_aggs = {{AggOp::kSum, nullptr},
                                       {AggOp::kSum, nullptr}};
    auto final_agg =
        Agg(std::move(gathered), GroupCols(1), local_aggs, AggMode::kFinal);
    auto share = Project(std::move(final_agg),
                         {E::Col(0), E::Arith(ArithOp::kDiv, E::Col(1),
                                              E::Col(2))});
    return Sort(std::move(share), {{0, true}});
  };
  return plan;
}

TpchPlan Q9(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kPart, kLineItem, kPartSupp, kSupplier, kOrders, kNation};
  auto [part_b, partsupp_b, ps_part_b, supp_b, nation_b] = NewSharedBuilds(
      &plan, {kPart, kPartSupp, kPart, kSupplier, kNation});
  // The "green" parts: the lineitems join them, and the partsupp build
  // keeps only theirs, since every lineitem that probes it is of a green
  // part. As in Q20, each site builds its own table. p_name is two of 10
  // colors, so 1 - 0.9^2 = 19% of names contain "green".
  const double parts = double(qb.db->row_count(kPart));
  auto green = [qb](const SharedBuild& b, const ScanOptions& o) {
    return qb.ScanBuild(b, o, kPart,
                        E::Contains(E::Col(col::p_name), "green"),
                        {col::p_partkey});
  };
  plan.fragment = [qb, part_b, partsupp_b, ps_part_b, supp_b, nation_b,
                   green, parts](const ScanOptions& o) {
    // lp: lok0 lpk1 lsk2 qty3 ext4 disc5 ppk6
    auto lp = qb.ScanJoin(kLineItem, o, nullptr,
                          {col::l_orderkey, col::l_partkey, col::l_suppkey,
                           col::l_quantity, col::l_extendedprice,
                           col::l_discount},
                          {1}, green(part_b, o), {0}, JoinType::kInner,
                          parts * 0.19, parts);
    // the green parts' partsupp rows: pspk0 pssk1 cost2
    auto ps = qb.SlicedBuild(
        partsupp_b, o, [qb, green, ps_part_b, parts](const ScanOptions& so) {
          return qb.ScanJoin(kPartSupp, so, nullptr,
                             {col::ps_partkey, col::ps_suppkey,
                              col::ps_supplycost},
                             {0}, green(ps_part_b, so), {0},
                             JoinType::kLeftSemi, parts * 0.19, parts);
        });
    // j2: +pspk7 pssk8 cost9
    auto j2 = Join(std::move(lp), std::move(ps), {1, 2}, {0, 1});
    // j3: +ssk10 snk11
    auto j3 = Join(std::move(j2),
                   qb.ScanBuild(supp_b, o, kSupplier, nullptr,
                                {col::s_suppkey, col::s_nationkey}),
                   {2}, {0});
    // j4: +ook12 odate13
    auto j4 = Join(std::move(j3),
                   qb.PartitionScanBuild(o, kLineItem, col::l_orderkey,
                                         kOrders, col::o_orderkey, nullptr,
                                         {col::o_orderkey, col::o_orderdate}),
                   {0}, {0});
    // j5: +nk14 nname15
    auto j5 = Join(std::move(j4),
                   qb.ScanBuild(nation_b, o, kNation, nullptr,
                                {col::n_nationkey, col::n_name}),
                   {11}, {0});
    std::vector<AggSpec> aggs = {
        {AggOp::kSum,
         E::Arith(ArithOp::kSub, Vol(4, 5),
                  E::Arith(ArithOp::kMul, E::Col(9), E::Col(3)))}};
    return Agg(std::move(j5), {E::Col(15), E::Year(E::Col(13))}, aggs,
               AggMode::kPartial);
  };
  plan.merge = [](OperatorPtr gathered) {
    std::vector<AggSpec> aggs = {{AggOp::kSum, nullptr}};
    return Sort(Agg(std::move(gathered), GroupCols(2), aggs,
                    AggMode::kFinal),
                {{0, true}, {1, false}});
  };
  return plan;
}

TpchPlan Q10(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kCustomer, kOrders, kLineItem, kNation};
  int64_t lo = Days(1993, 10, 1), hi = Days(1994, 1, 1);
  std::vector<AggSpec> aggs = {{AggOp::kSum, Vol(1, 2)}};
  auto [cust_b, nation_b] = NewSharedBuilds(&plan, {kCustomer, kNation});
  SharedExchange by_customer = NewExchange(&plan, {0});
  auto partial = [qb, lo, hi, aggs, cust_b, nation_b](const ScanOptions& o) {
    // oc: ok0 ck1 + customer 2..9
    auto oc = qb.PartitionBuild(
        o, kLineItem, col::l_orderkey, kOrders, col::o_orderkey,
        [qb, lo, hi, cust_b](const ScanOptions& so) {
          auto orders = qb.Scan(
              kOrders, so, true,
              E::And(E::ColCmp(CmpOp::kGe, col::o_orderdate, lo),
                     E::ColCmp(CmpOp::kLt, col::o_orderdate, hi)),
              {col::o_orderkey, col::o_custkey});
          return Join(std::move(orders), qb.ScanBuild(cust_b, so, kCustomer),
                      {1}, {0});
        });
    // j: lok0 ext1 disc2 ok3 ck4 c_ck5 c_name6 c_addr7 c_nk8 c_phone9
    //    c_acct10 c_seg11 c_comm12
    // build = one quarter of orders (~3.8%).
    auto j = qb.ScanJoin(kLineItem, o,
                         E::ColCmp(CmpOp::kEq, col::l_returnflag, S("R")),
                         {col::l_orderkey, col::l_extendedprice,
                          col::l_discount},
                         {0}, std::move(oc), {0}, JoinType::kInner,
                         double(qb.db->row_count(kOrders)) * 0.038,
                         double(qb.db->row_count(kOrders)));
    // j2: +nk13 nname14
    auto j2 = Join(std::move(j),
                   qb.ScanBuild(nation_b, o, kNation, nullptr,
                                {col::n_nationkey, col::n_name}),
                   {8}, {0});
    return Agg(std::move(j2),
               {E::Col(5), E::Col(6), E::Col(10), E::Col(9), E::Col(14),
                E::Col(7), E::Col(12)},
               aggs, AggMode::kPartial);
  };
  // Partials shuffled by c_custkey: each task finishes its customers and
  // keeps their top 20; the merge picks the top 20 of those lists.
  plan.fragment = [qb, aggs, by_customer, partial](const ScanOptions& o) {
    return Sort(Agg(qb.Shuffle(by_customer, o, partial), GroupCols(7), aggs,
                    AggMode::kFinal),
                {{7, false}}, 20);
  };
  plan.merge = [](OperatorPtr gathered) {
    return Sort(std::move(gathered), {{7, false}}, 20);
  };
  return plan;
}

TpchPlan Q11(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kPartSupp, kSupplier, kNation};
  double fraction = 0.0001 / qb.db->config().scale;
  std::vector<AggSpec> aggs = {
      {AggOp::kSum, E::Arith(ArithOp::kMul, E::Col(3), E::Col(2))}};
  auto [nation_b, supp_b] = NewSharedBuilds(&plan, {kNation, kSupplier});
  plan.fragment = [qb, aggs, nation_b, supp_b](const ScanOptions& o) {
    auto sn = qb.SlicedBuild(
        supp_b, o, [qb, nation_b](const ScanOptions& so) {
          return Join(qb.Scan(kSupplier, so, true, nullptr,
                              {col::s_suppkey, col::s_nationkey}),
                      qb.ScanBuild(nation_b, so, kNation,
                                   E::ColCmp(CmpOp::kEq, col::n_name,
                                             S("GERMANY")),
                                   {col::n_nationkey}),
                      {1}, {0});
        });
    // ps(pk0 sk1 qty2 cost3) semi-join German suppliers
    auto j = Join(qb.Scan(kPartSupp, o, true), std::move(sn), {1}, {0},
                  JoinType::kLeftSemi);
    return Agg(std::move(j), {E::Col(0)}, aggs, AggMode::kPartial);
  };
  plan.merge = [aggs, fraction](OperatorPtr gathered) {
    auto final_agg =
        Agg(std::move(gathered), GroupCols(1), aggs, AggMode::kFinal);
    auto having = std::make_unique<HavingFractionOp>(std::move(final_agg),
                                                     1, fraction);
    return Sort(std::move(having), {{1, false}});
  };
  return plan;
}

TpchPlan Q12(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kOrders, kLineItem};
  int64_t lo = Days(1994, 1, 1), hi = Days(1995, 1, 1);
  auto high_prio = E::Or(E::ColCmp(CmpOp::kEq, 3, S("1-URGENT")),
                         E::ColCmp(CmpOp::kEq, 3, S("2-HIGH")));
  std::vector<AggSpec> aggs = {
      {AggOp::kSum, E::Case(high_prio, E::Lit(int64_t{1}),
                            E::Lit(int64_t{0}))},
      {AggOp::kSum, E::Case(E::Not(high_prio), E::Lit(int64_t{1}),
                            E::Lit(int64_t{0}))}};
  plan.fragment = [qb, lo, hi, aggs](const ScanOptions& o) {
    auto filter = E::And(
        E::And(E::In(E::Col(col::l_shipmode), {S("MAIL"), S("SHIP")}),
               E::And(E::Cmp(CmpOp::kLt, E::Col(col::l_commitdate),
                             E::Col(col::l_receiptdate)),
                      E::Cmp(CmpOp::kLt, E::Col(col::l_shipdate),
                             E::Col(col::l_commitdate)))),
        E::And(E::ColCmp(CmpOp::kGe, col::l_receiptdate, lo),
               E::ColCmp(CmpOp::kLt, col::l_receiptdate, hi)));
    // j: lok0 mode1 ok2 prio3
    // build = ALL orders (unfiltered FK side): the cost model declines the
    // runtime filter, but the column-native join still applies.
    auto j = qb.ScanJoin(kLineItem, o, std::move(filter),
                         {col::l_orderkey, col::l_shipmode}, {0},
                         qb.PartitionScanBuild(
                             o, kLineItem, col::l_orderkey, kOrders,
                             col::o_orderkey, nullptr,
                             {col::o_orderkey, col::o_orderpriority}),
                         {0}, JoinType::kInner,
                         double(qb.db->row_count(kOrders)),
                         double(qb.db->row_count(kOrders)));
    return Agg(std::move(j), {E::Col(1)}, aggs, AggMode::kPartial);
  };
  plan.merge = [aggs](OperatorPtr gathered) {
    return Sort(Agg(std::move(gathered), GroupCols(1), aggs,
                    AggMode::kFinal),
                {{0, true}});
  };
  return plan;
}

TpchPlan Q13(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kCustomer, kOrders};
  std::vector<AggSpec> count_aggs = {{AggOp::kCount, nullptr}};
  SharedExchange counts_by_customer = NewExchange(&plan, {0}),
                 customers_by_key = NewExchange(&plan, {0});
  auto order_counts = [qb, count_aggs](const ScanOptions& o) {
    return qb.AggScan(kOrders, o,
                      E::Not(E::Contains(E::Col(col::o_comment), "special")),
                      {col::o_custkey}, count_aggs, AggMode::kPartial);
  };
  auto customers = [qb](const ScanOptions& o) {
    return qb.Scan(kCustomer, o, true, nullptr, {col::c_custkey});
  };
  // Order counts and customers shuffled by custkey: each customer lands in
  // one task, with all of its orders' counts, so the outer join and the
  // per-customer count run in every task.
  plan.fragment = [qb, count_aggs, counts_by_customer, customers_by_key,
                   order_counts, customers](const ScanOptions& o) {
    auto counts = Agg(qb.Shuffle(counts_by_customer, o, order_counts),
                      GroupCols(1), count_aggs, AggMode::kFinal);
    // left outer: ck0 ck1(null) cnt2(null)
    auto oj = Join(qb.Shuffle(customers_by_key, o, customers),
                   std::move(counts), {0}, {0}, JoinType::kLeftOuter, 2);
    auto c_count = Project(
        std::move(oj),
        {E::Case(E::IsNull(E::Col(2)), E::Lit(int64_t{0}), E::Col(2))});
    return Agg(std::move(c_count), {E::Col(0)}, count_aggs,
               AggMode::kPartial);
  };
  plan.merge = [count_aggs](OperatorPtr gathered) {
    auto dist =
        Agg(std::move(gathered), GroupCols(1), count_aggs, AggMode::kFinal);
    return Sort(std::move(dist), {{1, false}, {0, false}});
  };
  return plan;
}

TpchPlan Q14(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kLineItem, kPart};
  int64_t lo = Days(1995, 9, 1), hi = Days(1995, 10, 1);
  // j: lpk0 ext1 disc2 ppk3 type4
  std::vector<AggSpec> aggs = {
      {AggOp::kSum, E::Case(E::StartsWith(E::Col(4), "PROMO"), Vol(1, 2),
                            E::Lit(0.0))},
      {AggOp::kSum, Vol(1, 2)}};
  auto [part_b] = NewSharedBuilds(&plan, {kPart});
  plan.fragment = [qb, lo, hi, aggs, part_b](const ScanOptions& o) {
    // build = ALL parts: no runtime filter, but the column-native join
    // applies (Q19's shape).
    auto j = qb.ScanJoin(
        kLineItem, o,
        E::And(E::ColCmp(CmpOp::kGe, col::l_shipdate, lo),
               E::ColCmp(CmpOp::kLt, col::l_shipdate, hi)),
        {col::l_partkey, col::l_extendedprice, col::l_discount}, {0},
        qb.ScanBuild(part_b, o, kPart, nullptr,
                     {col::p_partkey, col::p_type}),
        {0}, JoinType::kInner, double(qb.db->row_count(kPart)),
        double(qb.db->row_count(kPart)));
    return Agg(std::move(j), {}, aggs, AggMode::kPartial);
  };
  plan.merge = [aggs](OperatorPtr gathered) {
    auto agg = Agg(std::move(gathered), {}, aggs, AggMode::kFinal);
    return Project(std::move(agg),
                   {E::Arith(ArithOp::kDiv,
                             E::Arith(ArithOp::kMul, E::Lit(100.0),
                                      E::Col(0)),
                             E::Col(1))});
  };
  return plan;
}

TpchPlan Q15(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kLineItem, kSupplier};
  int64_t lo = Days(1996, 1, 1), hi = Days(1996, 4, 1);
  std::vector<AggSpec> aggs = {
      {AggOp::kSum, Vol(col::l_extendedprice, col::l_discount)}};
  plan.fragment = [qb, lo, hi, aggs](const ScanOptions& o) {
    return qb.AggScan(kLineItem, o,
                      E::And(E::ColCmp(CmpOp::kGe, col::l_shipdate, lo),
                             E::ColCmp(CmpOp::kLt, col::l_shipdate, hi)),
                      {col::l_suppkey}, aggs, AggMode::kPartial);
  };
  plan.merge = [qb, aggs](OperatorPtr gathered) {
    auto revenue =
        Agg(std::move(gathered), GroupCols(1), aggs, AggMode::kFinal);
    auto top = std::make_unique<HavingMaxOp>(std::move(revenue), 1);
    // §VII-C: supplier's primary key looked up via index nested-loop join.
    auto j = qb.Lookup(std::move(top), kSupplier, 0);
    // cols: sk0 rev1 s...2..8
    auto projected = Project(std::move(j),
                             {E::Col(0), E::Col(3), E::Col(4), E::Col(6),
                              E::Col(1)});
    return Sort(std::move(projected), {{0, true}});
  };
  return plan;
}

TpchPlan Q16(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kPartSupp, kPart, kSupplier};
  std::vector<AggSpec> count_aggs = {{AggOp::kCount, nullptr}};
  auto [part_b, complaints_b] = NewSharedBuilds(&plan, {kPart, kSupplier});
  SharedExchange by_brand_type_size = NewExchange(&plan, {0, 1, 2});
  auto partial = [qb, count_aggs, part_b,
                  complaints_b](const ScanOptions& o) {
    auto part = qb.ScanBuild(
        part_b, o, kPart,
        E::And(E::And(E::Not(E::ColCmp(CmpOp::kEq, col::p_brand,
                                       S("Brand#45"))),
                      E::Not(E::StartsWith(E::Col(col::p_type),
                                           "MEDIUM POLISHED"))),
               E::In(E::Col(col::p_size),
                     {Value{int64_t{49}}, Value{int64_t{14}},
                      Value{int64_t{23}}, Value{int64_t{45}},
                      Value{int64_t{19}}, Value{int64_t{3}},
                      Value{int64_t{36}}, Value{int64_t{9}}})),
        {col::p_partkey, col::p_brand, col::p_type, col::p_size});
    auto ps = qb.Scan(kPartSupp, o, true, nullptr,
                      {col::ps_partkey, col::ps_suppkey});
    // j: pspk0 pssk1 ppk2 brand3 type4 size5
    auto j = Join(std::move(ps), std::move(part), {0}, {0});
    auto bad = qb.ScanBuild(complaints_b, o, kSupplier,
                            E::Contains(E::Col(col::s_comment),
                                        "Customer Complaints"),
                            {col::s_suppkey});
    auto cleaned =
        Join(std::move(j), std::move(bad), {1}, {0}, JoinType::kLeftAnti);
    // distinct (brand,type,size,suppkey)
    return Agg(std::move(cleaned),
               {E::Col(3), E::Col(4), E::Col(5), E::Col(1)}, count_aggs,
               AggMode::kPartial);
  };
  // Partials shuffled by (brand, type, size): every supplier of a group
  // lands in one task, which counts the group's distinct suppliers.
  plan.fragment = [qb, count_aggs, by_brand_type_size,
                   partial](const ScanOptions& o) {
    auto distinct = Agg(qb.Shuffle(by_brand_type_size, o, partial),
                        GroupCols(4), count_aggs, AggMode::kFinal);
    return Agg(std::move(distinct), {E::Col(0), E::Col(1), E::Col(2)},
               {{AggOp::kCount, nullptr}});
  };
  plan.merge = [](OperatorPtr gathered) {
    return Sort(std::move(gathered),
                {{3, false}, {0, true}, {1, true}, {2, true}});
  };
  return plan;
}

TpchPlan Q17(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kLineItem, kPart};
  auto [part_b] = NewSharedBuilds(&plan, {kPart});
  plan.fragment = [qb, part_b](const ScanOptions& o) {
    auto part = qb.ScanBuild(
        part_b, o, kPart,
        E::And(E::ColCmp(CmpOp::kEq, col::p_brand, S("Brand#23")),
               E::ColCmp(CmpOp::kEq, col::p_container, S("MED BOX"))),
        {col::p_partkey});
    // lp: lpk0 qty1 ext2 ppk3
    // build = one (brand, container) combination: ~0.1% of parts.
    return qb.ScanJoin(kLineItem, o, nullptr,
                       {col::l_partkey, col::l_quantity,
                        col::l_extendedprice},
                       {0}, std::move(part), {0}, JoinType::kInner,
                       double(qb.db->row_count(kPart)) * 0.001,
                       double(qb.db->row_count(kPart)));
  };
  plan.merge = [](OperatorPtr gathered) {
    return std::make_unique<SubplanOp>(
        std::move(gathered), [](std::vector<Row> rows) -> OperatorPtr {
          auto avgs = Agg(std::make_unique<ValuesOp>(rows), {E::Col(0)},
                          {{AggOp::kAvg, E::Col(1)}});
          // join back: lpk0 qty1 ext2 ppk3 apk4 avg5
          auto j = Join(std::make_unique<ValuesOp>(std::move(rows)),
                        std::move(avgs), {0}, {0});
          auto small = Filter(
              std::move(j),
              E::Cmp(CmpOp::kLt, E::Col(1),
                     E::Arith(ArithOp::kMul, E::Lit(0.2), E::Col(5))));
          auto total = Agg(std::move(small), {},
                           {{AggOp::kSum, E::Col(2)}});
          return Project(std::move(total),
                         {E::Arith(ArithOp::kDiv, E::Col(0), E::Lit(7.0))});
        });
  };
  return plan;
}

TpchPlan Q18(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kLineItem, kOrders, kCustomer};
  std::vector<AggSpec> aggs = {{AggOp::kSum, E::Col(col::l_quantity)}};
  // lineitem is partitioned on l_orderkey, so the task's partition holds
  // whole orders: it sums them completely, fetches the big ones' rows and
  // keeps its top 100.
  plan.fragment = [qb, aggs](const ScanOptions& o) {
    auto sums = qb.AggScan(kLineItem, o, nullptr, {col::l_orderkey}, aggs,
                           AggMode::kComplete);
    auto big = Filter(std::move(sums),
                      E::ColCmp(CmpOp::kGt, 1, 300.0));
    // The handful of big orders and their customers are fetched by primary
    // key (§VII-C index nested-loop join), as in Q15.
    // j: ok0 qty1 + orders 2..9 (o_ck at 3, total at 5, odate at 6)
    auto j = qb.Lookup(std::move(big), kOrders, 0);
    // j2: + customer 10.. (c_ck10 c_name11)
    auto j2 = qb.Lookup(std::move(j), kCustomer, 3);
    auto sorted = Sort(std::move(j2), {{5, false}, {6, true}}, 100);
    return Project(std::move(sorted),
                   {E::Col(11), E::Col(10), E::Col(0), E::Col(6), E::Col(5),
                    E::Col(1)});
  };
  // out: c_name0 c_ck1 ok2 odate3 total4 qty5
  plan.merge = [](OperatorPtr gathered) {
    return Sort(std::move(gathered), {{4, false}, {3, true}}, 100);
  };
  return plan;
}

TpchPlan Q19(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kLineItem, kPart};
  std::vector<AggSpec> aggs = {{AggOp::kSum, Vol(2, 3)}};
  auto [part_b] = NewSharedBuilds(&plan, {kPart});
  plan.fragment = [qb, aggs, part_b](const ScanOptions& o) {
    // j: lpk0 qty1 ext2 disc3 + part: ppk4 brand5 size6 container7
    // build = ALL parts (the brand/container predicate applies after the
    // join): no runtime filter, but the column-native join applies.
    auto j = qb.ScanJoin(
        kLineItem, o,
        E::And(E::In(E::Col(col::l_shipmode), {S("AIR"), S("REG AIR")}),
               E::ColCmp(CmpOp::kEq, col::l_shipinstruct,
                         S("DELIVER IN PERSON"))),
        {col::l_partkey, col::l_quantity, col::l_extendedprice,
         col::l_discount},
        {0},
        qb.ScanBuild(part_b, o, kPart, nullptr,
                     {col::p_partkey, col::p_brand, col::p_size,
                      col::p_container}),
        {0}, JoinType::kInner, double(qb.db->row_count(kPart)),
        double(qb.db->row_count(kPart)));
    auto branch = [](const char* brand, std::vector<Value> containers,
                     double qlo, double qhi, int64_t smax) {
      return E::And(
          E::And(E::ColCmp(CmpOp::kEq, 5, S(brand)),
                 E::In(E::Col(7), std::move(containers))),
          E::And(E::Between(1, qlo, qhi),
                 E::Between(6, int64_t{1}, smax)));
    };
    auto pred = E::Or(
        branch("Brand#12",
               {S("SM CASE"), S("SM BOX"), S("SM PACK"), S("SM PKG")}, 1,
               11, 5),
        E::Or(branch("Brand#23",
                     {S("MED BAG"), S("MED BOX"), S("MED PKG"),
                      S("MED PACK")},
                     10, 20, 10),
              branch("Brand#34",
                     {S("LG CASE"), S("LG BOX"), S("LG PACK"), S("LG PKG")},
                     20, 30, 15)));
    return Agg(Filter(std::move(j), std::move(pred)), {}, aggs,
               AggMode::kPartial);
  };
  plan.merge = [aggs](OperatorPtr gathered) {
    return Agg(std::move(gathered), {}, aggs, AggMode::kFinal);
  };
  return plan;
}

TpchPlan Q20(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kLineItem, kPartSupp, kPart, kSupplier, kNation};
  int64_t lo = Days(1994, 1, 1), hi = Days(1995, 1, 1);
  std::vector<AggSpec> aggs = {{AggOp::kSum, E::Col(2)}};
  auto [line_forest_b, partsupp_b, ps_forest_b, canada_b, supp_b] =
      NewSharedBuilds(&plan, {kPart, kPartSupp, kPart, kNation, kSupplier});
  SharedExchange by_part_supp = NewExchange(&plan, {0, 1});
  // Only forest parts can qualify, so the lineitems and the partsupp rows
  // both semi-join them first, on their column 0 (the partkey); partkey is
  // a grouping key, so the semi-join commutes with the grouping. p_name
  // starts with one of 10 colors, so ~10% of parts are forest parts. Each
  // site builds its own table: the cost model may attach a runtime filter
  // to one probe and not to the other.
  const double parts = double(qb.db->row_count(kPart));
  auto forest_semi = [qb, parts](const SharedBuild& forest_b, Table t,
                                 const ScanOptions& o, ExprPtr filter,
                                 std::vector<int> proj) {
    return qb.ScanJoin(
        t, o, std::move(filter), std::move(proj), {0},
        qb.ScanBuild(forest_b, o, kPart,
                     E::StartsWith(E::Col(col::p_name), "forest"),
                     {col::p_partkey}),
        {0}, JoinType::kLeftSemi, parts * 0.1, parts);
  };
  auto partial = [lo, hi, aggs, forest_semi,
                  line_forest_b](const ScanOptions& o) {
    // line: pk0 sk1 qty2, the task's 1994 lineitems of forest parts
    auto line = forest_semi(
        line_forest_b, kLineItem, o,
        E::And(E::ColCmp(CmpOp::kGe, col::l_shipdate, lo),
               E::ColCmp(CmpOp::kLt, col::l_shipdate, hi)),
        {col::l_partkey, col::l_suppkey, col::l_quantity});
    return Agg(std::move(line), {E::Col(0), E::Col(1)}, aggs,
               AggMode::kPartial);
  };
  // Partials shuffled by (partkey, suppkey): each task finishes its pairs'
  // shipped quantity, checks them against the forest parts' partsupp rows,
  // and joins the suppkeys that qualify with the suppliers in CANADA.
  plan.fragment = [qb, aggs, partsupp_b, ps_forest_b, canada_b, supp_b,
                   by_part_supp, partial,
                   forest_semi](const ScanOptions& o) {
    // qty: pk0 sk1 sum2
    auto qty = Agg(qb.Shuffle(by_part_supp, o, partial), GroupCols(2), aggs,
                   AggMode::kFinal);
    // partsupp rows of forest parts: pspk0 pssk1 avail2
    auto forest_ps = qb.SlicedBuild(
        partsupp_b, o, [forest_semi, ps_forest_b](const ScanOptions& so) {
          return forest_semi(ps_forest_b, kPartSupp, so, nullptr,
                             {col::ps_partkey, col::ps_suppkey,
                              col::ps_availqty});
        });
    // j: qty 0..2 + pspk3 pssk4 avail5
    auto j = Join(std::move(qty), std::move(forest_ps), {0, 1}, {0, 1});
    auto enough = Filter(
        std::move(j),
        E::Cmp(CmpOp::kGt, E::Col(5),
               E::Arith(ArithOp::kMul, E::Lit(0.5), E::Col(2))));
    // The task's qualifying suppkeys, once each: sk0.
    auto sks = Agg(std::move(enough), {E::Col(1)}, {});
    // suppliers in CANADA: s_sk0 s_name1 s_addr2 s_nk3 nk4
    auto canada = qb.SlicedBuild(
        supp_b, o, [qb, canada_b](const ScanOptions& so) {
          return Join(qb.Scan(kSupplier, so, true, nullptr,
                              {col::s_suppkey, col::s_name, col::s_address,
                               col::s_nationkey}),
                      qb.ScanBuild(canada_b, so, kNation,
                                   E::ColCmp(CmpOp::kEq, col::n_name,
                                             S("CANADA")),
                                   {col::n_nationkey}),
                      {3}, {0});
        });
    // j2: sk0 + canada 1..5
    auto j2 = Join(std::move(sks), std::move(canada), {0}, {0});
    return Project(std::move(j2), {E::Col(0), E::Col(2), E::Col(3)});
  };
  // gathered: sk0 name1 addr2, a supplier once per task that qualified it.
  plan.merge = [](OperatorPtr gathered) {
    auto distinct = Agg(std::move(gathered), GroupCols(3), {});
    auto projected = Project(std::move(distinct), {E::Col(1), E::Col(2)});
    return Sort(std::move(projected), {{0, true}});
  };
  return plan;
}

TpchPlan Q21(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kLineItem, kSupplier, kOrders, kNation};
  auto [saudi_b, supp_b] = NewSharedBuilds(&plan, {kNation, kSupplier});
  plan.fragment = [qb, saudi_b, supp_b](const ScanOptions& o) {
    // Only F-order lineitems can reach the result, so the task's lineitems
    // semi-join its F orders, partition-wise; the column path runs this as
    // a vectorized ColumnHashJoinOp with the F-orders bloom filter pruning
    // the probe selection, the row path as HashJoinOp with the same filter
    // pushed into the scan. ~48% of lineitems are pruned.
    auto orders_f = qb.PartitionScanBuild(
        o, kLineItem, col::l_orderkey, kOrders, col::o_orderkey,
        E::ColCmp(CmpOp::kEq, col::o_orderstatus, S("F")), {col::o_orderkey});
    auto semi = qb.ScanJoin(
        kLineItem, o, nullptr,
        {col::l_orderkey, col::l_suppkey, col::l_commitdate,
         col::l_receiptdate},
        {0}, std::move(orders_f), {0}, JoinType::kLeftSemi,
        double(qb.db->row_count(kOrders)) * 0.49,
        double(qb.db->row_count(kOrders)));
    // projected positions: commit=2, receipt=3
    auto late = E::Cmp(CmpOp::kGt, E::Col(3), E::Col(2));
    auto lines = Project(std::move(semi),
                         {E::Col(0), E::Col(1),
                          E::Case(late, E::Col(1), E::Lit(Value{}))});
    // lineitem is partitioned on l_orderkey, so the task holds whole
    // orders, and one grouping pass by order with min/max only replaces the
    // (ok, sk) dedup + per-order two-agg cascade: >1 distinct supplier ⇔
    // min(sk) != max(sk); exactly one distinct late supplier ⇔
    // min(late_sk) == max(late_sk) and non-NULL, and that unique value IS
    // the waiting supplier's key.
    auto stats = Agg(std::move(lines), {E::Col(0)},
                     {{AggOp::kMin, E::Col(1)},
                      {AggOp::kMax, E::Col(1)},
                      {AggOp::kMin, E::Col(2)},
                      {AggOp::kMax, E::Col(2)}});
    // stats: ok0 minsk1 maxsk2 latemin3 latemax4. Orders with no late
    // supplier have NULL latemin; NULL comparisons yield NULL (false), so
    // the kEq clause drops them without an explicit IS NOT NULL.
    auto waiting = Filter(std::move(stats),
                          E::And(E::Cmp(CmpOp::kNe, E::Col(1), E::Col(2)),
                                 E::Cmp(CmpOp::kEq, E::Col(3), E::Col(4))));
    // suppliers in SAUDI ARABIA: s_sk0 s_name1 s_nk2 nk3
    auto sn = qb.SlicedBuild(
        supp_b, o, [qb, saudi_b](const ScanOptions& so) {
          return Join(qb.Scan(kSupplier, so, true, nullptr,
                              {col::s_suppkey, col::s_name,
                               col::s_nationkey}),
                      qb.ScanBuild(saudi_b, so, kNation,
                                   E::ColCmp(CmpOp::kEq, col::n_name,
                                             S("SAUDI ARABIA")),
                                   {col::n_nationkey}),
                      {2}, {0});
        });
    // j2: waiting 0..4 + sn 5..8 (s_name = 6)
    auto j2 = Join(std::move(waiting), std::move(sn), {3}, {0});
    return Agg(std::move(j2), {E::Col(6)}, {{AggOp::kCount, nullptr}},
               AggMode::kPartial);
  };
  plan.merge = [](OperatorPtr gathered) {
    auto counted = Agg(std::move(gathered), GroupCols(1),
                       {{AggOp::kCount, nullptr}}, AggMode::kFinal);
    return Sort(std::move(counted), {{1, false}, {0, true}}, 100);
  };
  return plan;
}

TpchPlan Q22(const QB& qb) {
  TpchPlan plan;
  plan.tables = {kCustomer, kOrders};
  auto in_codes = E::In(E::Substr(E::Col(col::c_phone), 0, 2),
                        {S("13"), S("31"), S("23"), S("29"), S("30"),
                         S("18"), S("17")});
  std::vector<AggSpec> aggs = {{AggOp::kCount, nullptr},
                               {AggOp::kSum, E::Col(2)}};
  SharedExchange buyers_by_customer = NewExchange(&plan, {0}),
                 customers_by_key = NewExchange(&plan, {0});
  auto buyers = [qb](const ScanOptions& o) {
    return qb.AggScan(kOrders, o, nullptr, {col::o_custkey},
                      {{AggOp::kCount, nullptr}}, AggMode::kPartial);
  };
  // ck0 code1 acct2 of the task's customers in the code set
  auto customers = [qb, in_codes](const ScanOptions& o) {
    return Project(qb.Scan(kCustomer, o, true, in_codes,
                           {col::c_custkey, col::c_phone, col::c_acctbal}),
                   {E::Col(0), E::Substr(E::Col(1), 0, 2), E::Col(2)});
  };
  // Buyers and customers shuffled by custkey: each task anti-joins its
  // customers with their orders. The average balance is a scalar over all
  // customers, so every task computes it from the whole table in scan
  // order, and every task compares against the same value.
  plan.fragment = [qb, in_codes, aggs, buyers_by_customer, customers_by_key,
                   buyers, customers](const ScanOptions& o) {
    auto avg = Agg(qb.Scan(kCustomer, o, false,
                           E::And(in_codes, E::ColCmp(CmpOp::kGt,
                                                      col::c_acctbal, 0.0)),
                           {col::c_acctbal}),
                   {}, {{AggOp::kAvg, E::Col(0)}});
    // cross join the customers with the 1-row avg: ck0 code1 acct2 avg3
    auto crossed = Join(qb.Shuffle(customers_by_key, o, customers),
                        std::move(avg), {}, {});
    auto rich = Filter(std::move(crossed),
                       E::Cmp(CmpOp::kGt, E::Col(2), E::Col(3)));
    // A customer's partial counts may come from several producers; the
    // anti-join needs only that one exists.
    auto no_orders = Join(std::move(rich),
                          qb.Shuffle(buyers_by_customer, o, buyers), {0}, {0},
                          JoinType::kLeftAnti);
    return Agg(std::move(no_orders), {E::Col(1)}, aggs, AggMode::kPartial);
  };
  plan.merge = [aggs](OperatorPtr gathered) {
    return Sort(Agg(std::move(gathered), GroupCols(1), aggs, AggMode::kFinal),
                {{0, true}});
  };
  return plan;
}

}  // namespace

TpchPlan BuildQuery(int q, const TpchDb& db, Timestamp snapshot) {
  QB qb{&db, snapshot};
  switch (q) {
    case 1: return Q1(qb);
    case 2: return Q2(qb);
    case 3: return Q3(qb);
    case 4: return Q4(qb);
    case 5: return Q5(qb);
    case 6: return Q6(qb);
    case 7: return Q7(qb);
    case 8: return Q8(qb);
    case 9: return Q9(qb);
    case 10: return Q10(qb);
    case 11: return Q11(qb);
    case 12: return Q12(qb);
    case 13: return Q13(qb);
    case 14: return Q14(qb);
    case 15: return Q15(qb);
    case 16: return Q16(qb);
    case 17: return Q17(qb);
    case 18: return Q18(qb);
    case 19: return Q19(qb);
    case 20: return Q20(qb);
    case 21: return Q21(qb);
    case 22: return Q22(qb);
    default:
      assert(false && "TPC-H query number must be in [1, 22]");
      return Q1(qb);
  }
}

Result<std::vector<Row>> RunQuerySingleNode(int q, const TpchDb& db,
                                            Timestamp snapshot,
                                            const ScanOptions& base_options) {
  TpchPlan plan = BuildQuery(q, db, snapshot);
  ScanOptions opt = base_options;
  opt.task = 0;
  opt.num_tasks = 1;
  OperatorPtr full = plan.merge(plan.fragment(opt));
  return Collect(full.get());
}

Result<std::vector<Row>> RunQuerySingleNode(int q, const TpchDb& db,
                                            Timestamp snapshot,
                                            bool use_column_index) {
  ScanOptions opt;
  opt.use_column_index = use_column_index;
  return RunQuerySingleNode(q, db, snapshot, opt);
}

Result<std::vector<Row>> RunQueryMpp(int q, const TpchDb& db,
                                     Timestamp snapshot, int num_tasks,
                                     ThreadPool* pool,
                                     const ScanOptions& base_options) {
  TpchPlan plan = BuildQuery(q, db, snapshot);
  MppExecutor mpp(pool);
  return mpp.RunPartialFinal(
      num_tasks,
      [&](int task, int ntasks) {
        ScanOptions opt = base_options;
        opt.task = task;
        opt.num_tasks = ntasks;
        return plan.fragment(opt);
      },
      plan.merge);
}

Result<std::vector<Row>> RunQueryMpp(int q, const TpchDb& db,
                                     Timestamp snapshot, int num_tasks,
                                     ThreadPool* pool,
                                     bool use_column_index) {
  ScanOptions opt;
  opt.use_column_index = use_column_index;
  return RunQueryMpp(q, db, snapshot, num_tasks, pool, opt);
}

}  // namespace polarx::tpch
