// The HTAP entry point (§VI-A, Fig. 6): one access endpoint receives every
// request; the HTAP-oriented optimizer estimates its cost and classifies it
// as TP or AP; TP requests execute on the RW node's engine through the TP
// pool, AP requests are planned against the freshest RO replica (session
// consistency honored) and run as sliced jobs in the AP pool, optionally
// against the in-memory column index when the cost model prefers it.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/colindex/column_index.h"
#include "src/exec/operator.h"
#include "src/exec/scheduler.h"
#include "src/optimizer/cost.h"
#include "src/replication/rw_ro.h"
#include "src/txn/engine.h"

namespace polarx {

/// Where a routed query executed and how.
struct RouteDecision {
  WorkloadClass workload = WorkloadClass::kTp;
  StoreChoice store = StoreChoice::kRowStore;
  /// Which RO replica served an AP query (-1 = RW node).
  int replica = -1;
};

class HtapRouter {
 public:
  /// `rw` is the primary engine; `scheduler` provides the TP/AP pools.
  HtapRouter(TxnEngine* rw, QueryScheduler* scheduler);

  /// Registers an RO replica (AP queries round-robin over replicas).
  void AddReplica(RoReplica* replica);

  /// Registers a column index for a table on the replicas.
  void AddColumnIndex(TableId table, const ColumnIndex* index);

  /// Classifies the profile and reports where the query would run.
  RouteDecision Classify(const QueryProfile& profile) const;

  /// Builds the physical source operator for a scan of `table` with
  /// `filter`, honoring the route decision: RW row store for TP, replica
  /// row store or column index for AP.
  Result<OperatorPtr> PlanScan(const QueryProfile& profile, TableId table,
                               ExprPtr filter, Timestamp snapshot,
                               RouteDecision* decision);

  /// Executes a fully-built plan under the decided class: TP plans run
  /// inline (latency-critical); AP plans run as sliced jobs in the AP pool.
  /// Returns the result rows.
  Result<std::vector<Row>> Execute(OperatorPtr plan,
                                   const RouteDecision& decision);

  /// Telemetry.
  uint64_t tp_routed() const { return tp_routed_; }
  uint64_t ap_routed() const { return ap_routed_; }

 private:
  TxnEngine* rw_;
  QueryScheduler* scheduler_;
  CostModel model_;
  std::vector<RoReplica*> replicas_;
  std::map<TableId, const ColumnIndex*> column_indexes_;
  size_t next_replica_ = 0;
  uint64_t tp_routed_ = 0;
  uint64_t ap_routed_ = 0;
};

}  // namespace polarx
