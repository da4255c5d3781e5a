// The HTAP-oriented optimizer's cost model (§VI-B): estimates the resource
// consumption of a query, classifies it as TP or AP against an empirical
// threshold, decides operator push-down, and chooses between the row store
// and the in-memory column index by comparing physical-plan costs.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/common/types.h"

namespace polarx {

/// Per-table statistics kept by GMS / the optimizer.
struct TableStats {
  uint64_t row_count = 0;
  double avg_row_bytes = 100;
  /// Fraction of rows a typical indexed predicate selects.
  double index_selectivity = 0.001;
};

/// A coarse profile of a query plan, produced by the planner / SQL binder.
struct QueryProfile {
  /// Estimated rows read from base tables (after pushdown filters).
  double rows_scanned = 0;
  /// Estimated rows flowing into joins/aggregations on the CN.
  double rows_processed = 0;
  /// True if every base access is an index/primary-key point lookup.
  bool point_access_only = false;
  uint32_t num_joins = 0;
  bool has_aggregation = false;
  bool has_order_by = false;
  /// Rows written (DML).
  double rows_written = 0;
};

/// Estimated resource consumption, in abstract cost units.
struct PlanCost {
  double cpu = 0;
  double io = 0;
  double network = 0;
  double memory = 0;
  double total() const { return cpu + io + network + memory; }
};

enum class StoreChoice { kRowStore, kColumnIndex };
enum class WorkloadClass { kTp, kAp };

/// Per-row cost weights and thresholds are constants in cost.cc.
class CostModel {
 public:
  /// Cost of the profile against a given store.
  PlanCost Estimate(const QueryProfile& profile, StoreChoice store) const;

  /// §VI-B request classification: TP requests route to the RW node, AP
  /// requests go through MPP planning onto RO nodes.
  WorkloadClass Classify(const QueryProfile& profile) const;

  /// Chooses the cheaper physical store for the profile. In practice: point
  /// queries pick InnoDB row store; large scans and push-down join/agg
  /// plans pick the column index (§VI-E).
  StoreChoice ChooseStore(const QueryProfile& profile,
                          bool column_index_available) const;

  /// Whether a hash join should publish its build side as a runtime filter
  /// into the probe scan. `build_rows` is the estimated build cardinality
  /// after its own filters, `build_base_rows` the build table's base row
  /// count (<= 0 when unknown), `probe_rows` the probe scan's estimated
  /// output. Attaching is cheap but not free, so all three runtime-filter
  /// thresholds must agree.
  bool ShouldAttachRuntimeFilter(double build_rows, double build_base_rows,
                                 double probe_rows) const;
};

/// Helper to derive a QueryProfile for a simple scan query.
QueryProfile ScanProfile(const TableStats& stats, double selectivity,
                         bool via_index);

}  // namespace polarx
