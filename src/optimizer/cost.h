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

struct CostModelOptions {
  double cpu_per_row = 1.0;
  double io_per_row_rowstore = 4.0;    // row store scan reads full rows
  double io_per_row_colindex = 0.6;    // compact columnar, only used columns
  double io_per_point_lookup = 2.0;    // B+Tree descent
  double net_per_row = 0.5;            // CN <-> DN transfer
  double join_cpu_factor = 2.0;
  double agg_cpu_factor = 1.5;
  /// Empirical TP/AP threshold on total cost (§VI-B).
  double ap_threshold = 10000.0;
  // Runtime-filter attachment thresholds (DESIGN.md §9): probe sides below
  // rf_min_probe_rows aren't worth the per-row bloom test; build sides
  // larger than rf_max_build_ratio × probe rows summarize too little; and a
  // build side keeping more than rf_max_build_selectivity of its base table
  // (an unfiltered PK/FK build) prunes almost nothing.
  double rf_min_probe_rows = 1024;
  double rf_max_build_ratio = 0.2;
  double rf_max_build_selectivity = 0.5;
};

class CostModel {
 public:
  explicit CostModel(CostModelOptions options = CostModelOptions{});

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
  /// output. Attaching is cheap but not free, so all three thresholds in
  /// CostModelOptions must agree.
  bool ShouldAttachRuntimeFilter(double build_rows, double build_base_rows,
                                 double probe_rows) const;

  const CostModelOptions& options() const { return options_; }

 private:
  CostModelOptions options_;
};

/// Helper to derive a QueryProfile for a simple scan query.
QueryProfile ScanProfile(const TableStats& stats, double selectivity,
                         bool via_index);

}  // namespace polarx
