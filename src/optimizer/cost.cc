#include "src/optimizer/cost.h"

#include <algorithm>

namespace polarx {

namespace {

constexpr double kCpuPerRow = 1.0;
constexpr double kIoPerRowRowStore = 4.0;  // row store scan reads full rows
constexpr double kIoPerRowColIndex = 0.6;  // compact columnar, used columns
constexpr double kIoPerPointLookup = 2.0;  // B+Tree descent
constexpr double kNetPerRow = 0.5;         // CN <-> DN transfer
constexpr double kJoinCpuFactor = 2.0;
constexpr double kAggCpuFactor = 1.5;
/// Empirical TP/AP threshold on total cost (§VI-B).
constexpr double kApThreshold = 10000.0;
// Runtime-filter attachment thresholds (DESIGN.md §9): probe sides below
// kRfMinProbeRows aren't worth the per-row bloom test; build sides larger
// than kRfMaxBuildRatio × probe rows summarize too little; and a build side
// keeping more than kRfMaxBuildSelectivity of its base table (an unfiltered
// PK/FK build) prunes almost nothing.
constexpr double kRfMinProbeRows = 1024;
constexpr double kRfMaxBuildRatio = 0.2;
constexpr double kRfMaxBuildSelectivity = 0.5;

}  // namespace

PlanCost CostModel::Estimate(const QueryProfile& profile,
                             StoreChoice store) const {
  PlanCost cost;
  if (profile.point_access_only) {
    // Index-hit path: a handful of B+Tree descents; the row store wins.
    double lookups = std::max(1.0, profile.rows_scanned);
    cost.io = lookups * kIoPerPointLookup *
              (store == StoreChoice::kColumnIndex ? 4.0 : 1.0);
    cost.cpu = lookups * kCpuPerRow;
    cost.network = lookups * kNetPerRow;
    return cost;
  }
  double io_per_row =
      store == StoreChoice::kRowStore ? kIoPerRowRowStore : kIoPerRowColIndex;
  cost.io = profile.rows_scanned * io_per_row;
  // Column stores also evaluate filters/joins/aggregations faster
  // (vectorized, cache-friendly).
  double cpu_discount = store == StoreChoice::kColumnIndex ? 0.3 : 1.0;
  cost.cpu = profile.rows_scanned * kCpuPerRow * cpu_discount;
  cost.cpu += profile.rows_processed * kCpuPerRow * cpu_discount *
              (1.0 + profile.num_joins * kJoinCpuFactor +
               (profile.has_aggregation ? kAggCpuFactor : 0.0) +
               (profile.has_order_by ? 1.0 : 0.0));
  cost.network = profile.rows_processed * kNetPerRow;
  cost.memory = profile.rows_processed * 0.1;
  cost.cpu += profile.rows_written * kCpuPerRow * 2;
  cost.io += profile.rows_written * kIoPerRowRowStore;
  return cost;
}

WorkloadClass CostModel::Classify(const QueryProfile& profile) const {
  PlanCost cost = Estimate(profile, StoreChoice::kRowStore);
  return cost.total() > kApThreshold ? WorkloadClass::kAp
                                     : WorkloadClass::kTp;
}

StoreChoice CostModel::ChooseStore(const QueryProfile& profile,
                                   bool column_index_available) const {
  if (!column_index_available) return StoreChoice::kRowStore;
  double row_cost = Estimate(profile, StoreChoice::kRowStore).total();
  double col_cost = Estimate(profile, StoreChoice::kColumnIndex).total();
  return col_cost < row_cost ? StoreChoice::kColumnIndex
                             : StoreChoice::kRowStore;
}

bool CostModel::ShouldAttachRuntimeFilter(double build_rows,
                                          double build_base_rows,
                                          double probe_rows) const {
  if (probe_rows < kRfMinProbeRows) return false;
  if (build_rows > probe_rows * kRfMaxBuildRatio) return false;
  if (build_base_rows > 0 &&
      build_rows > build_base_rows * kRfMaxBuildSelectivity) {
    return false;
  }
  return true;
}

QueryProfile ScanProfile(const TableStats& stats, double selectivity,
                         bool via_index) {
  QueryProfile p;
  if (via_index) {
    p.rows_scanned = std::max(1.0, stats.row_count * selectivity);
    p.point_access_only = selectivity <= stats.index_selectivity * 4;
  } else {
    p.rows_scanned = double(stats.row_count);
  }
  p.rows_processed = std::max(1.0, stats.row_count * selectivity);
  return p;
}

}  // namespace polarx
