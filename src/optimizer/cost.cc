#include "src/optimizer/cost.h"

#include <algorithm>

namespace polarx {

CostModel::CostModel(CostModelOptions options) : options_(options) {}

PlanCost CostModel::Estimate(const QueryProfile& profile,
                             StoreChoice store) const {
  PlanCost cost;
  if (profile.point_access_only) {
    // Index-hit path: a handful of B+Tree descents; the row store wins.
    double lookups = std::max(1.0, profile.rows_scanned);
    cost.io = lookups * options_.io_per_point_lookup *
              (store == StoreChoice::kColumnIndex ? 4.0 : 1.0);
    cost.cpu = lookups * options_.cpu_per_row;
    cost.network = lookups * options_.net_per_row;
    return cost;
  }
  double io_per_row = store == StoreChoice::kRowStore
                          ? options_.io_per_row_rowstore
                          : options_.io_per_row_colindex;
  cost.io = profile.rows_scanned * io_per_row;
  // Column stores also evaluate filters/joins/aggregations faster
  // (vectorized, cache-friendly).
  double cpu_discount = store == StoreChoice::kColumnIndex ? 0.3 : 1.0;
  cost.cpu = profile.rows_scanned * options_.cpu_per_row * cpu_discount;
  cost.cpu += profile.rows_processed * options_.cpu_per_row * cpu_discount *
              (1.0 + profile.num_joins * options_.join_cpu_factor +
               (profile.has_aggregation ? options_.agg_cpu_factor : 0.0) +
               (profile.has_order_by ? 1.0 : 0.0));
  cost.network = profile.rows_processed * options_.net_per_row;
  cost.memory = profile.rows_processed * 0.1;
  cost.cpu += profile.rows_written * options_.cpu_per_row * 2;
  cost.io += profile.rows_written * options_.io_per_row_rowstore;
  return cost;
}

WorkloadClass CostModel::Classify(const QueryProfile& profile) const {
  PlanCost cost = Estimate(profile, StoreChoice::kRowStore);
  return cost.total() > options_.ap_threshold ? WorkloadClass::kAp
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
  if (probe_rows < options_.rf_min_probe_rows) return false;
  if (build_rows > probe_rows * options_.rf_max_build_ratio) return false;
  if (build_base_rows > 0 &&
      build_rows > build_base_rows * options_.rf_max_build_selectivity) {
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
