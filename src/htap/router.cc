#include "src/htap/router.h"

namespace polarx {

HtapRouter::HtapRouter(TxnEngine* rw, QueryScheduler* scheduler)
    : rw_(rw), scheduler_(scheduler) {}

void HtapRouter::AddReplica(RoReplica* replica) {
  replicas_.push_back(replica);
}

void HtapRouter::AddColumnIndex(TableId table, const ColumnIndex* index) {
  column_indexes_[table] = index;
}

RouteDecision HtapRouter::Classify(const QueryProfile& profile) const {
  RouteDecision decision;
  decision.workload = model_.Classify(profile);
  if (decision.workload == WorkloadClass::kAp && !replicas_.empty()) {
    decision.replica = int(next_replica_ % replicas_.size());
  }
  decision.store = model_.ChooseStore(profile, !column_indexes_.empty());
  return decision;
}

Result<OperatorPtr> HtapRouter::PlanScan(const QueryProfile& profile,
                                         TableId table, ExprPtr filter,
                                         Timestamp snapshot,
                                         RouteDecision* decision) {
  *decision = Classify(profile);
  if (decision->workload == WorkloadClass::kTp || replicas_.empty()) {
    // TP: read the RW row store directly.
    TableStore* ts = rw_->catalog()->FindTable(table);
    if (ts == nullptr) return Status::NotFound("table unknown on RW");
    decision->replica = -1;
    decision->store = StoreChoice::kRowStore;
    return OperatorPtr(std::make_unique<TableScanOp>(
        std::vector<TableStore*>{ts}, snapshot, std::move(filter)));
  }
  // AP: serve from a replica, column index when chosen.
  next_replica_ = (next_replica_ + 1) % replicas_.size();
  RoReplica* replica = replicas_[size_t(decision->replica)];
  // Session consistency: the replica must cover the RW's current log.
  Lsn rw_lsn = rw_->redo_log()->flushed_lsn();
  replica->PullFrom(*rw_->redo_log());
  POLARX_RETURN_NOT_OK(replica->WaitForLsn(rw_lsn, 1000));
  if (decision->store == StoreChoice::kColumnIndex) {
    auto it = column_indexes_.find(table);
    if (it != column_indexes_.end()) {
      return OperatorPtr(std::make_unique<ColumnScanOp>(
          it->second, snapshot, std::move(filter)));
    }
    decision->store = StoreChoice::kRowStore;
  }
  TableStore* ts = replica->catalog()->FindTable(table);
  if (ts == nullptr) return Status::NotFound("table unknown on replica");
  return OperatorPtr(std::make_unique<TableScanOp>(
      std::vector<TableStore*>{ts}, snapshot, std::move(filter)));
}

Result<std::vector<Row>> HtapRouter::Execute(OperatorPtr plan,
                                             const RouteDecision& decision) {
  if (decision.workload == WorkloadClass::kTp) {
    ++tp_routed_;
    return Collect(plan.get());
  }
  ++ap_routed_;
  auto job = std::make_shared<OperatorJob>(std::move(plan));
  auto handle = scheduler_->Submit(job, QueryClass::kAp);
  handle->Wait();
  if (!job->status().ok()) return job->status();
  return std::move(job->rows());
}

}  // namespace polarx
