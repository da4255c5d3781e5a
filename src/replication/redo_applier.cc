#include "src/replication/redo_applier.h"

#include <algorithm>

namespace polarx {

RedoApplier::RedoApplier(TableCatalog* catalog) : catalog_(catalog) {}

Status RedoApplier::Apply(const RedoRecord& rec) {
  if (rec.lsn != kInvalidLsn) {
    if (rec.lsn < applied_through_) {
      ++records_skipped_;  // duplicate delivery of an applied record
      return Status::Ok();
    }
    applied_through_ = rec.lsn + 1;
  }
  switch (rec.type) {
    case RedoType::kInsert:
    case RedoType::kUpdate:
    case RedoType::kDelete: {
      TableStore* table = catalog_->FindTable(rec.table_id);
      if (table == nullptr) return Status::Ok();  // not mirrored here
      auto version = std::make_shared<Version>(
          rec.txn_id, rec.type == RedoType::kDelete, rec.row);
      table->rows().Push(rec.key, version);
      pending_[rec.txn_id].push_back(
          PendingWrite{rec.table_id, rec.key, version});
      if (commit_hook_) pending_records_[rec.txn_id].push_back(rec);
      ++rows_applied_;
      return Status::Ok();
    }
    case RedoType::kTxnPrepare:
      return Status::Ok();  // replicas need no prepare state
    case RedoType::kTxnCommit: {
      auto it = pending_.find(rec.txn_id);
      if (it != pending_.end()) {
        for (auto& w : it->second) {
          w.version->commit_ts.store(rec.ts, std::memory_order_release);
        }
        pending_.erase(it);
      }
      max_commit_ts_ = std::max(max_commit_ts_, rec.ts);
      ++txns_committed_;
      if (commit_hook_) {
        auto rit = pending_records_.find(rec.txn_id);
        if (rit != pending_records_.end()) {
          commit_hook_(rec.txn_id, rec.ts, rit->second);
          pending_records_.erase(rit);
        } else {
          commit_hook_(rec.txn_id, rec.ts, {});
        }
      }
      return Status::Ok();
    }
    case RedoType::kTxnAbort: {
      auto it = pending_.find(rec.txn_id);
      if (it != pending_.end()) {
        for (auto w = it->second.rbegin(); w != it->second.rend(); ++w) {
          TableStore* table = catalog_->FindTable(w->table);
          if (table != nullptr) {
            table->rows().RemoveUncommitted(w->key, rec.txn_id);
          }
        }
        pending_.erase(it);
      }
      pending_records_.erase(rec.txn_id);
      return Status::Ok();
    }
    case RedoType::kPaxos:
    case RedoType::kCheckpoint:
    case RedoType::kDdl:
      return Status::Ok();
    case RedoType::kTxnCommitPoint:
    case RedoType::kTxnAbortPoint:
      // 2PC decision records only matter to TxnEngine::RecoverState; row
      // application is driven by the per-branch commit/abort records.
      return Status::Ok();
  }
  return Status::Corruption("unknown redo record type");
}

Status RedoApplier::ApplyAll(const std::vector<RedoRecord>& records) {
  for (const auto& rec : records) POLARX_RETURN_NOT_OK(Apply(rec));
  return Status::Ok();
}

}  // namespace polarx
