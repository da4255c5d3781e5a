#include "src/replication/rw_ro.h"

#include <algorithm>
#include <chrono>

namespace polarx {

RoReplica::RoReplica(uint32_t id) : id_(id), applier_(&catalog_) {}

Status RoReplica::MirrorTable(TableId table_id, const std::string& name,
                              const Schema& schema, TenantId tenant) {
  auto result = catalog_.CreateTable(table_id, name, schema, tenant);
  return result.ok() ? Status::Ok() : result.status();
}

Result<Lsn> RoReplica::PullFrom(const RedoLog& rw_log) {
  std::unique_lock<std::mutex> lock(apply_mu_);
  Lsn from = applied_lsn_.load();
  Lsn horizon = rw_log.purged_before();
  if (from < horizon) {
    // The RW purged past us (we were kicked out and re-attached, or just
    // created): fast-forward. A production system would load a checkpoint;
    // the mirror here starts from the purge horizon.
    from = horizon;
  }
  Lsn to = rw_log.flushed_lsn();
  if (to <= from) {
    applied_lsn_.store(from);
    return from;
  }
  std::vector<RedoRecord> records;
  POLARX_RETURN_NOT_OK(rw_log.ReadRecords(from, to, &records));
  POLARX_RETURN_NOT_OK(applier_.ApplyAll(records));
  applied_lsn_.store(to);
  applied_cv_.notify_all();
  return to;
}

Status RoReplica::WaitForLsn(Lsn lsn, uint64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(apply_mu_);
  bool ok = applied_cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [&] { return applied_lsn_.load() >= lsn; });
  return ok ? Status::Ok()
            : Status::TimedOut("replica did not reach lsn " +
                               std::to_string(lsn));
}

namespace {

/// Committed-only visibility on a replica chain.
const Version* VisibleVersion(const VersionPtr& head, Timestamp snapshot_ts) {
  for (const Version* v = head.get(); v != nullptr; v = v->prev.get()) {
    Timestamp cts = v->commit_ts.load(std::memory_order_acquire);
    if (cts != kInvalidTimestamp && cts <= snapshot_ts) return v;
  }
  return nullptr;
}

}  // namespace

Status RoReplica::Read(TableId table, const EncodedKey& key, Row* out,
                       Timestamp snapshot_ts) const {
  if (snapshot_ts == 0) snapshot_ts = SnapshotTs();
  TableStore* ts = catalog_.FindTable(table);
  if (ts == nullptr) return Status::NotFound("table unknown");
  const Version* v = VisibleVersion(ts->rows().Head(key), snapshot_ts);
  if (v == nullptr || v->deleted) return Status::NotFound("no visible row");
  *out = v->row;
  return Status::Ok();
}

Status RoReplica::Scan(
    TableId table, const EncodedKey& from, const EncodedKey& to,
    Timestamp snapshot_ts,
    const std::function<bool(const EncodedKey&, const Row&)>& fn) const {
  if (snapshot_ts == 0) snapshot_ts = SnapshotTs();
  TableStore* ts = catalog_.FindTable(table);
  if (ts == nullptr) return Status::NotFound("table unknown");
  ts->rows().ScanRange(from, to,
                       [&](const EncodedKey& key, const VersionPtr& head) {
                         const Version* v = VisibleVersion(head, snapshot_ts);
                         if (v != nullptr && !v->deleted) {
                           return fn(key, v->row);
                         }
                         return true;
                       });
  return Status::Ok();
}

RwRoReplication::RwRoReplication(RedoLog* rw_log, Options options)
    : rw_log_(rw_log), options_(options) {}

void RwRoReplication::AddReplica(RoReplica* replica) {
  std::lock_guard<std::mutex> lock(mu_);
  replicas_.push_back(replica);
}

Lsn RwRoReplication::SyncAll() {
  std::vector<RoReplica*> replicas;
  {
    std::lock_guard<std::mutex> lock(mu_);
    replicas = replicas_;
  }
  for (RoReplica* r : replicas) r->PullFrom(*rw_log_);
  return MinRoLsn();
}

Lsn RwRoReplication::MinRoLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (replicas_.empty()) return rw_log_->flushed_lsn();
  Lsn min_lsn = kMaxLsn;
  for (RoReplica* r : replicas_) min_lsn = std::min(min_lsn, r->applied_lsn());
  return min_lsn;
}

std::vector<uint32_t> RwRoReplication::KickLaggards() {
  std::lock_guard<std::mutex> lock(mu_);
  Lsn end = rw_log_->current_lsn();
  std::vector<uint32_t> kicked;
  replicas_.erase(
      std::remove_if(replicas_.begin(), replicas_.end(),
                     [&](RoReplica* r) {
                       Lsn lag = end > r->applied_lsn()
                                     ? end - r->applied_lsn()
                                     : 0;
                       if (lag > options_.max_lag_bytes) {
                         kicked.push_back(r->id());
                         return true;
                       }
                       return false;
                     }),
      replicas_.end());
  return kicked;
}

void RwRoReplication::PurgeConsumedLog() {
  rw_log_->PurgeBefore(MinRoLsn());
}

}  // namespace polarx
