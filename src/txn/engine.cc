#include "src/txn/engine.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <utility>

#include "src/common/logging.h"

namespace polarx {

TxnEngine::TxnEngine(uint32_t engine_id, TableCatalog* catalog, Hlc* hlc,
                     RedoLog* log, BufferPool* pool,
                     TxnEngineOptions options)
    : engine_id_(engine_id),
      options_(options),
      catalog_(catalog),
      hlc_(hlc),
      log_(log),
      pool_(pool) {
  assert(catalog_ != nullptr && hlc_ != nullptr && log_ != nullptr &&
         pool_ != nullptr);
}

void TxnEngine::RequestDurable(Lsn end_lsn, bool require_local_flush) {
  if (durability_hook_) {
    durability_hook_(end_lsn);
    return;
  }
  if (require_local_flush) log_->MarkFlushed(end_lsn);
}

TxnId TxnEngine::MintTxnId() {
  // engine_id | id_epoch | counter. The epoch byte keeps ids from different
  // incarnations of the same engine disjoint (see TxnEngineOptions).
  return (static_cast<TxnId>(engine_id_) << 40) |
         (static_cast<TxnId>(options_.id_epoch & 0xFF) << 32) |
         (next_txn_.fetch_add(1, std::memory_order_relaxed) & 0xFFFFFFFF);
}

TxnId TxnEngine::Begin(Timestamp snapshot_ts) {
  if (snapshot_ts == 0) snapshot_ts = hlc_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  TxnId id = MintTxnId();
  auto info = std::make_unique<TxnInfo>();
  info->id = id;
  info->snapshot_ts = snapshot_ts;
  txns_.emplace(id, std::move(info));
  ++stats_.begun;
  return id;
}

TxnId TxnEngine::BeginBranch(Timestamp snapshot_ts, GlobalTxnId global_id,
                             uint32_t coordinator) {
  if (snapshot_ts == 0) snapshot_ts = hlc_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  auto existing = branches_.find(global_id);
  if (existing != branches_.end()) return existing->second;  // retried Begin
  TxnId id = MintTxnId();
  auto info = std::make_unique<TxnInfo>();
  info->id = id;
  info->snapshot_ts = snapshot_ts;
  info->global_id = global_id;
  info->coordinator = coordinator;
  txns_.emplace(id, std::move(info));
  branches_.emplace(global_id, id);
  ++stats_.begun;
  return id;
}

Result<TxnId> TxnEngine::BranchOf(GlobalTxnId global_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = branches_.find(global_id);
  if (it == branches_.end()) return Status::NotFound("no branch for global");
  return it->second;
}

TxnInfo* TxnEngine::FindTxnLocked(TxnId txn) {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : it->second.get();
}

const TxnInfo* TxnEngine::FindTxnLocked(TxnId txn) const {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : it->second.get();
}

Result<TxnState> TxnEngine::StateOf(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  const TxnInfo* info = FindTxnLocked(txn);
  if (info == nullptr) return Status::NotFound("txn unknown");
  return info->state;
}

namespace {
TxnInfo CopyMeta(const TxnInfo& info) {
  TxnInfo copy;
  copy.id = info.id;
  copy.state = info.state;
  copy.snapshot_ts = info.snapshot_ts;
  copy.prepare_ts = info.prepare_ts;
  copy.commit_ts = info.commit_ts;
  copy.global_id = info.global_id;
  copy.coordinator = info.coordinator;
  copy.commit_owner = info.commit_owner;
  copy.participants = info.participants;
  return copy;
}
}  // namespace

Result<TxnInfo> TxnEngine::InfoOf(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  const TxnInfo* info = FindTxnLocked(txn);
  if (info == nullptr) return Status::NotFound("txn unknown");
  return CopyMeta(*info);
}

std::vector<TxnInfo> TxnEngine::TxnsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TxnInfo> out;
  out.reserve(txns_.size());
  for (const auto& [id, info] : txns_) out.push_back(CopyMeta(*info));
  return out;
}

TxnEngine::Visibility TxnEngine::CheckVisibility(const VersionPtr& v,
                                                 Timestamp snapshot_ts,
                                                 TxnId reader,
                                                 TxnId* blocker) const {
  // Fast path: a stamped commit_ts means the writer committed, regardless of
  // whether the TxnInfo is still around.
  Timestamp cts = v->commit_ts.load(std::memory_order_acquire);
  if (cts != kInvalidTimestamp) {
    return cts <= snapshot_ts ? Visibility::kVisible : Visibility::kInvisible;
  }
  if (v->txn_id == reader) return Visibility::kVisible;  // own write
  std::lock_guard<std::mutex> lock(mu_);
  const TxnInfo* writer = FindTxnLocked(v->txn_id);
  if (writer == nullptr) {
    // Unstamped version from a forgotten transaction: only possible for an
    // aborted writer whose versions are being unlinked; treat as invisible.
    return Visibility::kInvisible;
  }
  switch (writer->state) {
    case TxnState::kCommitted: {
      Timestamp wcts = v->commit_ts.load(std::memory_order_acquire);
      return (wcts != kInvalidTimestamp && wcts <= snapshot_ts)
                 ? Visibility::kVisible
                 : Visibility::kInvisible;
    }
    case TxnState::kAborted:
      return Visibility::kInvisible;
    case TxnState::kPrepared:
      // Under HLC-SI commit_ts >= prepare_ts, so a prepare_ts beyond our
      // snapshot proves invisibility without waiting (§IV).
      if (options_.use_prepare_ts_filter && writer->prepare_ts > snapshot_ts) {
        return Visibility::kInvisible;
      }
      if (blocker != nullptr) *blocker = writer->id;
      return Visibility::kMustWait;
    case TxnState::kActive:
      return Visibility::kInvisible;  // §IV case 3
  }
  return Visibility::kInvisible;
}

Status TxnEngine::Read(TxnId txn, TableId table, const EncodedKey& key,
                       Row* out, TxnId* blocker) {
  Timestamp snapshot_ts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TxnInfo* info = FindTxnLocked(txn);
    if (info == nullptr) return Status::NotFound("txn unknown");
    if (info->state != TxnState::kActive) {
      return Status::Aborted("txn not active");
    }
    snapshot_ts = info->snapshot_ts;
  }
  return ReadAtInternal(snapshot_ts, txn, table, key, out, blocker);
}

Status TxnEngine::ReadAt(Timestamp snapshot_ts, TableId table,
                         const EncodedKey& key, Row* out, TxnId* blocker) {
  return ReadAtInternal(snapshot_ts, kInvalidTxnId, table, key, out, blocker);
}

Status TxnEngine::ReadAtInternal(Timestamp snapshot_ts, TxnId reader,
                                 TableId table, const EncodedKey& key,
                                 Row* out, TxnId* blocker) {
  TableStore* ts = catalog_->FindTable(table);
  if (ts == nullptr) return Status::NotFound("table unknown");
  pool_->Touch(MakePageId(table, ts->PageNoFor(key)));
  for (VersionPtr v = ts->rows().Head(key); v != nullptr; v = v->prev) {
    switch (CheckVisibility(v, snapshot_ts, reader, blocker)) {
      case Visibility::kVisible:
        if (v->deleted) return Status::NotFound("deleted");
        *out = v->row;
        return Status::Ok();
      case Visibility::kMustWait: {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.prepared_waits;
        return Status::Busy("blocked by prepared txn");
      }
      case Visibility::kInvisible:
        break;  // continue down the chain
    }
  }
  return Status::NotFound("no visible version");
}

Status TxnEngine::ScanVisible(
    TxnId txn, TableId table, const EncodedKey& from, const EncodedKey& to,
    const std::function<bool(const EncodedKey&, const Row&)>& fn,
    TxnId* blocker) {
  Timestamp snapshot_ts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TxnInfo* info = FindTxnLocked(txn);
    if (info == nullptr) return Status::NotFound("txn unknown");
    snapshot_ts = info->snapshot_ts;
  }
  Status result = Status::Ok();
  TableStore* ts = catalog_->FindTable(table);
  if (ts == nullptr) return Status::NotFound("table unknown");
  ts->rows().ScanRange(from, to, [&](const EncodedKey& key,
                                     const VersionPtr& head) {
    for (VersionPtr v = head; v != nullptr; v = v->prev) {
      Visibility vis = CheckVisibility(v, snapshot_ts, txn, blocker);
      if (vis == Visibility::kMustWait) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.prepared_waits;
        }
        result = Status::Busy("blocked by prepared txn");
        return false;
      }
      if (vis == Visibility::kVisible) {
        if (!v->deleted && !fn(key, v->row)) return false;
        break;
      }
    }
    return true;
  });
  return result;
}

Status TxnEngine::Write(TxnId txn, TableId table, const EncodedKey& key,
                        Row row, bool deleted, RedoType redo_type) {
  TableStore* ts = catalog_->FindTable(table);
  if (ts == nullptr) return Status::NotFound("table unknown");

  Timestamp snapshot_ts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TxnInfo* info = FindTxnLocked(txn);
    if (info == nullptr) return Status::NotFound("txn unknown");
    if (info->state != TxnState::kActive) {
      return Status::Aborted("txn not active");
    }
    snapshot_ts = info->snapshot_ts;
  }

  // SI write-write conflict check + install, atomic under the table lock.
  // The engine lock is NOT held here (table locks and the engine lock must
  // never be waited on simultaneously).
  auto version = std::make_shared<Version>(txn, deleted, std::move(row));
  switch (ts->rows().PushChecked(key, version, snapshot_ts, txn)) {
    case MvccTable::PushResult::kOk:
      break;
    case MvccTable::PushResult::kConflictUncommitted: {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.conflicts;
      return Status::Conflict("uncommitted write by another txn");
    }
    case MvccTable::PushResult::kConflictNewer: {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.conflicts;
      return Status::Conflict("newer committed version");
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    TxnInfo* info = FindTxnLocked(txn);
    if (info == nullptr) return Status::NotFound("txn vanished");
    info->writes.push_back(TxnInfo::WriteRef{table, key, version});
  }

  // Redo: one record per row operation, appended as its own MTR.
  RedoRecord rec;
  rec.type = redo_type;
  rec.txn_id = txn;
  rec.table_id = table;
  rec.key = key;
  if (!deleted) rec.row = version->row;
  MtrHandle mtr = log_->AppendMtr({rec});
  pool_->MarkDirty(MakePageId(table, ts->PageNoFor(key)), mtr.start_lsn,
                   mtr.end_lsn);
  return Status::Ok();
}

Status TxnEngine::Insert(TxnId txn, TableId table, const Row& row) {
  TableStore* ts = catalog_->FindTable(table);
  if (ts == nullptr) return Status::NotFound("table unknown");
  POLARX_RETURN_NOT_OK(ts->schema().ValidateRow(row));
  EncodedKey key = EncodeKey(ts->schema().ExtractKey(row));
  // Duplicate-key check under the transaction's snapshot.
  Row existing;
  Status read = Read(txn, table, key, &existing);
  if (read.ok()) return Status::InvalidArgument("duplicate key");
  if (read.IsBusy()) return read;
  return Write(txn, table, key, row, /*deleted=*/false, RedoType::kInsert);
}

Status TxnEngine::BulkLoad(TxnId txn, TableId table,
                           const std::vector<Row>& rows) {
  TableStore* ts = catalog_->FindTable(table);
  if (ts == nullptr) return Status::NotFound("table unknown");

  Timestamp snapshot_ts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TxnInfo* info = FindTxnLocked(txn);
    if (info == nullptr) return Status::NotFound("txn unknown");
    if (info->state != TxnState::kActive) {
      return Status::Aborted("txn not active");
    }
    snapshot_ts = info->snapshot_ts;
  }

  std::vector<TxnInfo::WriteRef> refs;
  std::vector<RedoRecord> recs;
  refs.reserve(rows.size());
  recs.reserve(rows.size());
  for (const Row& row : rows) {
    Status valid = ts->schema().ValidateRow(row);
    EncodedKey key = valid.ok() ? EncodeKey(ts->schema().ExtractKey(row))
                                : EncodedKey{};
    auto version = std::make_shared<Version>(txn, /*deleted=*/false, row);
    bool conflict =
        valid.ok() &&
        ts->rows().PushChecked(key, version, snapshot_ts, txn) !=
            MvccTable::PushResult::kOk;
    if (!valid.ok() || conflict) {
      // Unwind everything this call installed; nothing was logged yet.
      for (auto it = refs.rbegin(); it != refs.rend(); ++it) {
        ts->rows().RemoveUncommitted(it->key, txn);
      }
      if (conflict) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.conflicts;
        return Status::Conflict("bulk load write-write conflict");
      }
      return valid;
    }
    refs.push_back(TxnInfo::WriteRef{table, key, version});
    RedoRecord rec;
    rec.type = RedoType::kInsert;
    rec.txn_id = txn;
    rec.table_id = table;
    rec.key = key;
    rec.row = row;
    recs.push_back(std::move(rec));
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    TxnInfo* info = FindTxnLocked(txn);
    if (info == nullptr) return Status::NotFound("txn vanished");
    info->writes.insert(info->writes.end(), refs.begin(), refs.end());
  }

  // One MTR covers the whole batch (the bulk-load win: 50k rows = one
  // append + one dirty-page sweep instead of 50k MTRs).
  MtrHandle mtr = log_->AppendMtr(recs);
  for (const auto& ref : refs) {
    pool_->MarkDirty(MakePageId(table, ts->PageNoFor(ref.key)),
                     mtr.start_lsn, mtr.end_lsn);
  }
  return Status::Ok();
}

Status TxnEngine::Update(TxnId txn, TableId table, const Row& row) {
  TableStore* ts = catalog_->FindTable(table);
  if (ts == nullptr) return Status::NotFound("table unknown");
  POLARX_RETURN_NOT_OK(ts->schema().ValidateRow(row));
  EncodedKey key = EncodeKey(ts->schema().ExtractKey(row));
  return Write(txn, table, key, row, /*deleted=*/false, RedoType::kUpdate);
}

Status TxnEngine::Delete(TxnId txn, TableId table, const EncodedKey& key) {
  return Write(txn, table, key, Row{}, /*deleted=*/true, RedoType::kDelete);
}

namespace {
/// The prepare redo record of `info`, which is PREPARED or committing in
/// one phase: what in-doubt recovery needs after a crash.
RedoRecord PrepareRecord(const TxnInfo& info) {
  RedoRecord rec;
  rec.type = RedoType::kTxnPrepare;
  rec.txn_id = info.id;
  rec.ts = info.prepare_ts;
  rec.global_txn = info.global_id;
  rec.coordinator = info.coordinator;
  rec.commit_owner = info.commit_owner;
  rec.participants = info.participants;
  return rec;
}
}  // namespace

bool TxnEngine::FencedLocked(const TxnInfo& info) const {
  if (info.global_id == kInvalidGlobalTxnId) return false;
  auto it = decisions_.find(info.global_id);
  return it != decisions_.end() && !it->second.commit;
}

Result<Timestamp> TxnEngine::Prepare(TxnId txn, uint32_t commit_owner,
                                     std::vector<uint32_t> participants) {
  std::unique_lock<std::mutex> lock(mu_);
  TxnInfo* info = FindTxnLocked(txn);
  if (info == nullptr) return Status::NotFound("txn unknown");
  // A retried Prepare RPC (reply lost, coordinator timed out) must not
  // re-log or mint a new prepare_ts: return the one already durable.
  if (info->state == TxnState::kPrepared ||
      info->state == TxnState::kCommitted) {
    return info->prepare_ts;
  }
  if (info->state != TxnState::kActive || FencedLocked(*info)) {
    return Status::Aborted("txn not active at prepare");
  }
  // Conflict validation already happened write-by-write; our uncommitted
  // versions are still heads because later writers would have conflicted.
  info->state = TxnState::kPrepared;
  info->prepare_ts = hlc_->Advance();
  info->commit_owner = commit_owner;
  info->participants = std::move(participants);
  MtrHandle mtr = log_->AppendMtr({PrepareRecord(*info)});
  // Redo must be durable locally before the participant ACKs prepare (§III:
  // flushed to PolarFS before commit).
  RequestDurable(mtr.end_lsn, /*require_local_flush=*/true);
  return info->prepare_ts;
}

Result<Timestamp> TxnEngine::DecideCommit(GlobalTxnId global_id,
                                          Timestamp commit_ts) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = decisions_.find(global_id);
  if (it != decisions_.end()) {
    if (it->second.commit) return it->second.commit_ts;  // retried decide
    return Status::Aborted("abort decision already recorded");
  }
  decisions_.emplace(global_id, CommitDecision{true, commit_ts});
  RedoRecord rec;
  rec.type = RedoType::kTxnCommitPoint;
  rec.ts = commit_ts;
  rec.global_txn = global_id;
  MtrHandle mtr = log_->AppendMtr({rec});
  // The decision IS the commit point: it must survive a crash of this
  // participant before any phase-2 commit is observable.
  RequestDurable(mtr.end_lsn, /*require_local_flush=*/true);
  return commit_ts;
}

void TxnEngine::RecordAbortDecisionLocked(GlobalTxnId global_id) {
  decisions_.emplace(global_id, CommitDecision{false, kInvalidTimestamp});
  RedoRecord rec;
  rec.type = RedoType::kTxnAbortPoint;
  rec.global_txn = global_id;
  MtrHandle mtr = log_->AppendMtr({rec});
  RequestDurable(mtr.end_lsn, /*require_local_flush=*/true);
}

Status TxnEngine::DecideAbort(GlobalTxnId global_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = decisions_.find(global_id);
  if (it != decisions_.end()) {
    if (it->second.commit) {
      return Status::Conflict("commit decision already recorded");
    }
    return Status::Ok();  // retried abort decision
  }
  RecordAbortDecisionLocked(global_id);
  return Status::Ok();
}

Result<CommitDecision> TxnEngine::DecisionOf(GlobalTxnId global_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = decisions_.find(global_id);
  if (it == decisions_.end()) return Status::NotFound("no decision");
  return it->second;
}

Result<TxnInfo> TxnEngine::FenceUnprepared(GlobalTxnId global_id) {
  std::lock_guard<std::mutex> lock(mu_);
  TxnInfo out;
  out.global_id = global_id;
  auto branch = branches_.find(global_id);
  if (branch != branches_.end()) {
    out.id = branch->second;
    const TxnInfo* info = FindTxnLocked(branch->second);
    if (info != nullptr && (info->state == TxnState::kPrepared ||
                            info->state == TxnState::kCommitted)) {
      return CopyMeta(*info);
    }
  }
  auto decided = decisions_.find(global_id);
  if (decided != decisions_.end() && decided->second.commit) {
    out.state = TxnState::kCommitted;  // e.g. a committed branch vacuumed
    out.commit_ts = decided->second.commit_ts;
    return out;
  }
  if (decided == decisions_.end()) RecordAbortDecisionLocked(global_id);
  out.state = TxnState::kAborted;
  return out;
}

Status TxnEngine::ResolveLocked(std::unique_lock<std::mutex>& lock,
                                TxnInfo* info, bool commit,
                                Timestamp commit_ts) {
  if (commit) {
    // Stamp versions before flipping state so readers that see the state
    // change also see commit timestamps (stamp is release, read is acquire).
    for (auto& w : info->writes) {
      w.version->commit_ts.store(commit_ts, std::memory_order_release);
    }
    info->commit_ts = commit_ts;
    info->state = TxnState::kCommitted;
    ++stats_.committed;
  } else {
    info->state = TxnState::kAborted;
    ++stats_.aborted;
  }

  TxnId id = info->id;
  std::vector<std::function<void()>> to_fire;
  auto wit = waiters_.find(id);
  if (wit != waiters_.end()) {
    to_fire = std::move(wit->second);
    waiters_.erase(wit);
  }
  // Abort undo touches table locks; do it outside the engine lock. Nothing
  // reads a resolved transaction's writes, so its remembered TxnInfo pins
  // none of its versions.
  std::vector<TxnInfo::WriteRef> writes = std::move(info->writes);
  lock.unlock();

  if (!commit) {
    // Remove in reverse install order so repeated writes unwind correctly.
    for (auto it = writes.rbegin(); it != writes.rend(); ++it) {
      TableStore* ts = catalog_->FindTable(it->table);
      if (ts != nullptr) ts->rows().RemoveUncommitted(it->key, id);
    }
  }

  for (auto& fn : to_fire) fn();
  return Status::Ok();
}

Status TxnEngine::Commit(TxnId txn, Timestamp commit_ts) {
  hlc_->Update(commit_ts);  // §IV step 7: participants adopt commit_ts
  std::unique_lock<std::mutex> lock(mu_);
  TxnInfo* info = FindTxnLocked(txn);
  if (info == nullptr) return Status::NotFound("txn unknown");
  if (info->state == TxnState::kCommitted) return Status::Ok();  // idempotent
  if (info->state == TxnState::kAborted) {
    return Status::Aborted("txn already aborted");
  }

  RedoRecord rec;
  rec.type = RedoType::kTxnCommit;
  rec.txn_id = txn;
  rec.ts = commit_ts;
  MtrHandle mtr = log_->AppendMtr({rec});
  RequestDurable(mtr.end_lsn, /*require_local_flush=*/true);
  return ResolveLocked(lock, info, /*commit=*/true, commit_ts);
}

Result<Timestamp> TxnEngine::CommitLocal(TxnId txn) {
  std::unique_lock<std::mutex> lock(mu_);
  TxnInfo* info = FindTxnLocked(txn);
  if (info == nullptr) return Status::NotFound("txn unknown");
  if (info->state == TxnState::kCommitted) return info->commit_ts;  // retry
  if (info->state != TxnState::kActive || FencedLocked(*info)) {
    return Status::Aborted("txn not active at local commit");
  }
  const Timestamp commit_ts = hlc_->Advance();
  info->prepare_ts = commit_ts;
  info->participants = {engine_id_};
  // One MTR: the prepare record keeps the branch's global identity across
  // a recovery, and the commit record right behind it is the decision.
  RedoRecord commit;
  commit.type = RedoType::kTxnCommit;
  commit.txn_id = txn;
  commit.ts = commit_ts;
  MtrHandle mtr = log_->AppendMtr({PrepareRecord(*info), commit});
  RequestDurable(mtr.end_lsn, /*require_local_flush=*/true);
  ResolveLocked(lock, info, /*commit=*/true, commit_ts);
  return commit_ts;
}

Status TxnEngine::Abort(TxnId txn) {
  std::unique_lock<std::mutex> lock(mu_);
  TxnInfo* info = FindTxnLocked(txn);
  if (info == nullptr) return Status::NotFound("txn unknown");
  if (info->state == TxnState::kAborted) return Status::Ok();
  if (info->state == TxnState::kCommitted) {
    return Status::InvalidArgument("cannot abort committed txn");
  }
  RedoRecord rec;
  rec.type = RedoType::kTxnAbort;
  rec.txn_id = txn;
  MtrHandle mtr = log_->AppendMtr({rec});
  // Presumed abort: no synchronous flush needed, but with a group-commit
  // hook the abort record must still request a flush or replication would
  // never be kicked for abort-only traffic (RPC repliers park on DLSN
  // reaching the record).
  RequestDurable(mtr.end_lsn, /*require_local_flush=*/false);
  return ResolveLocked(lock, info, /*commit=*/false, 0);
}

void TxnEngine::OnResolved(TxnId txn, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const TxnInfo* info = FindTxnLocked(txn);
    if (info != nullptr && info->state != TxnState::kCommitted &&
        info->state != TxnState::kAborted) {
      waiters_[txn].push_back(std::move(fn));
      return;
    }
  }
  fn();  // already resolved (or unknown): fire immediately
}

Status TxnEngine::RecoverState(const std::vector<RedoRecord>& records) {
  // Pass 1 (no locks): fold the stream into per-transaction replay state.
  struct Replay {
    std::vector<std::pair<TableId, EncodedKey>> writes;
    bool prepared = false;
    bool committed = false;
    bool aborted = false;
    Timestamp prepare_ts = 0;
    Timestamp commit_ts = 0;
    GlobalTxnId global_id = kInvalidGlobalTxnId;
    uint32_t coordinator = 0;
    uint32_t commit_owner = 0;
    std::vector<uint32_t> participants;
  };
  std::map<TxnId, Replay> replays;  // ordered for deterministic replay
  std::vector<std::pair<GlobalTxnId, CommitDecision>> decisions;
  Timestamp max_ts = 0;
  for (const RedoRecord& rec : records) {
    switch (rec.type) {
      case RedoType::kInsert:
      case RedoType::kUpdate:
      case RedoType::kDelete:
        replays[rec.txn_id].writes.emplace_back(rec.table_id, rec.key);
        break;
      case RedoType::kTxnPrepare: {
        Replay& r = replays[rec.txn_id];
        r.prepared = true;
        r.prepare_ts = rec.ts;
        r.global_id = rec.global_txn;
        r.coordinator = rec.coordinator;
        r.commit_owner = rec.commit_owner;
        r.participants = rec.participants;
        max_ts = std::max(max_ts, rec.ts);
        break;
      }
      case RedoType::kTxnCommit: {
        Replay& r = replays[rec.txn_id];
        r.committed = true;
        r.commit_ts = rec.ts;
        max_ts = std::max(max_ts, rec.ts);
        break;
      }
      case RedoType::kTxnAbort:
        replays[rec.txn_id].aborted = true;
        break;
      case RedoType::kTxnCommitPoint:
        decisions.emplace_back(rec.global_txn, CommitDecision{true, rec.ts});
        max_ts = std::max(max_ts, rec.ts);
        break;
      case RedoType::kTxnAbortPoint:
        decisions.emplace_back(rec.global_txn,
                               CommitDecision{false, kInvalidTimestamp});
        break;
      case RedoType::kPaxos:
      case RedoType::kCheckpoint:
      case RedoType::kDdl:
        break;
    }
  }

  // Pass 2 (table locks only): wire each unresolved transaction's
  // still-uncommitted versions back to the catalog the applier rebuilt, so
  // a later Commit can stamp them and an Abort can unlink them.
  std::map<TxnId, std::vector<TxnInfo::WriteRef>> wired;
  for (auto& [txn_id, r] : replays) {
    if (r.committed || r.aborted) continue;
    std::vector<TxnInfo::WriteRef>& refs = wired[txn_id];
    std::set<std::pair<TableId, EncodedKey>> seen;
    for (auto& [table, key] : r.writes) {
      if (!seen.insert({table, key}).second) continue;
      TableStore* ts = catalog_->FindTable(table);
      if (ts == nullptr) continue;
      for (VersionPtr v = ts->rows().Head(key); v != nullptr; v = v->prev) {
        if (v->txn_id == txn_id &&
            v->commit_ts.load(std::memory_order_acquire) ==
                kInvalidTimestamp) {
          refs.push_back(TxnInfo::WriteRef{table, key, v});
        }
      }
    }
  }

  // Pass 3 (engine lock): install transaction state.
  std::vector<std::pair<TxnId, std::vector<TxnInfo::WriteRef>>> presumed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t max_counter = 0;
    for (auto& [txn_id, r] : replays) {
      if ((txn_id >> 40) == engine_id_) {
        max_counter = std::max<uint64_t>(
            max_counter, txn_id & ((uint64_t(1) << 40) - 1));
      }
      auto info = std::make_unique<TxnInfo>();
      info->id = txn_id;
      info->prepare_ts = r.prepare_ts;
      info->global_id = r.global_id;
      info->coordinator = r.coordinator;
      info->commit_owner = r.commit_owner;
      info->participants = std::move(r.participants);
      if (r.committed) {
        info->state = TxnState::kCommitted;
        info->commit_ts = r.commit_ts;
      } else if (r.aborted) {
        info->state = TxnState::kAborted;
      } else if (r.prepared) {
        // In-doubt: hold writes until the coordinator (or the recovery
        // resolver, if the coordinator is dead) decides.
        info->state = TxnState::kPrepared;
        info->writes = wired[txn_id];
      } else {
        // Writes but no prepare: the coordinator died before phase 1
        // finished here. Presumed abort — nobody can ever commit this
        // branch, and its uncommitted versions would block writers forever.
        info->state = TxnState::kAborted;
        ++stats_.aborted;
        presumed.emplace_back(txn_id, std::move(wired[txn_id]));
      }
      if (r.global_id != kInvalidGlobalTxnId) {
        branches_.emplace(r.global_id, txn_id);
      }
      txns_[txn_id] = std::move(info);
    }
    for (auto& [gid, d] : decisions) decisions_.emplace(gid, d);
    uint64_t want = max_counter + 1;
    if (next_txn_.load(std::memory_order_relaxed) < want) {
      next_txn_.store(want, std::memory_order_relaxed);
    }
  }

  // Pass 4 (table locks only): unlink presumed-aborted versions and log
  // the aborts so a second recovery of this log sees them resolved.
  for (auto& [txn_id, refs] : presumed) {
    for (auto it = refs.rbegin(); it != refs.rend(); ++it) {
      TableStore* ts = catalog_->FindTable(it->table);
      if (ts != nullptr) ts->rows().RemoveUncommitted(it->key, txn_id);
    }
    RedoRecord rec;
    rec.type = RedoType::kTxnAbort;
    rec.txn_id = txn_id;
    MtrHandle mtr = log_->AppendMtr({rec});
    RequestDurable(mtr.end_lsn, /*require_local_flush=*/true);
  }

  if (max_ts != 0) hlc_->Update(max_ts);
  return Status::Ok();
}

size_t TxnEngine::Vacuum(Timestamp before_ts) {
  size_t freed = 0;
  for (TableStore* table : catalog_->AllTables()) {
    freed += table->rows().Vacuum(before_ts);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = txns_.begin(); it != txns_.end();) {
    const TxnInfo& info = *it->second;
    bool resolved = info.state == TxnState::kCommitted ||
                    info.state == TxnState::kAborted;
    if (resolved && info.commit_ts < before_ts) {
      if (info.state == TxnState::kCommitted &&
          info.global_id != kInvalidGlobalTxnId) {
        decisions_.emplace(info.global_id,
                           CommitDecision{true, info.commit_ts});
      }
      it = txns_.erase(it);
    } else {
      ++it;
    }
  }
  return freed;
}

TxnEngineStats TxnEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace polarx
