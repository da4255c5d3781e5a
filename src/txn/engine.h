// The per-DN transaction engine: snapshot-isolation MVCC over TableCatalog,
// with the ACTIVE -> PREPARED -> COMMITTED/ABORTED lifecycle of §IV.
//
// Visibility (the paper's three cases): when a reader with snapshot_ts
// encounters a version written by transaction T1,
//   1. T1 COMMITTED: the version is visible iff T1.commit_ts <= snapshot_ts;
//   2. T1 PREPARED with prepare_ts <= snapshot_ts: the reader must wait for
//      T1 to finish (commit_ts is still undetermined). If prepare_ts >
//      snapshot_ts then commit_ts >= prepare_ts > snapshot_ts, so the
//      version is safely invisible without waiting;
//   3. T1 ACTIVE: invisible (proved in §IV: T1.commit_ts will exceed
//      snapshot_ts).
//
// The engine is synchronous: reads blocked by a PREPARED writer return
// Status::Busy plus the blocking TxnId; callers subscribe via OnResolved()
// and serve the read again once the writer resolves.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/clock/hlc.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/redo.h"
#include "src/storage/table.h"

namespace polarx {

enum class TxnState : uint8_t { kActive, kPrepared, kCommitted, kAborted };

/// Engine-side record of one transaction.
struct TxnInfo {
  TxnId id = kInvalidTxnId;
  TxnState state = TxnState::kActive;
  Timestamp snapshot_ts = 0;
  Timestamp prepare_ts = 0;
  Timestamp commit_ts = 0;
  /// 2PC branch identity: the distributed transaction this branch belongs
  /// to (0 for purely local transactions), the coordinator incarnation
  /// driving it, and, from prepare on, either the engine id of the
  /// commit-point participant (explicit decision, TSO-SI) or the engine id
  /// of every participant (implicit commit, HLC-SI).
  GlobalTxnId global_id = kInvalidGlobalTxnId;
  uint32_t coordinator = 0;
  uint32_t commit_owner = 0;
  std::vector<uint32_t> participants;
  /// Writes installed by this transaction, for commit stamping / abort undo.
  struct WriteRef {
    TableId table;
    EncodedKey key;
    VersionPtr version;
  };
  std::vector<WriteRef> writes;
};

/// Durable coordinator decision for one global transaction, held by the
/// commit-point participant (first-writer-wins; see DecideCommit).
struct CommitDecision {
  bool commit = false;
  Timestamp commit_ts = kInvalidTimestamp;  // valid iff commit
};

/// Statistics for benchmarks and tests.
struct TxnEngineStats {
  uint64_t begun = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t conflicts = 0;
  uint64_t prepared_waits = 0;
};

/// Engine behaviour switches.
struct TxnEngineOptions {
  /// HLC-SI guarantees commit_ts >= prepare_ts, so a PREPARED writer whose
  /// prepare_ts exceeds the reader's snapshot is provably invisible and the
  /// reader need not wait (§IV). Under TSO-SI commit timestamps come from
  /// the oracle and that inequality does not hold, so the filter must be
  /// disabled (Percolator-style: wait on any PREPARED writer).
  bool use_prepare_ts_filter = true;
  /// Incarnation of this engine instance, folded into every minted TxnId.
  /// A rebuilt engine (failover promotion) must never re-issue an id from a
  /// previous life: branches that only ever lived in the old instance's
  /// memory are unrecoverable from the log, and a retried 2PC RPC carrying
  /// such an id would otherwise alias a fresh branch that happened to draw
  /// the same counter value — preparing (and committing) the wrong writes.
  uint32_t id_epoch = 0;
};

class TxnEngine {
 public:
  /// `engine_id` namespaces TxnIds so ids from different DNs never collide.
  /// `hlc` is the node clock (used for local commits); `log`/`pool` receive
  /// redo records and dirty-page marks (either may be shared with other
  /// engines on the same node).
  TxnEngine(uint32_t engine_id, TableCatalog* catalog, Hlc* hlc,
            RedoLog* log, BufferPool* pool, TxnEngineOptions options = {});

  TableCatalog* catalog() { return catalog_; }
  Hlc* hlc() { return hlc_; }
  RedoLog* redo_log() { return log_; }
  uint32_t engine_id() const { return engine_id_; }

  /// Installs the write-path durability hook (redo group commit). When
  /// set, commit-path operations (Prepare, Decide*, Commit, Abort,
  /// recovery resolutions) no longer call MarkFlushed synchronously;
  /// they hand their MTR's end LSN to the hook, which owns scheduling
  /// the (batched) flush and the replication kick. The caller still must
  /// not treat the operation as durable until the covering LSN is
  /// replicated (AsyncCommitter waiter) — the hook only REQUESTS
  /// durability. Unset (default): the engine flushes synchronously, the
  /// standalone single-node behaviour.
  void SetDurabilityHook(std::function<void(Lsn)> hook) {
    durability_hook_ = std::move(hook);
  }

  // ---- lifecycle ----

  /// Starts a transaction reading at `snapshot_ts` (from ClockNow on the
  /// coordinator for distributed transactions, or this node's clock for
  /// local ones; pass 0 to take a local snapshot).
  TxnId Begin(Timestamp snapshot_ts = 0);

  /// Starts (or re-finds) the local branch of distributed transaction
  /// `global_id` driven by coordinator incarnation `coordinator`.
  /// Idempotent: a duplicate call (a retried Begin RPC after a lost reply)
  /// returns the existing branch instead of minting a second one — this is
  /// the dedup key that makes CN-side write retries safe.
  TxnId BeginBranch(Timestamp snapshot_ts, GlobalTxnId global_id,
                    uint32_t coordinator);

  /// Branch of `global_id` at this engine, or NotFound.
  Result<TxnId> BranchOf(GlobalTxnId global_id) const;

  /// First 2PC phase: validates and transitions to PREPARED, obtaining
  /// prepare_ts from ClockAdvance(). On success also durably logs the
  /// prepare record (carrying the branch's global id, coordinator,
  /// `commit_owner` and `participants` — what in-doubt recovery needs to
  /// resolve this branch after a crash). Refuses (Aborted) a branch whose
  /// global id already has an abort decision here: the resolver's fence.
  /// Idempotent: re-preparing a PREPARED branch returns its prepare_ts
  /// without logging again.
  Result<Timestamp> Prepare(TxnId txn, uint32_t commit_owner = 0,
                            std::vector<uint32_t> participants = {});

  /// One-phase commit of a transaction with one branch: a local one, or a
  /// distributed one whose only branch is here. Prepares and commits in one
  /// MTR at prepare_ts = commit_ts = ClockAdvance(), with one durability
  /// request, so concurrent readers never see the branch PREPARED. That
  /// commit record is the transaction's decision. Refused like Prepare;
  /// idempotent for a COMMITTED branch (returns its commit_ts).
  Result<Timestamp> CommitLocal(TxnId txn);

  // ---- 2PC decision registry (commit-point participant role) ----
  //
  // Percolator-primary style commit point: before fanning out phase-2
  // commits, the coordinator durably records its decision at ONE designated
  // participant (the "commit owner", by convention the first branch's
  // engine). Recovery consults this registry: decision present -> follow
  // it; absent -> presumed abort, recorded via DecideAbort so a slow
  // coordinator that wakes up later cannot contradict it. First writer
  // wins; the loser is told what was decided.

  /// Records "commit at commit_ts" for `global_id`. Fails with Aborted if
  /// an abort decision already won the race. Durable before returning.
  Result<Timestamp> DecideCommit(GlobalTxnId global_id, Timestamp commit_ts);

  /// Records "abort" for `global_id` (presumed-abort resolution). Fails
  /// with Conflict if a commit decision already won — the caller must then
  /// re-read DecisionOf and commit the branches instead. Idempotent for
  /// repeated aborts. Durable before returning.
  Status DecideAbort(GlobalTxnId global_id);

  /// The recorded decision for `global_id`, or NotFound if none yet.
  Result<CommitDecision> DecisionOf(GlobalTxnId global_id) const;

  /// The in-doubt resolver's fence (implicit commit). Reports the branch of
  /// `global_id` here if it is PREPARED or COMMITTED (a committed branch
  /// Vacuum forgot reports its recorded commit_ts); otherwise durably
  /// records an abort decision first, so any later Prepare or
  /// CommitLocal of the global is refused, and reports kAborted. The id
  /// is kInvalidTxnId when no branch is known here.
  Result<TxnInfo> FenceUnprepared(GlobalTxnId global_id);

  /// Second 2PC phase: stamps commit_ts (the coordinator's max prepare_ts)
  /// onto all written versions, logs the commit, wakes waiters, and calls
  /// ClockUpdate(commit_ts) on the node clock.
  Status Commit(TxnId txn, Timestamp commit_ts);

  Status Abort(TxnId txn);

  /// Looks up transaction state (kNotFound after GC).
  Result<TxnState> StateOf(TxnId txn) const;
  Result<TxnInfo> InfoOf(TxnId txn) const;

  /// Metadata snapshot of every transaction the engine remembers (tests /
  /// invariant checkers). No write refs.
  std::vector<TxnInfo> TxnsSnapshot() const;

  // ---- crash recovery ----

  /// Rebuilds transaction state from a replayed redo stream. Call after
  /// RedoApplier has reconstructed the catalog from the same records:
  ///   - PREPARED branches are re-registered in-doubt, their uncommitted
  ///     versions re-wired from the catalog (so a later Commit/Abort can
  ///     stamp or unlink them);
  ///   - resolved transactions are re-registered so visibility checks and
  ///     idempotent Commit/Abort keep working;
  ///   - ACTIVE transactions (writes but no prepare/commit/abort — their
  ///     coordinator died before prepare) are presumed-abort: versions
  ///     unlinked, an abort record appended;
  ///   - the decision registry is rebuilt from commit/abort-point records;
  ///   - the txn-id counter advances past every recovered own id, and the
  ///     HLC past every recovered timestamp.
  Status RecoverState(const std::vector<RedoRecord>& records);

  // ---- reads ----

  /// Point read under the transaction's snapshot. Returns NotFound if no
  /// visible version exists, Busy (with *blocker set) if a PREPARED writer
  /// must be waited for.
  Status Read(TxnId txn, TableId table, const EncodedKey& key, Row* out,
              TxnId* blocker = nullptr);

  /// Range scan of visible rows over [from, to) (empty to = unbounded).
  /// Returns Busy if any row needs a prepared-wait.
  Status ScanVisible(TxnId txn, TableId table, const EncodedKey& from,
                     const EncodedKey& to,
                     const std::function<bool(const EncodedKey&, const Row&)>&
                         fn,
                     TxnId* blocker = nullptr);

  /// Snapshot read without a transaction (read-only autocommit).
  Status ReadAt(Timestamp snapshot_ts, TableId table, const EncodedKey& key,
                Row* out, TxnId* blocker = nullptr);

  // ---- writes ----

  Status Insert(TxnId txn, TableId table, const Row& row);

  /// Bulk-load fast path: installs all `rows` (no duplicate-key read per
  /// row — the caller owns key uniqueness, e.g. a benchmark seeding a
  /// fresh table) and appends ONE redo MTR covering every row instead of
  /// an MTR per Insert. On any write-write conflict the already-installed
  /// versions of this call are unwound and nothing is logged.
  Status BulkLoad(TxnId txn, TableId table, const std::vector<Row>& rows);

  /// Inserts or updates without an existence check.
  Status Update(TxnId txn, TableId table, const Row& row);
  Status Delete(TxnId txn, TableId table, const EncodedKey& key);

  // ---- waiting ----

  /// Registers a callback fired when `txn` resolves (or immediately if it
  /// already has): the prepared-wait of every transport.
  void OnResolved(TxnId txn, std::function<void()> fn);

  // ---- maintenance ----

  /// Removes versions invisible to any snapshot >= `before_ts` and forgets
  /// resolved transactions older than it. A forgotten committed branch of a
  /// distributed transaction leaves its commit_ts in the decision registry,
  /// so the resolver never mistakes it for a missing branch.
  size_t Vacuum(Timestamp before_ts);

  TxnEngineStats stats() const;

 private:
  enum class Visibility { kVisible, kInvisible, kMustWait };

  /// Classifies one version against a snapshot; fills *blocker on kMustWait.
  Visibility CheckVisibility(const VersionPtr& v, Timestamp snapshot_ts,
                             TxnId reader, TxnId* blocker) const;

  Status ReadAtInternal(Timestamp snapshot_ts, TxnId reader, TableId table,
                        const EncodedKey& key, Row* out, TxnId* blocker);

  /// Shared write path: installs an uncommitted version after SI
  /// first-committer-wins conflict checks.
  Status Write(TxnId txn, TableId table, const EncodedKey& key, Row row,
               bool deleted, RedoType redo_type);

  Status ResolveLocked(std::unique_lock<std::mutex>& lock, TxnInfo* info,
                       bool commit, Timestamp commit_ts);

  /// Records an abort decision for `global_id` (no decision may exist yet).
  void RecordAbortDecisionLocked(GlobalTxnId global_id);
  /// Whether `info`'s global transaction has an abort decision here.
  bool FencedLocked(const TxnInfo& info) const;

  /// Routes a commit-path durability request: the hook when installed
  /// (group commit), else a synchronous MarkFlushed when the operation
  /// requires local durability before returning. Aborts pass
  /// `require_local_flush=false` — without a hook they are lazily
  /// flushed (riding a later flush), matching presumed-abort semantics.
  void RequestDurable(Lsn end_lsn, bool require_local_flush);

  TxnId MintTxnId();
  TxnInfo* FindTxnLocked(TxnId txn);
  const TxnInfo* FindTxnLocked(TxnId txn) const;

  const uint32_t engine_id_;
  const TxnEngineOptions options_;
  TableCatalog* catalog_;
  Hlc* hlc_;
  RedoLog* log_;
  BufferPool* pool_;

  mutable std::mutex mu_;
  std::atomic<uint64_t> next_txn_{1};
  std::unordered_map<TxnId, std::unique_ptr<TxnInfo>> txns_;
  std::unordered_map<TxnId, std::vector<std::function<void()>>> waiters_;
  /// global txn id -> local branch (BeginBranch dedup, recovery lookups).
  std::unordered_map<GlobalTxnId, TxnId> branches_;
  /// Decision registry: commit points of globals whose commit owner is
  /// this engine, the resolver's abort fences, and the commit_ts of
  /// committed branches Vacuum forgot.
  std::unordered_map<GlobalTxnId, CommitDecision> decisions_;
  std::function<void(Lsn)> durability_hook_;
  TxnEngineStats stats_;
};

}  // namespace polarx
