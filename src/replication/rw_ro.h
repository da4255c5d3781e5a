// RW -> RO physical replication (§II-C, Fig. 3): RO replicas consume the RW
// node's redo stream, apply it to their buffer-pool/table mirror, and report
// back the consumed offset lsn_RO. The RW may only purge redo and flush
// dirty pages below min{lsn_RO}; replicas lagging more than a threshold are
// kicked out so they cannot stall the RW. Session consistency is provided
// by WaitForLsn: a CN forwards the RW's latest LSN with the read, and the RO
// waits until its applied snapshot covers it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/replication/redo_applier.h"
#include "src/storage/redo.h"
#include "src/storage/table.h"

namespace polarx {

/// One read-only replica: a mirror catalog fed from the RW redo stream.
class RoReplica {
 public:
  /// `id` is diagnostic; the replica mirrors tables created via
  /// MirrorTable() (schema must match the RW side).
  explicit RoReplica(uint32_t id);

  uint32_t id() const { return id_; }
  TableCatalog* catalog() { return &catalog_; }

  /// Declares a table on this replica (mirrors of RW tables).
  Status MirrorTable(TableId table_id, const std::string& name,
                     const Schema& schema, TenantId tenant = 0);

  /// Pulls and applies redo from `rw_log` up to its flushed LSN (steps 5-6
  /// of Fig. 3). Returns the new applied LSN. Thread-safe.
  Result<Lsn> PullFrom(const RedoLog& rw_log);

  /// The replica's replication offset lsn_RO (step 7 of Fig. 3).
  Lsn applied_lsn() const { return applied_lsn_.load(); }

  /// Snapshot version for reads: the max commit timestamp applied.
  Timestamp SnapshotTs() const { return applier_.max_commit_ts(); }

  /// Session consistency (§II-C): blocks until applied_lsn >= lsn or the
  /// timeout elapses. The caller (CN) passes the RW's LSN at its last write.
  Status WaitForLsn(Lsn lsn, uint64_t timeout_ms = 1000);

  /// Snapshot point read on the replica.
  Status Read(TableId table, const EncodedKey& key, Row* out,
              Timestamp snapshot_ts = 0) const;

  /// Snapshot range scan on the replica (empty `to` = unbounded).
  Status Scan(TableId table, const EncodedKey& from, const EncodedKey& to,
              Timestamp snapshot_ts,
              const std::function<bool(const EncodedKey&, const Row&)>& fn)
      const;

  RedoApplier* applier() { return &applier_; }

 private:
  uint32_t id_;
  TableCatalog catalog_;
  RedoApplier applier_;
  std::atomic<Lsn> applied_lsn_{1};
  mutable std::mutex apply_mu_;
  std::condition_variable applied_cv_;
};

/// The RW node's view of its replica set: broadcast of new-log notifications
/// and feedback-based purge/kick-out policy.
class RwRoReplication {
 public:
  struct Options {
    /// Kick a replica whose byte lag exceeds this (paper: ~one million).
    uint64_t max_lag_bytes = 1 << 20;
  };

  explicit RwRoReplication(RedoLog* rw_log) : RwRoReplication(rw_log, Options{}) {}
  RwRoReplication(RedoLog* rw_log, Options options);

  /// Attaches a replica. It starts at the log's current purge horizon.
  void AddReplica(RoReplica* replica);

  /// Step 4 of Fig. 3: broadcast "log advanced" — here, synchronously lets
  /// every attached (non-kicked) replica pull. Returns min lsn_RO.
  Lsn SyncAll();

  /// min{lsn_RO} over live replicas (RW's purge/flush bound), or the RW
  /// flushed LSN if no replicas are attached.
  Lsn MinRoLsn() const;

  /// Applies the kick-out policy: replicas lagging beyond max_lag_bytes are
  /// detached. Returns ids kicked.
  std::vector<uint32_t> KickLaggards();

  /// Purges RW redo below min{lsn_RO} (callable after dirty-page flush).
  void PurgeConsumedLog();

  const std::vector<RoReplica*>& replicas() const { return replicas_; }

 private:
  RedoLog* rw_log_;
  Options options_;
  mutable std::mutex mu_;
  std::vector<RoReplica*> replicas_;
};

}  // namespace polarx
