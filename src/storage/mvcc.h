// Multi-version row storage: each key maps to a newest-first chain of
// versions. Writers install uncommitted versions tagged with their TxnId;
// commit stamps a commit_ts into each installed version. Visibility
// decisions (which need transaction state) live in the transaction engine
// (src/txn/engine.h); this layer only stores and orders versions.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "src/common/types.h"
#include "src/storage/key_codec.h"
#include "src/storage/value.h"

namespace polarx {

/// One version of a row. `commit_ts == kInvalidTimestamp` means the writing
/// transaction has not committed yet; readers consult the writer's state.
struct Version {
  TxnId txn_id = kInvalidTxnId;
  std::atomic<Timestamp> commit_ts{kInvalidTimestamp};
  bool deleted = false;  // tombstone
  Row row;
  std::shared_ptr<Version> prev;

  Version() = default;
  Version(TxnId txn, bool del, Row r)
      : txn_id(txn), deleted(del), row(std::move(r)) {}
};

using VersionPtr = std::shared_ptr<Version>;

/// Newest committed version visible at `snapshot_ts`, or nullptr. This is
/// the replica/AP-side visibility rule (uncommitted versions are simply
/// invisible; transactional readers with prepared-wait semantics use
/// TxnEngine instead).
inline const Version* LatestVisible(const VersionPtr& head,
                                    Timestamp snapshot_ts) {
  for (const Version* v = head.get(); v != nullptr; v = v->prev.get()) {
    Timestamp cts = v->commit_ts.load(std::memory_order_acquire);
    if (cts != kInvalidTimestamp && cts <= snapshot_ts) return v;
  }
  return nullptr;
}

/// Ordered multi-version key/row map for one table's primary index.
/// Thread-safe; scans hold a shared lock.
class MvccTable {
 public:
  MvccTable() = default;

  /// Returns the newest version for `key`, or nullptr.
  VersionPtr Head(const EncodedKey& key) const;

  /// Pushes `version` as the new head for `key` (its prev is linked to the
  /// current head).
  void Push(const EncodedKey& key, VersionPtr version);

  /// Outcome of an atomic conflict-check-and-push.
  enum class PushResult {
    kOk,
    /// Head is an uncommitted version from another transaction.
    kConflictUncommitted,
    /// Head committed after the writer's snapshot (first-committer-wins).
    kConflictNewer,
  };

  /// Atomically applies SI write-write conflict checks against the current
  /// head and pushes `version` if they pass. `snapshot_ts` is the writer's
  /// snapshot; `writer` its TxnId (own uncommitted heads are overwritable).
  PushResult PushChecked(const EncodedKey& key, VersionPtr version,
                         Timestamp snapshot_ts, TxnId writer);

  /// Removes the head version if it was written by `txn` (abort path).
  /// Returns true if a version was removed.
  bool RemoveUncommitted(const EncodedKey& key, TxnId txn);

  /// Iterates keys in [from, to) in order; empty `to` means unbounded.
  /// `fn` returns false to stop early. Returns number of keys visited.
  size_t ScanRange(const EncodedKey& from, const EncodedKey& to,
                   const std::function<bool(const EncodedKey&,
                                            const VersionPtr&)>& fn) const;

  /// Iterates every key (full scan).
  size_t ScanAll(const std::function<bool(const EncodedKey&,
                                          const VersionPtr&)>& fn) const;

  /// Drops versions no snapshot at or after `before_ts` can see: for each
  /// key, keeps the newest version with commit_ts <= before_ts and all newer
  /// ones. Keys whose only surviving version is a tombstone older than
  /// `before_ts` are removed entirely. Returns versions freed.
  size_t Vacuum(Timestamp before_ts);

  size_t NumKeys() const;

 private:
  mutable std::shared_mutex mu_;
  std::map<EncodedKey, VersionPtr> rows_;
};

}  // namespace polarx
