#include "src/storage/mvcc.h"

namespace polarx {

VersionPtr MvccTable::Head(const EncodedKey& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : it->second;
}

void MvccTable::Push(const EncodedKey& key, VersionPtr version) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  VersionPtr& head = rows_[key];
  version->prev = head;
  head = std::move(version);
}

MvccTable::PushResult MvccTable::PushChecked(const EncodedKey& key,
                                             VersionPtr version,
                                             Timestamp snapshot_ts,
                                             TxnId writer) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  VersionPtr& head = rows_[key];
  if (head != nullptr) {
    Timestamp cts = head->commit_ts.load(std::memory_order_acquire);
    if (cts == kInvalidTimestamp) {
      if (head->txn_id != writer) return PushResult::kConflictUncommitted;
    } else if (cts > snapshot_ts) {
      return PushResult::kConflictNewer;
    }
  }
  version->prev = head;
  head = std::move(version);
  return PushResult::kOk;
}

bool MvccTable::RemoveUncommitted(const EncodedKey& key, TxnId txn) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = rows_.find(key);
  if (it == rows_.end()) return false;
  if (it->second == nullptr || it->second->txn_id != txn ||
      it->second->commit_ts.load(std::memory_order_acquire) !=
          kInvalidTimestamp) {
    return false;
  }
  it->second = it->second->prev;
  if (it->second == nullptr) rows_.erase(it);
  return true;
}

size_t MvccTable::ScanRange(
    const EncodedKey& from, const EncodedKey& to,
    const std::function<bool(const EncodedKey&, const VersionPtr&)>& fn)
    const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = rows_.lower_bound(from);
  auto end = to.empty() ? rows_.end() : rows_.lower_bound(to);
  size_t visited = 0;
  for (; it != end; ++it) {
    ++visited;
    if (!fn(it->first, it->second)) break;
  }
  return visited;
}

size_t MvccTable::ScanAll(
    const std::function<bool(const EncodedKey&, const VersionPtr&)>& fn)
    const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t visited = 0;
  for (const auto& [key, head] : rows_) {
    ++visited;
    if (!fn(key, head)) break;
  }
  return visited;
}

size_t MvccTable::Vacuum(Timestamp before_ts) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  size_t freed = 0;
  for (auto it = rows_.begin(); it != rows_.end();) {
    // Find the newest version with commit_ts <= before_ts; cut its tail.
    VersionPtr v = it->second;
    VersionPtr anchor;  // newest version visible to the horizon
    while (v != nullptr) {
      Timestamp cts = v->commit_ts.load(std::memory_order_acquire);
      if (cts != kInvalidTimestamp && cts <= before_ts) {
        anchor = v;
        break;
      }
      v = v->prev;
    }
    if (anchor != nullptr) {
      VersionPtr tail = anchor->prev;
      anchor->prev = nullptr;
      while (tail != nullptr) {
        ++freed;
        tail = tail->prev;
      }
      // A key whose entire visible history is a single old tombstone can go.
      if (it->second == anchor && anchor->deleted) {
        ++freed;
        it = rows_.erase(it);
        continue;
      }
    }
    ++it;
  }
  return freed;
}

size_t MvccTable::NumKeys() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return rows_.size();
}

}  // namespace polarx
