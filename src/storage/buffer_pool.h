// Buffer pool page-state tracking. Row data itself lives in the MVCC tables
// (src/storage/mvcc.h); the buffer pool tracks which logical pages are
// resident and dirty, and enforces the two flushing invariants the paper's
// replication design depends on:
//   - a dirty page may only be flushed once every LSN it contains is durable
//     on a majority (newest_modification <= DLSN, §III) and has been consumed
//     by all ROs (<= min lsn_RO, §II-C);
//   - after leader failover, the old leader must evict dirty pages whose
//     modifications were never acknowledged (newest_modification > DLSN).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace polarx {

/// Composes a PageId from a table and a page number within the table.
inline PageId MakePageId(TableId table, uint32_t page_no) {
  return (static_cast<PageId>(table) << 32) | page_no;
}
inline TableId PageTable(PageId page) {
  return static_cast<TableId>(page >> 32);
}

/// Destination of flushed pages (PolarFS in production; in-memory here).
class PageStore {
 public:
  virtual ~PageStore() = default;
  /// Persists page `page` whose newest modification is `newest_lsn`.
  virtual Status WritePage(PageId page, Lsn newest_lsn) = 0;
};

/// Counts writes; the default store for unit tests.
class CountingPageStore : public PageStore {
 public:
  Status WritePage(PageId page, Lsn newest_lsn) override;
  uint64_t writes() const { return writes_; }
  /// Last durable LSN per page.
  Lsn PersistedLsn(PageId page) const;

 private:
  mutable std::mutex mu_;
  uint64_t writes_ = 0;
  std::unordered_map<PageId, Lsn> persisted_;
};

/// Tracks page residency/dirtiness with LRU eviction of clean pages.
class BufferPool {
 public:
  /// `capacity_pages` caps resident pages; 0 means unbounded.
  BufferPool(PageStore* store, size_t capacity_pages = 0);

  /// Marks a page modified by the MTR spanning [start_lsn, end_lsn) (pins
  /// it resident): `start_lsn` is the oldest modification if the page was
  /// clean, and `end_lsn` raises the newest, so the flush and discard gates
  /// compare the end of every record on the page.
  void MarkDirty(PageId page, Lsn start_lsn, Lsn end_lsn);

  /// Read access for LRU accounting.
  void Touch(PageId page);

  /// Flushes dirty pages whose newest modification <= `limit_lsn` to the
  /// store. Returns the number flushed. This is the flush gate on DLSN /
  /// min lsn_RO.
  size_t FlushUpTo(Lsn limit_lsn);

  /// Flushes every dirty page of `table` regardless of the gate (tenant
  /// transfer drains a tenant's pages before rebinding, §V) and drops them
  /// from the pool.
  size_t FlushAndDropTable(TableId table);

  /// Evicts dirty pages whose newest modification is after `lsn` WITHOUT
  /// flushing them (old-leader cleanup after failover, §III). Returns the
  /// number evicted.
  size_t DiscardDirtyAfter(Lsn lsn);

  /// Smallest oldest-modification LSN among dirty pages, or kMaxLsn if none;
  /// the redo log may be checkpointed below this.
  Lsn MinDirtyLsn() const;

  size_t resident_pages() const;
  size_t dirty_pages() const;
  uint64_t flushes() const { return flushes_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Frame {
    bool dirty = false;
    Lsn oldest_mod = kInvalidLsn;
    Lsn newest_mod = kInvalidLsn;
    std::list<PageId>::iterator lru_it;
  };

  void TouchLocked(PageId page, Frame* frame);
  void MaybeEvictLocked();

  PageStore* store_;
  size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<PageId, Frame> frames_;
  std::list<PageId> lru_;  // front = most recent
  uint64_t flushes_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace polarx
