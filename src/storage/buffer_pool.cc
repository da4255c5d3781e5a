#include "src/storage/buffer_pool.h"

#include <algorithm>
#include <cassert>

namespace polarx {

Status CountingPageStore::WritePage(PageId page, Lsn newest_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  ++writes_;
  Lsn& slot = persisted_[page];
  slot = std::max(slot, newest_lsn);
  return Status::Ok();
}

Lsn CountingPageStore::PersistedLsn(PageId page) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = persisted_.find(page);
  return it == persisted_.end() ? kInvalidLsn : it->second;
}

BufferPool::BufferPool(PageStore* store, size_t capacity_pages)
    : store_(store), capacity_(capacity_pages) {
  assert(store_ != nullptr);
}

void BufferPool::TouchLocked(PageId page, Frame* frame) {
  lru_.erase(frame->lru_it);
  lru_.push_front(page);
  frame->lru_it = lru_.begin();
}

void BufferPool::MaybeEvictLocked() {
  if (capacity_ == 0) return;
  // Evict clean pages starting from the LRU tail; dirty pages are skipped
  // (they must be flushed through the gate first). If every page is dirty
  // the pool temporarily exceeds capacity, as InnoDB does under flush lag.
  while (frames_.size() > capacity_) {
    bool evicted = false;
    if (!lru_.empty()) {
      for (auto it = std::prev(lru_.end());; --it) {
        auto fit = frames_.find(*it);
        if (fit != frames_.end() && !fit->second.dirty) {
          frames_.erase(fit);
          lru_.erase(it);
          ++evictions_;
          evicted = true;
          break;
        }
        if (it == lru_.begin()) break;
      }
    }
    if (!evicted) break;
  }
}

void BufferPool::MarkDirty(PageId page, Lsn start_lsn, Lsn end_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(page);
  if (it == frames_.end()) {
    lru_.push_front(page);
    Frame frame;
    frame.dirty = true;
    frame.oldest_mod = start_lsn;
    frame.newest_mod = end_lsn;
    frame.lru_it = lru_.begin();
    frames_.emplace(page, frame);
    MaybeEvictLocked();
    return;
  }
  Frame& frame = it->second;
  if (!frame.dirty) {
    frame.dirty = true;
    frame.oldest_mod = start_lsn;
  }
  frame.newest_mod = std::max(frame.newest_mod, end_lsn);
  TouchLocked(page, &frame);
}

void BufferPool::Touch(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(page);
  if (it == frames_.end()) {
    lru_.push_front(page);
    Frame frame;
    frame.lru_it = lru_.begin();
    frames_.emplace(page, frame);
    MaybeEvictLocked();
    return;
  }
  TouchLocked(page, &it->second);
}

size_t BufferPool::FlushUpTo(Lsn limit_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t flushed = 0;
  for (auto& [page, frame] : frames_) {
    if (frame.dirty && frame.newest_mod <= limit_lsn) {
      store_->WritePage(page, frame.newest_mod);
      frame.dirty = false;
      frame.oldest_mod = kInvalidLsn;
      ++flushed;
      ++flushes_;
    }
  }
  return flushed;
}

size_t BufferPool::FlushAndDropTable(TableId table) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t flushed = 0;
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (PageTable(it->first) != table) {
      ++it;
      continue;
    }
    if (it->second.dirty) {
      store_->WritePage(it->first, it->second.newest_mod);
      ++flushed;
      ++flushes_;
    }
    lru_.erase(it->second.lru_it);
    it = frames_.erase(it);
  }
  return flushed;
}

size_t BufferPool::DiscardDirtyAfter(Lsn lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t discarded = 0;
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (it->second.dirty && it->second.newest_mod > lsn) {
      lru_.erase(it->second.lru_it);
      it = frames_.erase(it);
      ++discarded;
      ++evictions_;
    } else {
      ++it;
    }
  }
  return discarded;
}

Lsn BufferPool::MinDirtyLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  Lsn min_lsn = kMaxLsn;
  for (const auto& [page, frame] : frames_) {
    if (frame.dirty) min_lsn = std::min(min_lsn, frame.oldest_mod);
  }
  return min_lsn;
}

size_t BufferPool::resident_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_.size();
}

size_t BufferPool::dirty_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [page, frame] : frames_) n += frame.dirty;
  return n;
}

}  // namespace polarx
