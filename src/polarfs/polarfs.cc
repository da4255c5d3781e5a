#include "src/polarfs/polarfs.h"

#include <algorithm>

namespace polarx {

size_t ChunkServer::NumReplicas() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replicas_.size();
}

void ChunkServer::Write(ChunkId chunk, uint64_t /*offset*/, uint64_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  if (replicas_.count(chunk) == 0) return;
  bytes_stored_ += len;
}

void ChunkServer::AddReplica(ChunkId chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  replicas_.insert(chunk);
}

PolarFs::PolarFs(PolarFsOptions options) : options_(options) {}

uint32_t PolarFs::AddChunkServer() {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t id = static_cast<uint32_t>(servers_.size());
  servers_.push_back(std::make_unique<ChunkServer>(id));
  return id;
}

Result<Volume*> PolarFs::CreateVolume() {
  std::lock_guard<std::mutex> lock(mu_);
  if (servers_.size() < options_.replicas_per_chunk) {
    return Status::ResourceExhausted(
        "need at least " + std::to_string(options_.replicas_per_chunk) +
        " chunk servers");
  }
  uint32_t id = next_volume_++;
  auto vol = std::make_unique<Volume>(id, options_);
  Volume* ptr = vol.get();
  volumes_.emplace(id, std::move(vol));
  return ptr;
}

Volume* PolarFs::FindVolume(uint32_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = volumes_.find(id);
  return it == volumes_.end() ? nullptr : it->second.get();
}

Result<ChunkInfo> PolarFs::ProvisionChunk(uint32_t volume) {
  std::lock_guard<std::mutex> lock(mu_);
  auto vit = volumes_.find(volume);
  if (vit == volumes_.end()) return Status::NotFound("volume unknown");
  Volume* vol = vit->second.get();
  if (vol->chunks_.size() >= options_.max_chunks_per_volume) {
    return Status::ResourceExhausted("volume at max capacity");
  }
  // Place on the least-loaded servers (by replica count, then bytes).
  std::vector<ChunkServer*> sorted;
  sorted.reserve(servers_.size());
  for (auto& s : servers_) sorted.push_back(s.get());
  std::sort(sorted.begin(), sorted.end(),
            [](ChunkServer* a, ChunkServer* b) {
              if (a->NumReplicas() != b->NumReplicas()) {
                return a->NumReplicas() < b->NumReplicas();
              }
              return a->bytes_stored() < b->bytes_stored();
            });
  ChunkInfo info;
  info.id = next_chunk_++;
  info.volume = volume;
  info.index_in_volume = vol->chunks_.size();
  for (uint32_t r = 0;
       r < options_.replicas_per_chunk && r < sorted.size(); ++r) {
    sorted[r]->AddReplica(info.id);
    info.replicas.push_back(sorted[r]->id());
  }
  chunks_.emplace(info.id, info);
  vol->chunks_.push_back(info.id);
  vol->size_bytes_ += options_.chunk_size_bytes;
  return info;
}

Status PolarFs::EnsureCapacity(Volume* vol, uint64_t end) {
  while (vol->size_bytes_ < end) {
    // ProvisionChunk takes mu_; caller must NOT hold it.
    POLARX_ASSIGN_OR_RETURN(ChunkInfo info, ProvisionChunk(vol->id()));
    (void)info;
  }
  return Status::Ok();
}

Status PolarFs::Write(uint32_t volume, uint64_t offset, uint64_t len) {
  Volume* vol = FindVolume(volume);
  if (vol == nullptr) return Status::NotFound("volume unknown");
  POLARX_RETURN_NOT_OK(EnsureCapacity(vol, offset + len));
  // Split the write across owning chunks and fan out to replicas.
  uint64_t pos = offset;
  uint64_t remaining = len;
  while (remaining > 0) {
    uint64_t chunk_index = pos / options_.chunk_size_bytes;
    uint64_t in_chunk = pos % options_.chunk_size_bytes;
    uint64_t span =
        std::min(remaining, options_.chunk_size_bytes - in_chunk);
    ChunkId chunk_id;
    {
      std::lock_guard<std::mutex> lock(mu_);
      chunk_id = vol->chunks_[chunk_index];
      const ChunkInfo& info = chunks_[chunk_id];
      for (uint32_t server : info.replicas) {
        servers_[server]->Write(chunk_id, in_chunk, span);
      }
      chunks_[chunk_id].bytes_written += span;
      total_bytes_written_ += span;
    }
    pos += span;
    remaining -= span;
  }
  return Status::Ok();
}

Status PolarFs::CheckRead(uint32_t volume, uint64_t offset,
                          uint64_t len) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = volumes_.find(volume);
  if (it == volumes_.end()) return Status::NotFound("volume unknown");
  if (offset + len > it->second->size_bytes_) {
    return Status::OutOfRange("read beyond provisioned space");
  }
  return Status::Ok();
}

Status PolarFsPageStore::WritePage(PageId page, Lsn /*newest_lsn*/) {
  pages_written_.fetch_add(1, std::memory_order_relaxed);
  // Scatter pages over the volume space by page id.
  uint64_t offset = (page % (1 << 20)) * page_size_;
  return fs_->Write(volume_, offset, page_size_);
}

}  // namespace polarx
