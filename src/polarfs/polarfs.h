// PolarFS model (§II-A): a durable, horizontally scalable shared storage
// service. Volumes are carved into chunks (10 GB in production; configurable
// here), provisioned on demand across chunk servers; each chunk keeps three
// replicas inside one datacenter, and a write lands on every replica of its
// chunk synchronously. PolarFS's ParallelRaft, which acks replica appends
// out of order, is not modeled.
//
// Each DN owns one volume; the buffer pool's PageStore writes land on the
// chunk that owns the page. PolarDB-X's cross-DC durability is NOT built
// here (that is the DN-layer Paxos, §III); PolarFS only guarantees
// intra-DC persistence, exactly as the paper separates the layers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/storage/buffer_pool.h"

namespace polarx {

/// Fixed-size unit of placement and replication.
struct ChunkInfo {
  ChunkId id = 0;
  uint32_t volume = 0;
  uint64_t index_in_volume = 0;     // chunk number within the volume
  std::vector<uint32_t> replicas;   // chunk-server ids (3 in production)
  uint64_t bytes_written = 0;
};

/// One storage node (chunk server) hosting chunk replicas.
class ChunkServer {
 public:
  explicit ChunkServer(uint32_t id) : id_(id) {}

  uint32_t id() const { return id_; }
  size_t NumReplicas() const;
  uint64_t bytes_stored() const { return bytes_stored_; }

  /// Persists a write against a local replica.
  void Write(ChunkId chunk, uint64_t offset, uint64_t len);
  /// Whether this server hosts a replica of `chunk`.
  bool Hosts(ChunkId chunk) const;
  void AddReplica(ChunkId chunk);
  void DropReplica(ChunkId chunk);

 private:
  uint32_t id_;
  mutable std::mutex mu_;
  std::map<ChunkId, uint64_t> replica_bytes_;
  uint64_t bytes_stored_ = 0;
};

struct PolarFsOptions {
  uint64_t chunk_size_bytes = 10ULL << 30;  // 10 GB, as in the paper
  uint32_t replicas_per_chunk = 3;
  uint64_t max_chunks_per_volume = 10000;   // => 100 TB max volume
};

/// A virtual volume: a growable byte space backed by chunks.
class Volume {
 public:
  Volume(uint32_t id, const PolarFsOptions& options)
      : id_(id), options_(options) {}

  uint32_t id() const { return id_; }
  uint64_t size_bytes() const { return size_bytes_; }
  size_t num_chunks() const { return chunks_.size(); }
  const std::vector<ChunkId>& chunks() const { return chunks_; }

 private:
  friend class PolarFs;
  uint32_t id_;
  PolarFsOptions options_;
  uint64_t size_bytes_ = 0;
  std::vector<ChunkId> chunks_;
};

/// The storage control plane + data path facade.
class PolarFs {
 public:
  explicit PolarFs(PolarFsOptions options = PolarFsOptions{});

  /// Adds a chunk server; returns its id.
  uint32_t AddChunkServer();

  /// Creates a volume (one per DN).
  Result<Volume*> CreateVolume();

  Volume* FindVolume(uint32_t id);

  /// Writes `len` bytes at `offset` in the volume, provisioning chunks on
  /// demand; the write lands on every replica of the owning chunk(s).
  Status Write(uint32_t volume, uint64_t offset, uint64_t len);

  /// Validates a read range is within the provisioned space.
  Status CheckRead(uint32_t volume, uint64_t offset, uint64_t len) const;

  /// Chunk placement: the `replicas_per_chunk` least-loaded servers.
  Result<ChunkInfo> ProvisionChunk(uint32_t volume);

  const std::unordered_map<ChunkId, ChunkInfo>& chunks() const {
    return chunks_;
  }
  const std::vector<std::unique_ptr<ChunkServer>>& servers() const {
    return servers_;
  }
  uint64_t total_bytes_written() const { return total_bytes_written_; }

 private:
  /// Ensures the volume covers [0, offset+len).
  Status EnsureCapacity(Volume* vol, uint64_t end);

  PolarFsOptions options_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ChunkServer>> servers_;
  std::map<uint32_t, std::unique_ptr<Volume>> volumes_;
  std::unordered_map<ChunkId, ChunkInfo> chunks_;
  ChunkId next_chunk_ = 1;
  uint32_t next_volume_ = 1;
  uint64_t total_bytes_written_ = 0;
};

/// Adapts a PolarFs volume as the buffer pool's PageStore: page flushes
/// become volume writes at page-indexed offsets.
class PolarFsPageStore : public PageStore {
 public:
  PolarFsPageStore(PolarFs* fs, uint32_t volume,
                   uint64_t page_size_bytes = 16 * 1024)
      : fs_(fs), volume_(volume), page_size_(page_size_bytes) {}

  Status WritePage(PageId page, Lsn newest_lsn) override;

  uint64_t pages_written() const { return pages_written_; }

 private:
  PolarFs* fs_;
  uint32_t volume_;
  uint64_t page_size_;
  std::atomic<uint64_t> pages_written_{0};
};

}  // namespace polarx
