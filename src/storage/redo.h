// Redo log: an append-only stream of records grouped into mini-transactions
// (MTRs), addressed by LSN (byte offset), exactly as in InnoDB/PolarDB
// (§II-C, §III). The same stream feeds:
//   - crash recovery of a DN,
//   - Paxos replication across datacenters (consensus/),
//   - RW -> RO physical replication (replication/),
//   - in-memory column index maintenance (colindex/).
//
// MLOG_PAXOS is the special 64-byte record type from §III that embeds Paxos
// metadata (epoch, index, covered LSN range, checksum) into the stream so
// multiple MTRs can be replicated in one batched payload.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/storage/value.h"

namespace polarx {

/// Redo record types.
enum class RedoType : uint8_t {
  kInsert = 1,
  kUpdate = 2,
  kDelete = 3,
  kTxnPrepare = 4,
  kTxnCommit = 5,
  kTxnAbort = 6,
  kPaxos = 7,       // MLOG_PAXOS
  kCheckpoint = 8,
  kDdl = 9,
  /// 2PC decision records (Percolator-primary style): the coordinator's
  /// commit/abort decision for a global transaction, durably logged at the
  /// designated commit-point participant before phase 2 fans out. In-doubt
  /// recovery reads these to resolve prepared branches of dead
  /// coordinators.
  kTxnCommitPoint = 10,
  kTxnAbortPoint = 11,
};

/// Payload of an MLOG_PAXOS record (§III): fixed 64 bytes on the wire.
struct PaxosMeta {
  uint64_t epoch = 0;      // leader term
  uint64_t index = 0;      // paxos log index
  Lsn range_start = 0;     // first LSN covered by this batch
  Lsn range_end = 0;       // one past the last LSN covered
  uint32_t checksum = 0;   // checksum over the covered bytes
};

/// One redo record, in decoded form.
struct RedoRecord {
  RedoType type = RedoType::kInsert;
  TxnId txn_id = kInvalidTxnId;
  TableId table_id = 0;
  std::string key;      // encoded primary key (kInsert/kUpdate/kDelete)
  Row row;              // new image (kInsert/kUpdate)
  Timestamp ts = 0;     // prepare_ts / commit_ts / checkpoint lsn payload
  /// 2PC branch identity (kTxnPrepare, kTxnCommitPoint, kTxnAbortPoint):
  /// the distributed transaction this branch belongs to, the coordinator
  /// incarnation that owns it, and the engine id of the commit-point
  /// participant holding the decision record (explicit decision, TSO-SI)
  /// or, under implicit commit (HLC-SI), the engine id of every
  /// participant. A prepare encodes `participants` only when non-empty.
  GlobalTxnId global_txn = kInvalidGlobalTxnId;
  uint32_t coordinator = 0;
  uint32_t commit_owner = 0;
  std::vector<uint32_t> participants;
  PaxosMeta paxos;      // kPaxos only
  std::string ddl_blob; // kDdl only

  /// Set when parsed from the stream: LSN of the first byte of this record.
  Lsn lsn = kInvalidLsn;
};

/// Serializes a record (without the length prefix) into `out`.
void EncodeRedoRecord(const RedoRecord& rec, std::string* out);

/// Result of appending an MTR.
struct MtrHandle {
  Lsn start_lsn = kInvalidLsn;
  Lsn end_lsn = kInvalidLsn;  // one past the last byte; the MTR's "largest LSN"
};

/// CRC32 (Castagnoli polynomial, software) used for record checksums.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// The redo log stream of one RW node. Thread-safe appends; readers see a
/// consistent prefix up to current_lsn(). LSN 0 is reserved (kInvalidLsn);
/// the stream begins at LSN 1.
class RedoLog {
 public:
  RedoLog();

  /// Atomically appends a mini-transaction (a group of records).
  MtrHandle AppendMtr(const std::vector<RedoRecord>& records);

  /// End LSN of the stream (next append position).
  Lsn current_lsn() const;

  /// Durable-in-local-storage watermark (PolarFS flush, step 2 in Fig. 3).
  Lsn flushed_lsn() const;
  void MarkFlushed(Lsn lsn);

  /// Copies the raw bytes in [from, to) into `out`. `to` is clamped to
  /// current_lsn(). Returns the LSN one past the last byte copied.
  Lsn ReadBytes(Lsn from, Lsn to, std::string* out) const;

  /// Appends raw pre-encoded record bytes at the current end (a follower
  /// persisting a replicated frame). Returns the new end LSN.
  Lsn AppendRaw(const std::string& bytes);

  /// Largest record boundary L such that `from < L <= from + max_bytes`,
  /// or — if the first record alone exceeds max_bytes — the end of that
  /// record. Returns `from` if no complete record starts at `from`.
  /// Used to cut replication frames on record boundaries.
  Lsn ChunkEnd(Lsn from, size_t max_bytes) const;

  /// Largest record boundary <= `lsn` in THIS log's stream (at least the
  /// purge horizon). A follower's rewind point is a boundary in its own
  /// stream but not necessarily in ours — a leader must realign before
  /// framing from it, or ChunkEnd would be parsing mid-record.
  Lsn BoundaryBefore(Lsn lsn) const;

  /// Parses all complete records in `bytes`, whose first byte is at
  /// `base_lsn`, annotating each with its LSN.
  static Status ParseRecords(const std::string& bytes, Lsn base_lsn,
                             std::vector<RedoRecord>* out);

  /// Parses records in [from, to) directly from this log.
  Status ReadRecords(Lsn from, Lsn to, std::vector<RedoRecord>* out) const;

  /// Discards bytes before `lsn` (checkpoint / min-RO-LSN purge, §II-C).
  /// Reads below the purge horizon fail.
  void PurgeBefore(Lsn lsn);
  Lsn purged_before() const;

  /// Truncates the stream back to `lsn` (a new leader discarding un-acked
  /// suffix after election, §III). Requires lsn >= purged_before().
  void TruncateTo(Lsn lsn);

  size_t SizeBytes() const;

  /// Telemetry for the write path: how many MTRs were appended.
  uint64_t mtrs_appended() const;

 private:
  mutable std::mutex mu_;
  std::string buffer_;      // bytes [purged_, purged_ + buffer_.size())
  Lsn purged_ = 1;          // first retained LSN
  Lsn flushed_ = 1;
  uint64_t mtrs_appended_ = 0;
};

}  // namespace polarx
