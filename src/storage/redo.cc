#include "src/storage/redo.h"

#include <cassert>
#include <cstring>

namespace polarx {

namespace {

void PutU8(std::string* out, uint8_t v) { out->push_back(char(v)); }
void PutU16(std::string* out, uint16_t v) {
  out->push_back(char(v & 0xFF));
  out->push_back(char((v >> 8) & 0xFF));
}
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(char((v >> (8 * i)) & 0xFF));
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(char((v >> (8 * i)) & 0xFF));
}
void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

struct Reader {
  const std::string& data;
  size_t pos = 0;
  bool ok = true;

  bool Need(size_t n) {
    if (pos + n > data.size()) {
      ok = false;
      return false;
    }
    return true;
  }
  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data[pos++]);
  }
  uint16_t U16() {
    if (!Need(2)) return 0;
    uint16_t v = static_cast<uint8_t>(data[pos]) |
                 (uint16_t(static_cast<uint8_t>(data[pos + 1])) << 8);
    pos += 2;
    return v;
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<uint8_t>(data[pos + i]);
    }
    pos += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<uint8_t>(data[pos + i]);
    }
    pos += 8;
    return v;
  }
  std::string Str() {
    uint32_t n = U32();
    if (!Need(n)) return {};
    std::string s = data.substr(pos, n);
    pos += n;
    return s;
  }
};

void EncodeRow(const Row& row, std::string* out) {
  PutU16(out, static_cast<uint16_t>(row.size()));
  for (const auto& v : row) {
    PutU8(out, static_cast<uint8_t>(TypeOf(v)));
    switch (TypeOf(v)) {
      case ValueType::kNull:
        break;
      case ValueType::kInt64:
        PutU64(out, static_cast<uint64_t>(std::get<int64_t>(v)));
        break;
      case ValueType::kDouble: {
        uint64_t bits;
        std::memcpy(&bits, &std::get<double>(v), 8);
        PutU64(out, bits);
        break;
      }
      case ValueType::kString:
        PutString(out, std::get<std::string>(v));
        break;
    }
  }
}

Row DecodeRow(Reader* r) {
  uint16_t n = r->U16();
  Row row;
  row.reserve(n);
  for (uint16_t i = 0; i < n && r->ok; ++i) {
    ValueType t = static_cast<ValueType>(r->U8());
    switch (t) {
      case ValueType::kNull:
        row.emplace_back(std::monostate{});
        break;
      case ValueType::kInt64:
        row.emplace_back(static_cast<int64_t>(r->U64()));
        break;
      case ValueType::kDouble: {
        uint64_t bits = r->U64();
        double d;
        std::memcpy(&d, &bits, 8);
        row.emplace_back(d);
        break;
      }
      case ValueType::kString:
        row.emplace_back(r->Str());
        break;
      default:
        r->ok = false;
    }
  }
  return row;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  // Software CRC-32C, byte at a time.
  static const uint32_t kPoly = 0x82F63B78u;
  uint32_t crc = ~seed;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (kPoly & (0u - (crc & 1)));
    }
  }
  return ~crc;
}

void EncodeRedoRecord(const RedoRecord& rec, std::string* out) {
  PutU8(out, static_cast<uint8_t>(rec.type));
  PutU64(out, rec.txn_id);
  switch (rec.type) {
    case RedoType::kInsert:
    case RedoType::kUpdate:
      PutU32(out, rec.table_id);
      PutString(out, rec.key);
      EncodeRow(rec.row, out);
      break;
    case RedoType::kDelete:
      PutU32(out, rec.table_id);
      PutString(out, rec.key);
      break;
    case RedoType::kTxnPrepare:
      PutU64(out, rec.ts);
      PutU64(out, rec.global_txn);
      PutU32(out, rec.coordinator);
      PutU32(out, rec.commit_owner);
      if (!rec.participants.empty()) {
        PutU32(out, uint32_t(rec.participants.size()));
        for (uint32_t p : rec.participants) PutU32(out, p);
      }
      break;
    case RedoType::kTxnCommit:
    case RedoType::kCheckpoint:
      PutU64(out, rec.ts);
      break;
    case RedoType::kTxnCommitPoint:
      PutU64(out, rec.ts);
      PutU64(out, rec.global_txn);
      break;
    case RedoType::kTxnAbortPoint:
      PutU64(out, rec.global_txn);
      break;
    case RedoType::kTxnAbort:
      break;
    case RedoType::kPaxos: {
      // Fixed 64-byte payload as in the paper; pad with zeros.
      size_t start = out->size();
      PutU64(out, rec.paxos.epoch);
      PutU64(out, rec.paxos.index);
      PutU64(out, rec.paxos.range_start);
      PutU64(out, rec.paxos.range_end);
      PutU32(out, rec.paxos.checksum);
      size_t want = start + 64 - 9;  // 64 total minus type+txn_id header
      while (out->size() < want) out->push_back('\0');
      break;
    }
    case RedoType::kDdl:
      PutU32(out, rec.table_id);
      PutString(out, rec.ddl_blob);
      break;
  }
}

namespace {

Status DecodeRedoBody(const std::string& body, RedoRecord* rec) {
  Reader r{body};
  rec->type = static_cast<RedoType>(r.U8());
  rec->txn_id = r.U64();
  switch (rec->type) {
    case RedoType::kInsert:
    case RedoType::kUpdate:
      rec->table_id = r.U32();
      rec->key = r.Str();
      rec->row = DecodeRow(&r);
      break;
    case RedoType::kDelete:
      rec->table_id = r.U32();
      rec->key = r.Str();
      break;
    case RedoType::kTxnPrepare:
      rec->ts = r.U64();
      rec->global_txn = r.U64();
      rec->coordinator = r.U32();
      rec->commit_owner = r.U32();
      if (r.ok && r.pos < body.size()) {
        uint32_t n = r.U32();
        if (r.ok && n > (body.size() - r.pos) / 4) r.ok = false;  // corrupt
        if (r.ok) rec->participants.resize(n);
        for (uint32_t& p : rec->participants) p = r.U32();
      }
      break;
    case RedoType::kTxnCommit:
    case RedoType::kCheckpoint:
      rec->ts = r.U64();
      break;
    case RedoType::kTxnCommitPoint:
      rec->ts = r.U64();
      rec->global_txn = r.U64();
      break;
    case RedoType::kTxnAbortPoint:
      rec->global_txn = r.U64();
      break;
    case RedoType::kTxnAbort:
      break;
    case RedoType::kPaxos:
      rec->paxos.epoch = r.U64();
      rec->paxos.index = r.U64();
      rec->paxos.range_start = r.U64();
      rec->paxos.range_end = r.U64();
      rec->paxos.checksum = r.U32();
      break;
    case RedoType::kDdl:
      rec->table_id = r.U32();
      rec->ddl_blob = r.Str();
      break;
    default:
      return Status::Corruption("unknown redo type");
  }
  if (!r.ok) return Status::Corruption("truncated redo record");
  return Status::Ok();
}

}  // namespace

RedoLog::RedoLog() = default;

MtrHandle RedoLog::AppendMtr(const std::vector<RedoRecord>& records) {
  std::string encoded;
  for (const auto& rec : records) {
    std::string body;
    EncodeRedoRecord(rec, &body);
    PutU32(&encoded, static_cast<uint32_t>(body.size()));
    PutU32(&encoded, Crc32(body.data(), body.size()));
    encoded.append(body);
  }
  std::lock_guard<std::mutex> lock(mu_);
  MtrHandle h;
  h.start_lsn = purged_ + buffer_.size();
  buffer_.append(encoded);
  h.end_lsn = purged_ + buffer_.size();
  ++mtrs_appended_;
  return h;
}

Lsn RedoLog::current_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return purged_ + buffer_.size();
}

Lsn RedoLog::flushed_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushed_;
}

void RedoLog::MarkFlushed(Lsn lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  // Clamp to the log end: a flush completion scheduled before a crash may
  // fire after the recovering node truncated its un-durable suffix, and must
  // not mark bytes flushed that no longer exist.
  Lsn end = purged_ + buffer_.size();
  if (lsn > end) lsn = end;
  if (lsn > flushed_) {
    flushed_ = lsn;
    ++flush_advances_;
  }
}

Lsn RedoLog::ReadBytes(Lsn from, Lsn to, std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  Lsn end = purged_ + buffer_.size();
  if (to > end) to = end;
  if (from < purged_ || from >= to) {
    out->clear();
    return from < purged_ ? purged_ : from;
  }
  *out = buffer_.substr(from - purged_, to - from);
  return to;
}

Lsn RedoLog::AppendRaw(const std::string& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.append(bytes);
  return purged_ + buffer_.size();
}

Lsn RedoLog::BoundaryBefore(Lsn lsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  Lsn end = purged_ + buffer_.size();
  if (lsn > end) lsn = end;
  Lsn pos = purged_;
  while (pos + 8 <= end) {
    size_t off = pos - purged_;
    uint32_t len = 0;
    for (int i = 3; i >= 0; --i) {
      len = (len << 8) | static_cast<uint8_t>(buffer_[off + i]);
    }
    Lsn rec_end = pos + 8 + len;
    if (rec_end > lsn) break;
    pos = rec_end;
  }
  return pos;
}

Lsn RedoLog::ChunkEnd(Lsn from, size_t max_bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  Lsn end = purged_ + buffer_.size();
  if (from < purged_ || from >= end) return from;
  Lsn boundary = from;
  Lsn pos = from;
  bool first = true;
  while (pos + 8 <= end) {
    size_t off = pos - purged_;
    uint32_t len = 0;
    for (int i = 3; i >= 0; --i) {
      len = (len << 8) | static_cast<uint8_t>(buffer_[off + i]);
    }
    Lsn rec_end = pos + 8 + len;
    if (rec_end > end) break;  // incomplete tail (cannot happen post-append)
    if (!first && rec_end > from + max_bytes) break;
    boundary = rec_end;
    pos = rec_end;
    first = false;
    if (boundary >= from + max_bytes) break;
  }
  return boundary;
}

Status RedoLog::ParseRecords(const std::string& bytes, Lsn base_lsn,
                             std::vector<RedoRecord>* out) {
  size_t pos = 0;
  while (pos + 8 <= bytes.size()) {
    Reader hdr{bytes, pos};
    uint32_t len = hdr.U32();
    uint32_t crc = hdr.U32();
    if (pos + 8 + len > bytes.size()) break;  // incomplete tail record
    std::string body = bytes.substr(pos + 8, len);
    if (Crc32(body.data(), body.size()) != crc) {
      return Status::Corruption("redo record checksum mismatch at lsn " +
                                std::to_string(base_lsn + pos));
    }
    RedoRecord rec;
    POLARX_RETURN_NOT_OK(DecodeRedoBody(body, &rec));
    rec.lsn = base_lsn + pos;
    out->push_back(std::move(rec));
    pos += 8 + len;
  }
  return Status::Ok();
}

Status RedoLog::ReadRecords(Lsn from, Lsn to,
                            std::vector<RedoRecord>* out) const {
  std::string bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (from < purged_) {
      return Status::OutOfRange("lsn " + std::to_string(from) +
                                " purged (horizon " +
                                std::to_string(purged_) + ")");
    }
    Lsn end = purged_ + buffer_.size();
    if (to > end) to = end;
    if (from >= to) return Status::Ok();
    bytes = buffer_.substr(from - purged_, to - from);
  }
  return ParseRecords(bytes, from, out);
}

void RedoLog::PurgeBefore(Lsn lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  Lsn end = purged_ + buffer_.size();
  if (lsn <= purged_) return;
  if (lsn > end) lsn = end;
  buffer_.erase(0, lsn - purged_);
  purged_ = lsn;
}

Lsn RedoLog::purged_before() const {
  std::lock_guard<std::mutex> lock(mu_);
  return purged_;
}

void RedoLog::TruncateTo(Lsn lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(lsn >= purged_);
  Lsn end = purged_ + buffer_.size();
  if (lsn >= end) return;
  buffer_.resize(lsn - purged_);
  if (flushed_ > lsn) flushed_ = lsn;
}

size_t RedoLog::SizeBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffer_.size();
}

uint64_t RedoLog::mtrs_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mtrs_appended_;
}

uint64_t RedoLog::flush_advances() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flush_advances_;
}

}  // namespace polarx
