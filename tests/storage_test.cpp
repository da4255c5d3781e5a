// Unit tests for src/storage: values/schemas, key codec, redo log, buffer
// pool, MVCC table, table catalog.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/clock/hlc.h"
#include "src/common/rng.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/key_codec.h"
#include "src/storage/mvcc.h"
#include "src/storage/redo.h"
#include "src/storage/table.h"
#include "src/storage/value.h"
#include "src/txn/engine.h"

namespace polarx {
namespace {

// ---------- values & schema ----------

TEST(ValueTest, CompareOrdersNullsFirst) {
  EXPECT_LT(CompareValues(Value{}, Value{int64_t{0}}), 0);
  EXPECT_GT(CompareValues(Value{std::string("a")}, Value{}), 0);
  EXPECT_EQ(CompareValues(Value{}, Value{}), 0);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(CompareValues(Value{int64_t{3}}, Value{3.0}), 0);
  EXPECT_LT(CompareValues(Value{int64_t{2}}, Value{2.5}), 0);
  EXPECT_GT(CompareValues(Value{10.0}, Value{int64_t{9}}), 0);
}

TEST(ValueTest, LargeInt64ExactComparison) {
  int64_t a = (1LL << 60) + 1, b = (1LL << 60) + 2;
  EXPECT_LT(CompareValues(Value{a}, Value{b}), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(CompareValues(Value{std::string("abc")},
                          Value{std::string("abd")}), 0);
  EXPECT_EQ(CompareValues(Value{std::string("x")},
                          Value{std::string("x")}), 0);
}

TEST(ValueTest, ConversionHelpers) {
  EXPECT_EQ(*ValueAsInt(Value{int64_t{42}}), 42);
  EXPECT_EQ(*ValueAsInt(Value{42.6}), 43);
  EXPECT_DOUBLE_EQ(*ValueAsDouble(Value{int64_t{5}}), 5.0);
  EXPECT_FALSE(ValueAsInt(Value{std::string("x")}).ok());
}

Schema MakeTestSchema() {
  return Schema({{"id", ValueType::kInt64, false},
                 {"name", ValueType::kString, true},
                 {"balance", ValueType::kDouble, true}},
                {0});
}

TEST(SchemaTest, ValidateRowChecksArityTypesNullability) {
  Schema s = MakeTestSchema();
  EXPECT_TRUE(
      s.ValidateRow({int64_t{1}, std::string("bob"), 10.5}).ok());
  EXPECT_FALSE(s.ValidateRow({int64_t{1}, std::string("bob")}).ok());
  EXPECT_FALSE(
      s.ValidateRow({std::string("1"), std::string("bob"), 1.0}).ok());
  EXPECT_FALSE(s.ValidateRow({Value{}, std::string("b"), 1.0}).ok());
  EXPECT_TRUE(s.ValidateRow({int64_t{1}, Value{}, Value{}}).ok());
}

TEST(SchemaTest, ExtractKey) {
  Schema s = MakeTestSchema();
  Row row{int64_t{7}, std::string("x"), 1.0};
  Row key = s.ExtractKey(row);
  ASSERT_EQ(key.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(key[0]), 7);
}

// ---------- key codec ----------

TEST(KeyCodecTest, RoundTripAllTypes) {
  Row values{Value{}, int64_t{-12345}, 3.25, std::string("hello\0world", 11)};
  EncodedKey key = EncodeKey(values);
  auto decoded = DecodeKey(key, values.size());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(CompareValues((*decoded)[i], values[i]), 0) << "col " << i;
  }
}

TEST(KeyCodecTest, EncodingPreservesOrder) {
  Rng rng(99);
  std::vector<Row> rows;
  for (int i = 0; i < 500; ++i) {
    Row r;
    switch (rng.Uniform(3)) {
      case 0:
        r.push_back(rng.UniformRange(-1000000, 1000000));
        break;
      case 1:
        r.push_back(rng.NextDouble() * 2000 - 1000);
        break;
      default:
        r.push_back(rng.AlphaString(rng.Uniform(10)));
        break;
    }
    rows.push_back(std::move(r));
  }
  for (int i = 0; i < 2000; ++i) {
    const Row& a = rows[rng.Uniform(rows.size())];
    const Row& b = rows[rng.Uniform(rows.size())];
    int typed = CompareValues(a[0], b[0]);
    int encoded = EncodeKey(a).compare(EncodeKey(b));
    if (typed < 0) {
      EXPECT_LT(encoded, 0);
    } else if (typed > 0) {
      EXPECT_GT(encoded, 0);
    } else {
      // equal typed values of the same type encode identically
      if (TypeOf(a[0]) == TypeOf(b[0])) {
        EXPECT_EQ(encoded, 0);
      }
    }
  }
}

TEST(KeyCodecTest, CompositeKeysOrderLexicographically) {
  EncodedKey a = EncodeKey({int64_t{1}, std::string("b")});
  EncodedKey b = EncodeKey({int64_t{1}, std::string("c")});
  EncodedKey c = EncodeKey({int64_t{2}, std::string("a")});
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(KeyCodecTest, StringPrefixSortsBeforeExtension) {
  EncodedKey a = EncodeKey({std::string("ab")});
  EncodedKey b = EncodeKey({std::string("abc")});
  EXPECT_LT(a, b);
}

TEST(KeyCodecTest, EmbeddedZerosRoundTrip) {
  std::string weird("a\0b\0\0c", 6);
  EncodedKey key = EncodeKey({weird});
  auto decoded = DecodeKey(key, 1);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<std::string>((*decoded)[0]), weird);
}

TEST(KeyCodecTest, HashShardingIsStableAndBounded) {
  EncodedKey key = EncodeKey({int64_t{42}});
  uint32_t shard = ShardOf(key, 16);
  EXPECT_LT(shard, 16u);
  EXPECT_EQ(shard, ShardOf(key, 16));  // deterministic
}

TEST(KeyCodecTest, HashDistributesEvenly) {
  // §II-B: hash partitioning on sequential keys must not hotspot one shard.
  constexpr uint32_t kShards = 8;
  std::vector<int> counts(kShards, 0);
  for (int64_t i = 0; i < 8000; ++i) {
    ++counts[ShardOf(EncodeKey({i}), kShards)];
  }
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], 700) << "shard " << s;
    EXPECT_LT(counts[s], 1300) << "shard " << s;
  }
}

TEST(KeyCodecTest, DecodeCorruptKeyFails) {
  EncodedKey key = EncodeKey({int64_t{5}});
  key.resize(key.size() - 3);
  EXPECT_FALSE(DecodeKey(key, 1).ok());
  EncodedKey bad = "\x7F";
  EXPECT_FALSE(DecodeKey(bad, 1).ok());
}

// ---------- redo log ----------

RedoRecord MakeInsert(TxnId txn, TableId table, int64_t id,
                      const std::string& name) {
  RedoRecord rec;
  rec.type = RedoType::kInsert;
  rec.txn_id = txn;
  rec.table_id = table;
  rec.key = EncodeKey({id});
  rec.row = {id, name};
  return rec;
}

TEST(RedoLogTest, AppendAssignsMonotoneLsns) {
  RedoLog log;
  EXPECT_EQ(log.current_lsn(), 1u);
  MtrHandle h1 = log.AppendMtr({MakeInsert(1, 1, 1, "a")});
  MtrHandle h2 = log.AppendMtr({MakeInsert(1, 1, 2, "b")});
  EXPECT_EQ(h1.start_lsn, 1u);
  EXPECT_GT(h1.end_lsn, h1.start_lsn);
  EXPECT_EQ(h2.start_lsn, h1.end_lsn);
  EXPECT_EQ(log.current_lsn(), h2.end_lsn);
}

TEST(RedoLogTest, RoundTripRecords) {
  RedoLog log;
  RedoRecord ins = MakeInsert(7, 3, 42, "hello");
  RedoRecord del;
  del.type = RedoType::kDelete;
  del.txn_id = 7;
  del.table_id = 3;
  del.key = EncodeKey({int64_t{42}});
  RedoRecord commit;
  commit.type = RedoType::kTxnCommit;
  commit.txn_id = 7;
  commit.ts = 987654;
  log.AppendMtr({ins, del, commit});

  std::vector<RedoRecord> parsed;
  ASSERT_TRUE(log.ReadRecords(1, log.current_lsn(), &parsed).ok());
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].type, RedoType::kInsert);
  EXPECT_EQ(parsed[0].txn_id, 7u);
  EXPECT_EQ(parsed[0].table_id, 3u);
  EXPECT_EQ(parsed[0].key, ins.key);
  ASSERT_EQ(parsed[0].row.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(parsed[0].row[0]), 42);
  EXPECT_EQ(std::get<std::string>(parsed[0].row[1]), "hello");
  EXPECT_EQ(parsed[1].type, RedoType::kDelete);
  EXPECT_EQ(parsed[2].type, RedoType::kTxnCommit);
  EXPECT_EQ(parsed[2].ts, 987654u);
  EXPECT_EQ(parsed[0].lsn, 1u);
  EXPECT_GT(parsed[1].lsn, parsed[0].lsn);
}

TEST(RedoLogTest, PaxosRecordIs64Bytes) {
  // §III: MLOG_PAXOS is a fixed 64-byte entry.
  RedoLog log;
  RedoRecord rec;
  rec.type = RedoType::kPaxos;
  rec.paxos = PaxosMeta{5, 100, 1, 4096, 0xDEADBEEF};
  MtrHandle h = log.AppendMtr({rec});
  EXPECT_EQ(h.end_lsn - h.start_lsn, 64u + 8u);  // + length/crc framing
  std::vector<RedoRecord> parsed;
  ASSERT_TRUE(log.ReadRecords(1, log.current_lsn(), &parsed).ok());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].paxos.epoch, 5u);
  EXPECT_EQ(parsed[0].paxos.index, 100u);
  EXPECT_EQ(parsed[0].paxos.range_start, 1u);
  EXPECT_EQ(parsed[0].paxos.range_end, 4096u);
  EXPECT_EQ(parsed[0].paxos.checksum, 0xDEADBEEFu);
}

TEST(RedoLogTest, ChecksumDetectsCorruption) {
  RedoLog log;
  log.AppendMtr({MakeInsert(1, 1, 1, "a")});
  std::string bytes;
  log.ReadBytes(1, log.current_lsn(), &bytes);
  bytes[bytes.size() / 2] ^= 0x5A;
  std::vector<RedoRecord> parsed;
  EXPECT_FALSE(RedoLog::ParseRecords(bytes, 1, &parsed).ok());
}

TEST(RedoLogTest, PartialTailIsIgnored) {
  RedoLog log;
  log.AppendMtr({MakeInsert(1, 1, 1, "a")});
  log.AppendMtr({MakeInsert(1, 1, 2, "b")});
  std::string bytes;
  log.ReadBytes(1, log.current_lsn(), &bytes);
  bytes.resize(bytes.size() - 5);  // cut into the second record
  std::vector<RedoRecord> parsed;
  ASSERT_TRUE(RedoLog::ParseRecords(bytes, 1, &parsed).ok());
  EXPECT_EQ(parsed.size(), 1u);
}

TEST(RedoLogTest, PurgePreventsOldReads) {
  RedoLog log;
  MtrHandle h1 = log.AppendMtr({MakeInsert(1, 1, 1, "a")});
  log.AppendMtr({MakeInsert(1, 1, 2, "b")});
  log.PurgeBefore(h1.end_lsn);
  EXPECT_EQ(log.purged_before(), h1.end_lsn);
  std::vector<RedoRecord> parsed;
  EXPECT_FALSE(log.ReadRecords(1, log.current_lsn(), &parsed).ok());
  parsed.clear();
  ASSERT_TRUE(log.ReadRecords(h1.end_lsn, log.current_lsn(), &parsed).ok());
  EXPECT_EQ(parsed.size(), 1u);
}

TEST(RedoLogTest, TruncateDiscardsSuffix) {
  RedoLog log;
  MtrHandle h1 = log.AppendMtr({MakeInsert(1, 1, 1, "a")});
  log.AppendMtr({MakeInsert(1, 1, 2, "b")});
  log.MarkFlushed(log.current_lsn());
  log.TruncateTo(h1.end_lsn);
  EXPECT_EQ(log.current_lsn(), h1.end_lsn);
  EXPECT_EQ(log.flushed_lsn(), h1.end_lsn);
  std::vector<RedoRecord> parsed;
  ASSERT_TRUE(log.ReadRecords(1, log.current_lsn(), &parsed).ok());
  EXPECT_EQ(parsed.size(), 1u);
}

TEST(RedoLogTest, FlushedLsnMonotone) {
  RedoLog log;
  MtrHandle h1 = log.AppendMtr({MakeInsert(1, 1, 1, "a")});
  MtrHandle h2 = log.AppendMtr({MakeInsert(1, 1, 2, "b")});
  log.MarkFlushed(h2.end_lsn);
  log.MarkFlushed(h1.end_lsn);
  EXPECT_EQ(log.flushed_lsn(), h2.end_lsn);
}

TEST(RedoLogTest, MarkFlushedClampsToLogEnd) {
  // A stale flush completion (scheduled before a crash, firing after the
  // recovering node truncated its suffix) must not mark nonexistent bytes
  // flushed.
  RedoLog log;
  MtrHandle h1 = log.AppendMtr({MakeInsert(1, 1, 1, "a")});
  MtrHandle h2 = log.AppendMtr({MakeInsert(1, 1, 2, "b")});
  log.TruncateTo(h1.end_lsn);
  log.MarkFlushed(h2.end_lsn);  // stale completion for truncated bytes
  EXPECT_EQ(log.flushed_lsn(), h1.end_lsn);
}

TEST(Crc32Test, KnownProperties) {
  EXPECT_EQ(Crc32("", 0), Crc32("", 0));
  EXPECT_NE(Crc32("abc", 3), Crc32("abd", 3));
  uint32_t once = Crc32("hello world", 11);
  EXPECT_EQ(once, Crc32("hello world", 11));
}

// ---------- buffer pool ----------

TEST(BufferPoolTest, FlushGateRespectsLsnLimit) {
  CountingPageStore store;
  BufferPool pool(&store);
  pool.MarkDirty(MakePageId(1, 0), 95, 100);
  pool.MarkDirty(MakePageId(1, 1), 195, 200);
  pool.MarkDirty(MakePageId(1, 2), 295, 300);
  EXPECT_EQ(pool.dirty_pages(), 3u);
  // DLSN = 250: only pages whose newest mod <= 250 may be flushed.
  EXPECT_EQ(pool.FlushUpTo(250), 2u);
  EXPECT_EQ(pool.dirty_pages(), 1u);
  EXPECT_EQ(store.writes(), 2u);
  EXPECT_EQ(pool.FlushUpTo(1000), 1u);
  EXPECT_EQ(pool.dirty_pages(), 0u);
}

TEST(BufferPoolTest, RedirtyRaisesNewestMod) {
  CountingPageStore store;
  BufferPool pool(&store);
  PageId p = MakePageId(1, 0);
  pool.MarkDirty(p, 95, 100);
  pool.MarkDirty(p, 495, 500);
  EXPECT_EQ(pool.FlushUpTo(200), 0u);  // newest mod is 500 > 200
  EXPECT_EQ(pool.FlushUpTo(500), 1u);
  EXPECT_EQ(store.PersistedLsn(p), 500u);
}

TEST(BufferPoolTest, MinDirtyLsnTracksOldestModification) {
  CountingPageStore store;
  BufferPool pool(&store);
  EXPECT_EQ(pool.MinDirtyLsn(), kMaxLsn);
  pool.MarkDirty(MakePageId(1, 0), 295, 300);
  pool.MarkDirty(MakePageId(1, 1), 95, 100);
  pool.MarkDirty(MakePageId(1, 1), 395, 400);  // oldest stays 95
  EXPECT_EQ(pool.MinDirtyLsn(), 95u);
  pool.FlushUpTo(400);
  EXPECT_EQ(pool.MinDirtyLsn(), kMaxLsn);
}

TEST(BufferPoolTest, DiscardDirtyAfterEvictsUnackedPages) {
  // §III old-leader cleanup: evict dirty pages with mods beyond DLSN.
  CountingPageStore store;
  BufferPool pool(&store);
  pool.MarkDirty(MakePageId(1, 0), 95, 100);
  pool.MarkDirty(MakePageId(1, 1), 895, 900);
  EXPECT_EQ(pool.DiscardDirtyAfter(500), 1u);
  EXPECT_EQ(pool.dirty_pages(), 1u);
  EXPECT_EQ(store.writes(), 0u);  // discarded, never flushed
}

TEST(BufferPoolTest, EnginePagesCarryTheirMtrEnd) {
  // TxnEngine marks a page with the span of the MTR that dirtied it, so the
  // DLSN flush gate never writes a page whose record ends past the limit,
  // and a truncation at an MTR boundary keeps the record ending there and
  // evicts the one starting there.
  TableCatalog catalog;
  Hlc hlc([] { return uint64_t(1000); });
  RedoLog log;
  CountingPageStore store;
  BufferPool pool(&store);
  TxnEngine engine(1, &catalog, &hlc, &log, &pool);
  catalog.CreateTable(1, "t", Schema({{"id", ValueType::kInt64, false}}, {0}),
                      0);
  TxnId txn = engine.Begin();

  Lsn start = log.current_lsn();
  ASSERT_TRUE(engine.Insert(txn, 1, {int64_t(7)}).ok());
  Lsn end = log.current_lsn();
  ASSERT_LT(start, end);
  EXPECT_EQ(pool.FlushUpTo(start), 0u) << "the MTR straddles the limit";
  EXPECT_EQ(pool.FlushUpTo(end - 1), 0u) << "the MTR straddles the limit";
  EXPECT_EQ(pool.FlushUpTo(end), 1u);

  start = log.current_lsn();
  ASSERT_TRUE(engine.Update(txn, 1, {int64_t(7)}).ok());
  end = log.current_lsn();
  EXPECT_EQ(pool.DiscardDirtyAfter(end), 0u)
      << "a record ending at the truncation point survives it";
  EXPECT_EQ(pool.DiscardDirtyAfter(start), 1u)
      << "a record starting at the truncation point is truncated";
  EXPECT_EQ(store.writes(), 1u);
}

TEST(BufferPoolTest, FlushAndDropTableDrainsTenantPages) {
  CountingPageStore store;
  BufferPool pool(&store);
  pool.MarkDirty(MakePageId(1, 0), 95, 100);
  pool.MarkDirty(MakePageId(1, 1), 999994, 999999);  // beyond any gate
  pool.MarkDirty(MakePageId(2, 0), 95, 100);
  EXPECT_EQ(pool.FlushAndDropTable(1), 2u);
  EXPECT_EQ(pool.dirty_pages(), 1u);
  EXPECT_EQ(pool.resident_pages(), 1u);
}

TEST(BufferPoolTest, LruEvictsOnlyCleanPages) {
  CountingPageStore store;
  BufferPool pool(&store, /*capacity_pages=*/2);
  pool.MarkDirty(MakePageId(1, 0), 5, 10);
  pool.MarkDirty(MakePageId(1, 1), 15, 20);
  // Over capacity with a clean newcomer: the clean page is the only eviction
  // candidate, so the two dirty pages stay.
  pool.Touch(MakePageId(1, 2));
  EXPECT_EQ(pool.resident_pages(), 2u);
  EXPECT_EQ(pool.dirty_pages(), 2u);
  EXPECT_GT(pool.evictions(), 0u);
  // Once flushed clean, LRU eviction applies normally.
  pool.FlushUpTo(100);
  pool.Touch(MakePageId(1, 3));
  EXPECT_LE(pool.resident_pages(), 2u);
}

// ---------- MVCC ----------

VersionPtr MakeVersion(TxnId txn, Timestamp cts, int64_t val,
                       bool deleted = false) {
  auto v = std::make_shared<Version>(txn, deleted, Row{val});
  if (cts != kInvalidTimestamp) {
    v->commit_ts.store(cts, std::memory_order_release);
  }
  return v;
}

TEST(MvccTableTest, PushAndHead) {
  MvccTable t;
  EncodedKey k = EncodeKey({int64_t{1}});
  EXPECT_EQ(t.Head(k), nullptr);
  t.Push(k, MakeVersion(1, 10, 100));
  t.Push(k, MakeVersion(2, 20, 200));
  VersionPtr head = t.Head(k);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(std::get<int64_t>(head->row[0]), 200);
  ASSERT_NE(head->prev, nullptr);
  EXPECT_EQ(std::get<int64_t>(head->prev->row[0]), 100);
}

TEST(MvccTableTest, PushCheckedConflictRules) {
  MvccTable t;
  EncodedKey k = EncodeKey({int64_t{1}});
  // Uncommitted head from txn 1 blocks txn 2.
  ASSERT_EQ(t.PushChecked(k, MakeVersion(1, kInvalidTimestamp, 1), 100, 1),
            MvccTable::PushResult::kOk);
  EXPECT_EQ(t.PushChecked(k, MakeVersion(2, kInvalidTimestamp, 2), 100, 2),
            MvccTable::PushResult::kConflictUncommitted);
  // Own head is fine.
  EXPECT_EQ(t.PushChecked(k, MakeVersion(1, kInvalidTimestamp, 3), 100, 1),
            MvccTable::PushResult::kOk);
}

TEST(MvccTableTest, PushCheckedFirstCommitterWins) {
  MvccTable t;
  EncodedKey k = EncodeKey({int64_t{1}});
  t.Push(k, MakeVersion(1, 500, 1));  // committed at 500
  // Writer with snapshot 400 must not overwrite (lost update).
  EXPECT_EQ(t.PushChecked(k, MakeVersion(2, kInvalidTimestamp, 2), 400, 2),
            MvccTable::PushResult::kConflictNewer);
  // Writer with snapshot 600 may.
  EXPECT_EQ(t.PushChecked(k, MakeVersion(3, kInvalidTimestamp, 3), 600, 3),
            MvccTable::PushResult::kOk);
}

TEST(MvccTableTest, RemoveUncommittedPopsOnlyOwnHead) {
  MvccTable t;
  EncodedKey k = EncodeKey({int64_t{1}});
  t.Push(k, MakeVersion(1, 10, 100));
  t.Push(k, MakeVersion(2, kInvalidTimestamp, 200));
  EXPECT_FALSE(t.RemoveUncommitted(k, 99));  // not the owner
  EXPECT_TRUE(t.RemoveUncommitted(k, 2));
  EXPECT_EQ(std::get<int64_t>(t.Head(k)->row[0]), 100);
  EXPECT_FALSE(t.RemoveUncommitted(k, 1));  // committed head: refuse
}

TEST(MvccTableTest, RemoveLastVersionErasesKey) {
  MvccTable t;
  EncodedKey k = EncodeKey({int64_t{1}});
  t.Push(k, MakeVersion(1, kInvalidTimestamp, 100));
  EXPECT_TRUE(t.RemoveUncommitted(k, 1));
  EXPECT_EQ(t.NumKeys(), 0u);
}

TEST(MvccTableTest, ScanRangeOrdersKeys) {
  MvccTable t;
  for (int64_t i : {5, 1, 9, 3, 7}) {
    t.Push(EncodeKey({i}), MakeVersion(1, 10, i));
  }
  std::vector<int64_t> seen;
  t.ScanRange(EncodeKey({int64_t{2}}), EncodeKey({int64_t{8}}),
              [&](const EncodedKey&, const VersionPtr& v) {
                seen.push_back(std::get<int64_t>(v->row[0]));
                return true;
              });
  EXPECT_EQ(seen, (std::vector<int64_t>{3, 5, 7}));
}

TEST(MvccTableTest, VacuumDropsInvisibleTail) {
  MvccTable t;
  EncodedKey k = EncodeKey({int64_t{1}});
  t.Push(k, MakeVersion(1, 10, 1));
  t.Push(k, MakeVersion(2, 20, 2));
  t.Push(k, MakeVersion(3, 30, 3));
  size_t freed = t.Vacuum(25);
  EXPECT_EQ(freed, 1u);  // version @10 is invisible to any snapshot >= 25
  VersionPtr head = t.Head(k);
  EXPECT_EQ(std::get<int64_t>(head->row[0]), 3);
  ASSERT_NE(head->prev, nullptr);
  EXPECT_EQ(std::get<int64_t>(head->prev->row[0]), 2);
  EXPECT_EQ(head->prev->prev, nullptr);
}

TEST(MvccTableTest, VacuumRemovesOldTombstonedKeys) {
  MvccTable t;
  EncodedKey k = EncodeKey({int64_t{1}});
  t.Push(k, MakeVersion(1, 10, 1));
  t.Push(k, MakeVersion(2, 20, 0, /*deleted=*/true));
  EXPECT_EQ(t.Vacuum(100), 2u);
  EXPECT_EQ(t.NumKeys(), 0u);
}

// ---------- tables & catalog ----------

TEST(TableCatalogTest, CreateAndFind) {
  TableCatalog catalog;
  auto t1 = catalog.CreateTable(1, "users", MakeTestSchema(), 10);
  ASSERT_TRUE(t1.ok());
  EXPECT_FALSE(catalog.CreateTable(1, "dup", MakeTestSchema()).ok());
  EXPECT_EQ(catalog.FindTable(1), *t1);
  EXPECT_EQ(catalog.FindTable(2), nullptr);
}

TEST(TableCatalogTest, TablesOfTenant) {
  TableCatalog catalog;
  catalog.CreateTable(1, "a", MakeTestSchema(), 10);
  catalog.CreateTable(2, "b", MakeTestSchema(), 10);
  catalog.CreateTable(3, "c", MakeTestSchema(), 20);
  EXPECT_EQ(catalog.TablesOfTenant(10).size(), 2u);
  EXPECT_EQ(catalog.TablesOfTenant(20).size(), 1u);
  EXPECT_EQ(catalog.AllTables().size(), 3u);
}

}  // namespace
}  // namespace polarx
