// Tests for the per-DN transaction engine: SI visibility, the PREPARED-wait
// rule of §IV, conflicts, aborts, and randomized SI invariant properties.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "src/clock/hlc.h"
#include "src/common/rng.h"
#include "src/replication/redo_applier.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/key_codec.h"
#include "src/storage/redo.h"
#include "src/storage/table.h"
#include "src/txn/engine.h"

namespace polarx {
namespace {

struct EngineFixture {
  uint64_t now_ms = 1000;
  TableCatalog catalog;
  Hlc hlc;
  RedoLog log;
  CountingPageStore store;
  BufferPool pool;
  TxnEngine engine;
  TableId table_id = 1;

  EngineFixture()
      : hlc([this] { return now_ms; }),
        pool(&store),
        engine(1, &catalog, &hlc, &log, &pool) {
    Schema schema({{"id", ValueType::kInt64, false},
                   {"val", ValueType::kString, true}},
                  {0});
    catalog.CreateTable(table_id, "kv", schema, 0);
  }

  EncodedKey Key(int64_t id) { return EncodeKey({id}); }
  Row MakeRow(int64_t id, const std::string& val) { return {id, val}; }

  // Commits a single-row write in an autocommit transaction.
  Timestamp Put(int64_t id, const std::string& val) {
    TxnId txn = engine.Begin();
    EXPECT_TRUE(engine.Update(txn, table_id, MakeRow(id, val)).ok());
    auto ts = engine.CommitLocal(txn);
    EXPECT_TRUE(ts.ok());
    return *ts;
  }

  std::optional<std::string> Get(int64_t id, Timestamp snapshot = 0) {
    if (snapshot == 0) snapshot = hlc.Now();
    Row row;
    Status s = engine.ReadAt(snapshot, table_id, Key(id), &row);
    if (!s.ok()) return std::nullopt;
    return std::get<std::string>(row[1]);
  }
};

TEST(TxnEngineTest, InsertCommitRead) {
  EngineFixture f;
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Insert(txn, f.table_id, f.MakeRow(1, "a")).ok());
  auto cts = f.engine.CommitLocal(txn);
  ASSERT_TRUE(cts.ok());
  EXPECT_EQ(f.Get(1), "a");
}

TEST(TxnEngineTest, UncommittedWritesInvisibleToOthers) {
  EngineFixture f;
  TxnId writer = f.engine.Begin();
  ASSERT_TRUE(f.engine.Insert(writer, f.table_id, f.MakeRow(1, "a")).ok());
  EXPECT_EQ(f.Get(1), std::nullopt);  // ACTIVE writer: invisible (§IV case 3)
  // But visible to the writer itself.
  Row row;
  EXPECT_TRUE(f.engine.Read(writer, f.table_id, f.Key(1), &row).ok());
  ASSERT_TRUE(f.engine.CommitLocal(writer).ok());
  EXPECT_EQ(f.Get(1), "a");
}

TEST(TxnEngineTest, SnapshotReadsSeePastNotFuture) {
  EngineFixture f;
  Timestamp t1 = f.Put(1, "v1");
  f.now_ms += 10;
  Timestamp t2 = f.Put(1, "v2");
  f.now_ms += 10;
  EXPECT_EQ(f.Get(1, t1), "v1");
  EXPECT_EQ(f.Get(1, t2), "v2");
  EXPECT_EQ(f.Get(1, t2 - 1), "v1");
  EXPECT_EQ(f.Get(1), "v2");
}

TEST(TxnEngineTest, RepeatableSnapshotWithinTransaction) {
  EngineFixture f;
  f.Put(1, "old");
  f.now_ms += 5;
  TxnId reader = f.engine.Begin();
  Row row;
  ASSERT_TRUE(f.engine.Read(reader, f.table_id, f.Key(1), &row).ok());
  EXPECT_EQ(std::get<std::string>(row[1]), "old");
  f.now_ms += 5;
  f.Put(1, "new");  // concurrent committed update
  ASSERT_TRUE(f.engine.Read(reader, f.table_id, f.Key(1), &row).ok());
  EXPECT_EQ(std::get<std::string>(row[1]), "old") << "snapshot must not move";
}

TEST(TxnEngineTest, DeleteProducesTombstone) {
  EngineFixture f;
  f.Put(1, "a");
  f.now_ms += 1;
  Timestamp before = f.hlc.Now();
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Delete(txn, f.table_id, f.Key(1)).ok());
  ASSERT_TRUE(f.engine.CommitLocal(txn).ok());
  EXPECT_EQ(f.Get(1), std::nullopt);
  EXPECT_EQ(f.Get(1, before), "a");  // old snapshot still sees it
}

TEST(TxnEngineTest, DuplicateInsertRejected) {
  EngineFixture f;
  f.Put(1, "a");
  TxnId txn = f.engine.Begin();
  Status s = f.engine.Insert(txn, f.table_id, f.MakeRow(1, "b"));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(TxnEngineTest, WriteWriteConflictOnUncommitted) {
  EngineFixture f;
  TxnId t1 = f.engine.Begin();
  TxnId t2 = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(t1, f.table_id, f.MakeRow(1, "a")).ok());
  Status s = f.engine.Update(t2, f.table_id, f.MakeRow(1, "b"));
  EXPECT_TRUE(s.IsConflict());
  EXPECT_EQ(f.engine.stats().conflicts, 1u);
}

TEST(TxnEngineTest, FirstCommitterWins) {
  EngineFixture f;
  f.Put(1, "base");
  TxnId t1 = f.engine.Begin();
  TxnId t2 = f.engine.Begin();  // same snapshot era
  ASSERT_TRUE(f.engine.Update(t1, f.table_id, f.MakeRow(1, "a")).ok());
  ASSERT_TRUE(f.engine.CommitLocal(t1).ok());
  // t2's snapshot predates t1's commit: lost-update prevention.
  Status s = f.engine.Update(t2, f.table_id, f.MakeRow(1, "b"));
  EXPECT_TRUE(s.IsConflict());
}

TEST(TxnEngineTest, AbortRollsBackWrites) {
  EngineFixture f;
  f.Put(1, "keep");
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(txn, f.table_id, f.MakeRow(1, "scrap")).ok());
  ASSERT_TRUE(f.engine.Update(txn, f.table_id, f.MakeRow(2, "scrap2")).ok());
  ASSERT_TRUE(f.engine.Abort(txn).ok());
  EXPECT_EQ(f.Get(1), "keep");
  EXPECT_EQ(f.Get(2), std::nullopt);
  EXPECT_EQ(f.engine.stats().aborted, 1u);
}

TEST(TxnEngineTest, AbortUnwindsRepeatedWritesToSameKey) {
  EngineFixture f;
  f.Put(1, "base");
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(txn, f.table_id, f.MakeRow(1, "x")).ok());
  ASSERT_TRUE(f.engine.Update(txn, f.table_id, f.MakeRow(1, "y")).ok());
  ASSERT_TRUE(f.engine.Abort(txn).ok());
  EXPECT_EQ(f.Get(1), "base");
}

TEST(TxnEngineTest, PreparedBlocksReaderWithLaterSnapshot) {
  EngineFixture f;
  f.Put(1, "old");
  TxnId writer = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(writer, f.table_id, f.MakeRow(1, "new")).ok());
  auto prep = f.engine.Prepare(writer);
  ASSERT_TRUE(prep.ok());
  // Reader whose snapshot >= prepare_ts cannot decide visibility: Busy.
  Row row;
  TxnId blocker = kInvalidTxnId;
  Status s = f.engine.ReadAt(*prep, f.table_id, f.Key(1), &row, &blocker);
  EXPECT_TRUE(s.IsBusy());
  EXPECT_EQ(blocker, writer);
  EXPECT_EQ(f.engine.stats().prepared_waits, 1u);
  // After commit, the read resolves by timestamp.
  ASSERT_TRUE(f.engine.Commit(writer, *prep).ok());
  ASSERT_TRUE(f.engine.ReadAt(*prep, f.table_id, f.Key(1), &row).ok());
  EXPECT_EQ(std::get<std::string>(row[1]), "new");
}

TEST(TxnEngineTest, PreparedDoesNotBlockEarlierSnapshot) {
  // §IV optimization: prepare_ts > snapshot_ts proves invisibility.
  EngineFixture f;
  f.Put(1, "old");
  f.now_ms += 5;
  Timestamp early_snapshot = f.hlc.Now();
  f.now_ms += 5;
  TxnId writer = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(writer, f.table_id, f.MakeRow(1, "new")).ok());
  ASSERT_TRUE(f.engine.Prepare(writer).ok());
  Row row;
  Status s = f.engine.ReadAt(early_snapshot, f.table_id, f.Key(1), &row);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(std::get<std::string>(row[1]), "old");
  EXPECT_EQ(f.engine.stats().prepared_waits, 0u);
}

TEST(TxnEngineTest, OnResolvedFiresOnceOnAbort) {
  EngineFixture f;
  TxnId writer = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(writer, f.table_id, f.MakeRow(1, "v")).ok());
  int fired = 0;
  f.engine.OnResolved(writer, [&] { ++fired; });
  EXPECT_EQ(fired, 0);
  ASSERT_TRUE(f.engine.Abort(writer).ok());
  EXPECT_EQ(fired, 1);
  // Already resolved: fires immediately.
  f.engine.OnResolved(writer, [&] { ++fired; });
  EXPECT_EQ(fired, 2);

  // A commit fires its waiters once, too: the prepared-wait of a read
  // blocked by a PREPARED writer, which serves the read again from there.
  f.now_ms += 5;
  TxnId committer = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(committer, f.table_id, f.MakeRow(2, "w")).ok());
  Result<Timestamp> prep = f.engine.Prepare(committer);
  ASSERT_TRUE(prep.ok());
  f.now_ms += 5;
  const Timestamp snapshot = f.hlc.Now();
  Row row;
  TxnId blocker = kInvalidTxnId;
  ASSERT_TRUE(
      f.engine.ReadAt(snapshot, f.table_id, f.Key(2), &row, &blocker).IsBusy());
  ASSERT_EQ(blocker, committer);
  int commit_fired = 0;
  Status reread = Status::Unavailable("waiter never fired");
  f.engine.OnResolved(blocker, [&] {
    ++commit_fired;
    reread = f.engine.ReadAt(snapshot, f.table_id, f.Key(2), &row);
  });
  EXPECT_EQ(commit_fired, 0);
  ASSERT_TRUE(f.engine.Commit(committer, *prep).ok());
  EXPECT_EQ(commit_fired, 1);
  ASSERT_TRUE(reread.ok()) << reread.ToString();
  EXPECT_EQ(std::get<std::string>(row[1]), "w");
  ASSERT_TRUE(f.engine.Commit(committer, *prep).ok());  // a retried commit
  EXPECT_EQ(commit_fired, 1);
  f.engine.OnResolved(committer, [&] { ++commit_fired; });
  EXPECT_EQ(commit_fired, 2);
}

TEST(TxnEngineTest, LocalCommitIsOneMtrThatReplays) {
  // The prepare and commit records share one MTR: one append, one
  // durability request, and no PREPARED window between two of them.
  EngineFixture f;
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(txn, f.table_id, f.MakeRow(1, "a")).ok());
  const uint64_t mtrs = f.log.mtrs_appended();
  Result<Timestamp> cts = f.engine.CommitLocal(txn);
  ASSERT_TRUE(cts.ok());
  EXPECT_EQ(f.log.mtrs_appended(), mtrs + 1);

  // Replayed alone, the log yields the committed row and state.
  std::vector<RedoRecord> recs;
  ASSERT_TRUE(f.log.ReadRecords(1, f.log.current_lsn(), &recs).ok());
  TableCatalog catalog;
  catalog.CreateTable(f.table_id, "kv",
                      f.catalog.FindTable(f.table_id)->schema(), 0);
  ASSERT_TRUE(RedoApplier(&catalog).ApplyAll(recs).ok());
  TxnEngineOptions opts;
  opts.id_epoch = 1;
  TxnEngine rebuilt(1, &catalog, &f.hlc, &f.log, &f.pool, opts);
  ASSERT_TRUE(rebuilt.RecoverState(recs).ok());
  Result<TxnState> state = rebuilt.StateOf(txn);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, TxnState::kCommitted);
  Row row;
  ASSERT_TRUE(rebuilt.ReadAt(*cts, f.table_id, f.Key(1), &row).ok());
  EXPECT_EQ(std::get<std::string>(row[1]), "a");
}

TEST(TxnEngineTest, CommitIsIdempotent) {
  EngineFixture f;
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(txn, f.table_id, f.MakeRow(1, "v")).ok());
  auto prep = f.engine.Prepare(txn);
  ASSERT_TRUE(prep.ok());
  ASSERT_TRUE(f.engine.Commit(txn, *prep).ok());
  EXPECT_TRUE(f.engine.Commit(txn, *prep).ok());
  EXPECT_EQ(f.engine.stats().committed, 1u);
}

TEST(TxnEngineTest, CannotWriteAfterPrepare) {
  EngineFixture f;
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(txn, f.table_id, f.MakeRow(1, "v")).ok());
  ASSERT_TRUE(f.engine.Prepare(txn).ok());
  EXPECT_FALSE(f.engine.Update(txn, f.table_id, f.MakeRow(2, "w")).ok());
}

TEST(TxnEngineTest, CannotAbortCommitted) {
  EngineFixture f;
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(txn, f.table_id, f.MakeRow(1, "v")).ok());
  ASSERT_TRUE(f.engine.CommitLocal(txn).ok());
  EXPECT_FALSE(f.engine.Abort(txn).ok());
}

TEST(TxnEngineTest, CommitTsGoesThroughNodeClock) {
  // §IV step 7: participants ClockUpdate(commit_ts); later local events must
  // order after the commit even if the local physical clock lags.
  EngineFixture f;
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(txn, f.table_id, f.MakeRow(1, "v")).ok());
  ASSERT_TRUE(f.engine.Prepare(txn).ok());
  Timestamp remote_commit = hlc_layout::Pack(999999, 3);  // far-future commit
  ASSERT_TRUE(f.engine.Commit(txn, remote_commit).ok());
  EXPECT_GE(f.hlc.Now(), remote_commit);
}

TEST(TxnEngineTest, ScanVisibleSeesSnapshotConsistentSet) {
  EngineFixture f;
  for (int64_t i = 0; i < 10; ++i) f.Put(i, "v" + std::to_string(i));
  f.now_ms += 1;
  TxnId reader = f.engine.Begin();
  // New writes after the reader began must not appear.
  f.Put(100, "late");
  int count = 0;
  ASSERT_TRUE(f.engine
                  .ScanVisible(reader, f.table_id, "", "",
                               [&](const EncodedKey&, const Row&) {
                                 ++count;
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(count, 10);
}

TEST(TxnEngineTest, ScanRangeRespectsBounds) {
  EngineFixture f;
  for (int64_t i = 0; i < 20; ++i) f.Put(i, "v");
  f.now_ms += 1;
  TxnId reader = f.engine.Begin();
  int count = 0;
  ASSERT_TRUE(f.engine
                  .ScanVisible(reader, f.table_id, f.Key(5), f.Key(15),
                               [&](const EncodedKey&, const Row&) {
                                 ++count;
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(count, 10);
}

TEST(TxnEngineTest, VacuumForgetsOldTransactionsButKeepsData) {
  EngineFixture f;
  f.Put(1, "a");
  f.now_ms += 100;
  Timestamp horizon = f.hlc.Now();
  f.now_ms += 100;
  f.Put(1, "b");
  f.engine.Vacuum(horizon);
  EXPECT_EQ(f.Get(1), "b");
}

// A resolved transaction pins none of its versions: once a newer version
// supersedes one, MvccTable::Vacuum frees it while the engine still
// remembers the transaction that wrote it.
TEST(TxnEngineTest, ResolvedTxnPinsNoVersions) {
  EngineFixture f;
  TxnId first = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(first, f.table_id, f.MakeRow(1, "a")).ok());
  ASSERT_TRUE(f.engine.CommitLocal(first).ok());
  MvccTable& rows = f.catalog.FindTable(f.table_id)->rows();
  std::weak_ptr<Version> superseded = rows.Head(f.Key(1));
  f.now_ms += 100;
  f.Put(1, "b");
  ASSERT_TRUE(f.engine.InfoOf(first).ok());
  EXPECT_EQ(rows.Vacuum(f.hlc.Now()), 1u);
  EXPECT_TRUE(superseded.expired());
  EXPECT_EQ(f.Get(1), "b");
}

TEST(TxnEngineTest, RedoStreamRecordsOperations) {
  EngineFixture f;
  f.Put(1, "a");
  std::vector<RedoRecord> recs;
  ASSERT_TRUE(f.log.ReadRecords(1, f.log.current_lsn(), &recs).ok());
  // upsert(update) + prepare + commit
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].type, RedoType::kUpdate);
  EXPECT_EQ(recs[1].type, RedoType::kTxnPrepare);
  EXPECT_EQ(recs[2].type, RedoType::kTxnCommit);
  EXPECT_EQ(recs[0].txn_id, recs[2].txn_id);
}

TEST(TxnEngineTest, WritesDirtyBufferPages) {
  EngineFixture f;
  f.Put(1, "a");
  EXPECT_GE(f.pool.dirty_pages(), 1u);
  EXPECT_LT(f.pool.MinDirtyLsn(), kMaxLsn);
}

// ---- randomized SI property test ----
//
// N concurrent account rows; random transfer transactions move amounts
// between them. Under snapshot isolation every read snapshot must observe
// a constant total balance (transfers are balance-preserving), and the
// final state must equal the sum of applied transfers.
class SiPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SiPropertyTest, BalancePreservedUnderConcurrentTransfers) {
  EngineFixture f;
  Schema schema({{"id", ValueType::kInt64, false},
                 {"balance", ValueType::kInt64, false}},
                {0});
  const TableId kAccounts = 42;
  f.catalog.CreateTable(kAccounts, "accounts", schema, 0);

  constexpr int kNumAccounts = 8;
  constexpr int64_t kInitial = 1000;
  {
    TxnId setup = f.engine.Begin();
    for (int64_t i = 0; i < kNumAccounts; ++i) {
      ASSERT_TRUE(
          f.engine.Insert(setup, kAccounts, {i, kInitial}).ok());
    }
    ASSERT_TRUE(f.engine.CommitLocal(setup).ok());
  }

  Rng rng(GetParam());
  int committed = 0, aborted = 0;
  for (int iter = 0; iter < 400; ++iter) {
    f.now_ms += 1;
    if (rng.Bernoulli(0.3)) {
      // Snapshot audit: total must be exactly preserved.
      Timestamp snap = f.hlc.Now();
      int64_t total = 0;
      for (int64_t i = 0; i < kNumAccounts; ++i) {
        Row row;
        Status s = f.engine.ReadAt(snap, kAccounts, EncodeKey({i}), &row);
        ASSERT_TRUE(s.ok()) << s.ToString();
        total += std::get<int64_t>(row[1]);
      }
      EXPECT_EQ(total, kNumAccounts * kInitial) << "iteration " << iter;
      continue;
    }
    // Random transfer.
    int64_t from = rng.UniformRange(0, kNumAccounts - 1);
    int64_t to = rng.UniformRange(0, kNumAccounts - 1);
    if (from == to) continue;
    int64_t amount = rng.UniformRange(1, 50);
    TxnId txn = f.engine.Begin();
    Row from_row, to_row;
    Status s = f.engine.Read(txn, kAccounts, EncodeKey({from}), &from_row);
    ASSERT_TRUE(s.ok());
    s = f.engine.Read(txn, kAccounts, EncodeKey({to}), &to_row);
    ASSERT_TRUE(s.ok());
    Row new_from{from, std::get<int64_t>(from_row[1]) - amount};
    Row new_to{to, std::get<int64_t>(to_row[1]) + amount};
    if (!f.engine.Update(txn, kAccounts, new_from).ok() ||
        !f.engine.Update(txn, kAccounts, new_to).ok()) {
      f.engine.Abort(txn);
      ++aborted;
      continue;
    }
    if (f.engine.CommitLocal(txn).ok()) {
      ++committed;
    } else {
      f.engine.Abort(txn);
      ++aborted;
    }
  }
  EXPECT_GT(committed, 0);

  f.now_ms += 10;
  Timestamp final_snap = f.hlc.Now();
  int64_t total = 0;
  for (int64_t i = 0; i < kNumAccounts; ++i) {
    Row row;
    ASSERT_TRUE(
        f.engine.ReadAt(final_snap, kAccounts, EncodeKey({i}), &row).ok());
    total += std::get<int64_t>(row[1]);
  }
  EXPECT_EQ(total, kNumAccounts * kInitial);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SiPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

// ---------------------------------------------------------------------------
// Bulk load + the commit-durability hook (write-path batching seams)
// ---------------------------------------------------------------------------

TEST(TxnEngineTest, BulkLoadAppendsOneMtrForAllRows) {
  EngineFixture f;
  TxnId txn = f.engine.Begin();
  std::vector<Row> rows;
  for (int64_t i = 1; i <= 100; ++i) rows.push_back(f.MakeRow(i, "bulk"));
  uint64_t mtrs_before = f.log.mtrs_appended();
  ASSERT_TRUE(f.engine.BulkLoad(txn, f.table_id, rows).ok());
  EXPECT_EQ(f.log.mtrs_appended() - mtrs_before, 1u)
      << "bulk load must batch all rows into a single MTR append";
  ASSERT_TRUE(f.engine.CommitLocal(txn).ok());
  EXPECT_EQ(f.Get(1), "bulk");
  EXPECT_EQ(f.Get(100), "bulk");
}

TEST(TxnEngineTest, BulkLoadConflictInstallsNothing) {
  EngineFixture f;
  // A concurrent ACTIVE writer holds key 50: the bulk load hits a
  // write-write conflict partway through and must unwind rows 48-49.
  TxnId writer = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(writer, f.table_id, f.MakeRow(50, "w")).ok());
  TxnId txn = f.engine.Begin();
  std::vector<Row> rows;
  for (int64_t i = 48; i <= 51; ++i) rows.push_back(f.MakeRow(i, "bulk"));
  uint64_t mtrs_before = f.log.mtrs_appended();
  EXPECT_TRUE(f.engine.BulkLoad(txn, f.table_id, rows).IsConflict());
  EXPECT_EQ(f.log.mtrs_appended(), mtrs_before) << "failed load logs nothing";
  ASSERT_TRUE(f.engine.Abort(txn).ok());
  ASSERT_TRUE(f.engine.CommitLocal(writer).ok());
  EXPECT_EQ(f.Get(48), std::nullopt);
  EXPECT_EQ(f.Get(49), std::nullopt);
  EXPECT_EQ(f.Get(51), std::nullopt);
  EXPECT_EQ(f.Get(50), "w");
}

TEST(TxnEngineTest, DurabilityHookReplacesDirectFlush) {
  EngineFixture f;
  std::vector<Lsn> submitted;
  f.engine.SetDurabilityHook([&](Lsn end) { submitted.push_back(end); });
  Lsn flushed_before = f.log.flushed_lsn();
  f.Put(1, "a");
  ASSERT_FALSE(submitted.empty())
      << "commit must route durability through the hook";
  EXPECT_EQ(f.log.flushed_lsn(), flushed_before)
      << "with a hook installed the engine no longer flushes directly";
  EXPECT_EQ(submitted.back(), f.log.current_lsn());
  // The hook owner (group-commit driver in the cluster) flushes later.
  f.log.MarkFlushed(submitted.back());
  EXPECT_EQ(f.Get(1), "a");
}

TEST(TxnEngineTest, WithoutHookCommitStillFlushesDirectly) {
  EngineFixture f;
  f.Put(1, "a");
  EXPECT_EQ(f.log.flushed_lsn(), f.log.current_lsn())
      << "legacy standalone-engine behavior is preserved";
}

TEST(TxnEngineTest, AbortRoutesThroughHookWithoutRequiringFlush) {
  EngineFixture f;
  std::vector<Lsn> submitted;
  f.engine.SetDurabilityHook([&](Lsn end) { submitted.push_back(end); });
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Insert(txn, f.table_id, f.MakeRow(1, "a")).ok());
  size_t before = submitted.size();
  ASSERT_TRUE(f.engine.Abort(txn).ok());
  EXPECT_GT(submitted.size(), before)
      << "abort records must still kick replication when a hook is set";
}

TEST(TxnEngineTest, RebuiltEngineNeverReissuesTxnIdsFromPreviousLife) {
  // A failover promotion rebuilds the engine, losing branches that were
  // only ever in memory. If the new incarnation re-minted the same TxnIds,
  // a retried 2PC RPC carrying a dead branch's id could prepare — and then
  // commit — an unrelated branch that drew the same counter value. The
  // id_epoch option keeps the id spaces of successive incarnations
  // disjoint.
  EngineFixture f;
  std::vector<TxnId> old_ids;
  for (int i = 0; i < 8; ++i) {
    old_ids.push_back(f.engine.BeginBranch(0, GlobalTxnId(1000 + i), 7));
  }

  TxnEngineOptions opts;
  opts.id_epoch = 1;  // next incarnation, same engine_id
  TxnEngine rebuilt(1, &f.catalog, &f.hlc, &f.log, &f.pool, opts);
  for (int i = 0; i < 8; ++i) {
    TxnId fresh = rebuilt.BeginBranch(0, GlobalTxnId(2000 + i), 7);
    for (TxnId old : old_ids) {
      EXPECT_NE(fresh, old) << "incarnation " << opts.id_epoch
                            << " re-issued a TxnId from incarnation 0";
    }
    // A 2PC RPC addressed to a previous life's branch must fail loudly
    // instead of resolving to whatever branch recycled the counter.
    EXPECT_TRUE(rebuilt.Prepare(old_ids[size_t(i)], 7).status().IsNotFound());
  }
}

TEST(TxnEngineTest, RecoveryKeepsParticipantsFencesAndOnePhaseCommits) {
  // What implicit-commit recovery reads must survive a rebuild from redo:
  // a prepare's participant set, a one-phase commit's global identity (or
  // the resolver would take the committed branch for a missing one), and
  // a fence, which must keep refusing a late prepare.
  EngineFixture f;
  TxnId prepared = f.engine.BeginBranch(0, GlobalTxnId(11), 7);
  ASSERT_TRUE(f.engine.Update(prepared, f.table_id, f.MakeRow(1, "a")).ok());
  ASSERT_TRUE(f.engine.Prepare(prepared, 0, {1, 2, 3}).ok());
  TxnId one_phase = f.engine.BeginBranch(0, GlobalTxnId(12), 7);
  ASSERT_TRUE(f.engine.Update(one_phase, f.table_id, f.MakeRow(2, "b")).ok());
  Result<Timestamp> committed = f.engine.CommitLocal(one_phase);
  ASSERT_TRUE(committed.ok());
  ASSERT_EQ(f.engine.FenceUnprepared(GlobalTxnId(13))->state,
            TxnState::kAborted);

  std::vector<RedoRecord> recs;
  ASSERT_TRUE(f.log.ReadRecords(1, f.log.current_lsn(), &recs).ok());
  TxnEngineOptions opts;
  opts.id_epoch = 1;
  TxnEngine rebuilt(1, &f.catalog, &f.hlc, &f.log, &f.pool, opts);
  ASSERT_TRUE(rebuilt.RecoverState(recs).ok());

  Result<TxnInfo> info = rebuilt.InfoOf(prepared);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, TxnState::kPrepared);
  EXPECT_EQ(info->participants, (std::vector<uint32_t>{1, 2, 3}));
  Result<TxnInfo> report = rebuilt.FenceUnprepared(GlobalTxnId(12));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->state, TxnState::kCommitted);
  EXPECT_EQ(report->commit_ts, *committed);
  TxnId late = rebuilt.BeginBranch(0, GlobalTxnId(13), 7);
  ASSERT_TRUE(rebuilt.Update(late, f.table_id, f.MakeRow(3, "c")).ok());
  EXPECT_TRUE(rebuilt.Prepare(late, 0, {1}).status().IsAborted());
}

}  // namespace
}  // namespace polarx
