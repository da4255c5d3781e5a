// Tests for RW->RO replication (§II-C / Fig. 3): apply correctness, snapshot
// reads on replicas, session consistency, lag kick-out, and purge gating.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "src/clock/hlc.h"
#include "src/replication/rw_ro.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/key_codec.h"
#include "src/txn/engine.h"

namespace polarx {
namespace {

constexpr TableId kTable = 1;

Schema KvSchema() {
  return Schema({{"id", ValueType::kInt64, false},
                 {"val", ValueType::kString, true}},
                {0});
}

struct RwFixture {
  uint64_t now_ms = 1000;
  TableCatalog catalog;
  Hlc hlc;
  RedoLog log;
  CountingPageStore store;
  BufferPool pool;
  TxnEngine engine;
  RwRoReplication repl;

  RwFixture()
      : hlc([this] { return now_ms; }),
        pool(&store),
        engine(1, &catalog, &hlc, &log, &pool),
        repl(&log) {
    catalog.CreateTable(kTable, "kv", KvSchema(), 0);
  }

  Timestamp Put(int64_t id, const std::string& val) {
    TxnId txn = engine.Begin();
    EXPECT_TRUE(engine.Update(txn, kTable, {id, val}).ok());
    auto cts = engine.CommitLocal(txn);
    EXPECT_TRUE(cts.ok());
    return *cts;
  }

  std::unique_ptr<RoReplica> NewReplica(uint32_t id) {
    auto ro = std::make_unique<RoReplica>(id);
    EXPECT_TRUE(ro->MirrorTable(kTable, "kv", KvSchema(), 0).ok());
    repl.AddReplica(ro.get());
    return ro;
  }
};

TEST(ReplicationTest, ReplicaSeesCommittedWrites) {
  RwFixture f;
  auto ro = f.NewReplica(1);
  f.Put(1, "hello");
  f.repl.SyncAll();
  Row row;
  ASSERT_TRUE(ro->Read(kTable, EncodeKey({int64_t{1}}), &row).ok());
  EXPECT_EQ(std::get<std::string>(row[1]), "hello");
}

TEST(ReplicationTest, ReplicaDoesNotSeeUncommittedWrites) {
  RwFixture f;
  auto ro = f.NewReplica(1);
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(txn, kTable, {int64_t{1}, std::string("x")}).ok());
  // Flush the row record (but no commit yet) and sync.
  f.log.MarkFlushed(f.log.current_lsn());
  f.repl.SyncAll();
  Row row;
  EXPECT_TRUE(ro->Read(kTable, EncodeKey({int64_t{1}}), &row).IsNotFound());
  // Commit then sync: visible.
  ASSERT_TRUE(f.engine.CommitLocal(txn).ok());
  f.repl.SyncAll();
  ASSERT_TRUE(ro->Read(kTable, EncodeKey({int64_t{1}}), &row).ok());
}

TEST(ReplicationTest, AbortedTxnNeverVisibleOnReplica) {
  RwFixture f;
  auto ro = f.NewReplica(1);
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(txn, kTable, {int64_t{1}, std::string("x")}).ok());
  ASSERT_TRUE(f.engine.Abort(txn).ok());
  f.log.MarkFlushed(f.log.current_lsn());
  f.repl.SyncAll();
  Row row;
  EXPECT_TRUE(ro->Read(kTable, EncodeKey({int64_t{1}}), &row).IsNotFound());
}

TEST(ReplicationTest, SnapshotReadsAtOlderTimestamps) {
  RwFixture f;
  auto ro = f.NewReplica(1);
  Timestamp t1 = f.Put(1, "v1");
  f.now_ms += 10;
  f.Put(1, "v2");
  f.repl.SyncAll();
  Row row;
  ASSERT_TRUE(ro->Read(kTable, EncodeKey({int64_t{1}}), &row, t1).ok());
  EXPECT_EQ(std::get<std::string>(row[1]), "v1");
  ASSERT_TRUE(ro->Read(kTable, EncodeKey({int64_t{1}}), &row).ok());
  EXPECT_EQ(std::get<std::string>(row[1]), "v2");
}

TEST(ReplicationTest, DeleteReplicates) {
  RwFixture f;
  auto ro = f.NewReplica(1);
  f.Put(1, "x");
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Delete(txn, kTable, EncodeKey({int64_t{1}})).ok());
  ASSERT_TRUE(f.engine.CommitLocal(txn).ok());
  f.repl.SyncAll();
  Row row;
  EXPECT_TRUE(ro->Read(kTable, EncodeKey({int64_t{1}}), &row).IsNotFound());
}

TEST(ReplicationTest, ScanOnReplica) {
  RwFixture f;
  auto ro = f.NewReplica(1);
  for (int64_t i = 0; i < 10; ++i) f.Put(i, "v" + std::to_string(i));
  f.repl.SyncAll();
  int count = 0;
  ASSERT_TRUE(ro->Scan(kTable, "", "", 0,
                       [&](const EncodedKey&, const Row&) {
                         ++count;
                         return true;
                       })
                  .ok());
  EXPECT_EQ(count, 10);
}

TEST(ReplicationTest, MultipleReplicasConverge) {
  RwFixture f;
  auto ro1 = f.NewReplica(1);
  auto ro2 = f.NewReplica(2);
  auto ro3 = f.NewReplica(3);
  for (int64_t i = 0; i < 20; ++i) f.Put(i, "x");
  f.repl.SyncAll();
  for (RoReplica* ro : {ro1.get(), ro2.get(), ro3.get()}) {
    EXPECT_EQ(ro->applied_lsn(), f.log.flushed_lsn());
    Row row;
    EXPECT_TRUE(ro->Read(kTable, EncodeKey({int64_t{19}}), &row).ok());
  }
}

TEST(ReplicationTest, SessionConsistencyWaitsForRwLsn) {
  // §II-C: a CN piggybacks the RW's LSN; the RO must wait until it has
  // applied at least that far before serving the read.
  RwFixture f;
  auto ro = f.NewReplica(1);
  f.Put(1, "v1");
  Lsn rw_lsn = f.log.current_lsn();
  // Replica is behind; a zero-timeout wait fails.
  EXPECT_TRUE(ro->WaitForLsn(rw_lsn, 0).IsTimedOut());
  // Pull in another thread; the wait must then succeed.
  std::thread puller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ro->PullFrom(f.log);
  });
  EXPECT_TRUE(ro->WaitForLsn(rw_lsn, 2000).ok());
  puller.join();
  Row row;
  ASSERT_TRUE(ro->Read(kTable, EncodeKey({int64_t{1}}), &row).ok());
  EXPECT_EQ(std::get<std::string>(row[1]), "v1");
}

TEST(ReplicationTest, MinRoLsnBoundsPurge) {
  RwFixture f;
  auto ro1 = f.NewReplica(1);
  auto ro2 = f.NewReplica(2);
  f.Put(1, "a");
  ro1->PullFrom(f.log);  // ro1 caught up; ro2 still at 1
  EXPECT_EQ(f.repl.MinRoLsn(), 1u);
  f.repl.PurgeConsumedLog();
  EXPECT_EQ(f.log.purged_before(), 1u) << "cannot purge past ro2";
  ro2->PullFrom(f.log);
  EXPECT_EQ(f.repl.MinRoLsn(), f.log.flushed_lsn());
  f.repl.PurgeConsumedLog();
  EXPECT_EQ(f.log.purged_before(), f.log.flushed_lsn());
}

TEST(ReplicationTest, LaggardReplicaKickedOut) {
  RwFixture f;
  RwRoReplication::Options opts;
  opts.max_lag_bytes = 64;
  RwRoReplication repl(&f.log, opts);
  auto ro_fast = std::make_unique<RoReplica>(1);
  auto ro_slow = std::make_unique<RoReplica>(2);
  ro_fast->MirrorTable(kTable, "kv", KvSchema(), 0);
  ro_slow->MirrorTable(kTable, "kv", KvSchema(), 0);
  repl.AddReplica(ro_fast.get());
  repl.AddReplica(ro_slow.get());

  for (int64_t i = 0; i < 20; ++i) f.Put(i, "x");
  ro_fast->PullFrom(f.log);  // only the fast one keeps up
  auto kicked = repl.KickLaggards();
  ASSERT_EQ(kicked.size(), 1u);
  EXPECT_EQ(kicked[0], 2u);
  EXPECT_EQ(repl.replicas().size(), 1u);
  // With the laggard gone, min lsn_RO advances and the log can purge.
  EXPECT_EQ(repl.MinRoLsn(), f.log.flushed_lsn());
}

TEST(ReplicationTest, ReattachedReplicaFastForwardsPastPurge) {
  RwFixture f;
  f.Put(1, "early");
  f.log.PurgeBefore(f.log.flushed_lsn());
  auto ro = f.NewReplica(1);
  f.Put(2, "late");
  f.repl.SyncAll();
  Row row;
  // Row 1 predates the purge horizon: this mirror never sees it (it would
  // come from a checkpoint in production)...
  EXPECT_TRUE(ro->Read(kTable, EncodeKey({int64_t{1}}), &row).IsNotFound());
  // ...but everything after attachment replicates fine.
  ASSERT_TRUE(ro->Read(kTable, EncodeKey({int64_t{2}}), &row).ok());
}

TEST(ReplicationTest, CommitHookObservesTransactions) {
  RwFixture f;
  auto ro = f.NewReplica(1);
  std::vector<std::pair<TxnId, size_t>> commits;
  ro->applier()->SetCommitHook(
      [&](TxnId txn, Timestamp, const std::vector<RedoRecord>& ops) {
        commits.emplace_back(txn, ops.size());
      });
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Update(txn, kTable, {int64_t{1}, std::string("a")}).ok());
  ASSERT_TRUE(f.engine.Update(txn, kTable, {int64_t{2}, std::string("b")}).ok());
  ASSERT_TRUE(f.engine.CommitLocal(txn).ok());
  f.repl.SyncAll();
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits[0].second, 2u);
}

}  // namespace
}  // namespace polarx
