// Integration tests for redo-based recovery and the full storage spine:
// a DN's state must be reconstructible from its redo log alone (crash
// recovery), including aborted-transaction cleanup, and checkpoint/purge
// interactions with the buffer pool must preserve that property.
#include <gtest/gtest.h>

#include "src/clock/hlc.h"
#include "src/common/rng.h"
#include "src/replication/redo_applier.h"
#include "src/storage/buffer_pool.h"
#include "src/txn/engine.h"

namespace polarx {
namespace {

constexpr TableId kTable = 1;

Schema KvSchema() {
  return Schema({{"id", ValueType::kInt64, false},
                 {"v", ValueType::kString, true}},
                {0});
}

struct Node {
  uint64_t now_ms = 1000;
  TableCatalog catalog;
  Hlc hlc;
  RedoLog log;
  CountingPageStore store;
  BufferPool pool;
  TxnEngine engine;

  Node()
      : hlc([this] { return now_ms; }),
        pool(&store),
        engine(1, &catalog, &hlc, &log, &pool) {
    catalog.CreateTable(kTable, "kv", KvSchema(), 0);
  }
};

/// Replays a node's redo log into a fresh catalog (the crash-recovery
/// path) and returns it.
std::unique_ptr<TableCatalog> Recover(const RedoLog& log) {
  auto catalog = std::make_unique<TableCatalog>();
  catalog->CreateTable(kTable, "kv", KvSchema(), 0);
  RedoApplier applier(catalog.get());
  std::vector<RedoRecord> records;
  EXPECT_TRUE(
      log.ReadRecords(log.purged_before(), log.current_lsn(), &records)
          .ok());
  EXPECT_TRUE(applier.ApplyAll(records).ok());
  return catalog;
}

/// Compares the committed-visible contents of two catalogs at a snapshot.
void ExpectSameContents(TableCatalog* a, TableCatalog* b,
                        Timestamp snapshot) {
  TableStore* ta = a->FindTable(kTable);
  TableStore* tb = b->FindTable(kTable);
  std::map<EncodedKey, Row> rows_a, rows_b;
  auto collect = [snapshot](TableStore* t, std::map<EncodedKey, Row>* out) {
    t->rows().ScanAll([&](const EncodedKey& key, const VersionPtr& head) {
      const Version* v = LatestVisible(head, snapshot);
      if (v != nullptr && !v->deleted) (*out)[key] = v->row;
      return true;
    });
  };
  collect(ta, &rows_a);
  collect(tb, &rows_b);
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (const auto& [key, row] : rows_a) {
    auto it = rows_b.find(key);
    ASSERT_NE(it, rows_b.end());
    ASSERT_EQ(row.size(), it->second.size());
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ(CompareValues(row[c], it->second[c]), 0);
    }
  }
}

TEST(RecoveryTest, RandomHistoryReplaysExactly) {
  Node node;
  Rng rng(123);
  for (int i = 0; i < 500; ++i) {
    node.now_ms += 1;
    TxnId txn = node.engine.Begin();
    int ops = 1 + int(rng.Uniform(4));
    bool ok = true;
    for (int o = 0; o < ops && ok; ++o) {
      int64_t key = int64_t(rng.Uniform(100));
      if (rng.Bernoulli(0.2)) {
        ok = node.engine.Delete(txn, kTable, EncodeKey({key})).ok();
      } else {
        ok = node.engine
                 .Update(txn, kTable, {key, rng.AlphaString(8)})
                 .ok();
      }
    }
    if (!ok || rng.Bernoulli(0.15)) {
      node.engine.Abort(txn);  // aborted txns must not survive recovery
    } else {
      node.engine.CommitLocal(txn);
    }
  }
  node.log.MarkFlushed(node.log.current_lsn());

  auto recovered = Recover(node.log);
  node.now_ms += 1;
  ExpectSameContents(&node.catalog, recovered.get(), node.hlc.Now());
}

TEST(RecoveryTest, RecoveredSnapshotsMatchAtEveryCommit) {
  Node node;
  std::vector<Timestamp> commit_points;
  for (int i = 0; i < 20; ++i) {
    node.now_ms += 1;
    TxnId txn = node.engine.Begin();
    ASSERT_TRUE(node.engine
                    .Update(txn, kTable,
                            {int64_t(i % 5), "v" + std::to_string(i)})
                    .ok());
    auto cts = node.engine.CommitLocal(txn);
    ASSERT_TRUE(cts.ok());
    commit_points.push_back(*cts);
  }
  auto recovered = Recover(node.log);
  // Time travel: every historical snapshot is identical on both sides.
  for (Timestamp ts : commit_points) {
    ExpectSameContents(&node.catalog, recovered.get(), ts);
  }
}

TEST(RecoveryTest, CheckpointPurgeKeepsRecoverableSuffix) {
  Node node;
  // Phase 1: writes that will be checkpointed away.
  for (int i = 0; i < 50; ++i) {
    node.now_ms += 1;
    TxnId txn = node.engine.Begin();
    ASSERT_TRUE(
        node.engine.Update(txn, kTable, {int64_t(i), std::string("old")})
            .ok());
    ASSERT_TRUE(node.engine.CommitLocal(txn).ok());
  }
  // Checkpoint: flush all dirty pages, then purge the consumed redo.
  node.log.MarkFlushed(node.log.current_lsn());
  node.pool.FlushUpTo(node.log.current_lsn());
  ASSERT_EQ(node.pool.dirty_pages(), 0u);
  Lsn checkpoint = node.log.current_lsn();
  node.log.PurgeBefore(checkpoint);

  // Phase 2: more writes after the checkpoint.
  for (int i = 100; i < 120; ++i) {
    node.now_ms += 1;
    TxnId txn = node.engine.Begin();
    ASSERT_TRUE(
        node.engine.Update(txn, kTable, {int64_t(i), std::string("new")})
            .ok());
    ASSERT_TRUE(node.engine.CommitLocal(txn).ok());
  }
  // Recovery from the checkpoint replays only the suffix: phase-2 rows
  // present, phase-1 rows come from the (not-modeled-here) page images.
  auto recovered = Recover(node.log);
  TableStore* t = recovered->FindTable(kTable);
  node.now_ms += 1;
  Timestamp snap = node.hlc.Now();
  int new_rows = 0, old_rows = 0;
  t->rows().ScanAll([&](const EncodedKey&, const VersionPtr& head) {
    const Version* v = LatestVisible(head, snap);
    if (v != nullptr) {
      (std::get<std::string>(v->row[1]) == "new" ? new_rows : old_rows)++;
    }
    return true;
  });
  EXPECT_EQ(new_rows, 20);
  EXPECT_EQ(old_rows, 0) << "pre-checkpoint redo is gone (pages hold it)";
  // And the pre-checkpoint range is unreadable, as it must be.
  std::vector<RedoRecord> records;
  EXPECT_FALSE(node.log.ReadRecords(1, checkpoint, &records).ok());
}

TEST(RecoveryTest, MinDirtyLsnBoundsCheckpoint) {
  // The redo needed for recovery is exactly [min dirty oldest-mod, end):
  // purging beyond MinDirtyLsn() would lose updates not yet in pages.
  Node node;
  for (int i = 0; i < 10; ++i) {
    node.now_ms += 1;
    TxnId txn = node.engine.Begin();
    ASSERT_TRUE(
        node.engine.Update(txn, kTable, {int64_t(i), std::string("x")})
            .ok());
    ASSERT_TRUE(node.engine.CommitLocal(txn).ok());
  }
  Lsn min_dirty = node.pool.MinDirtyLsn();
  ASSERT_LT(min_dirty, kMaxLsn);
  EXPECT_LT(min_dirty, node.log.current_lsn());
  // Flush half the LSN space; the bound advances but stays <= current.
  Lsn half = min_dirty + (node.log.current_lsn() - min_dirty) / 2;
  node.pool.FlushUpTo(half);
  Lsn after = node.pool.MinDirtyLsn();
  EXPECT_GE(after, min_dirty);
}

}  // namespace
}  // namespace polarx
