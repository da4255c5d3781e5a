// Chaos/invariant suite for redo-replay equivalence (§V, physical
// replication).
//
// A source DN runs a seeded workload (upserts, deletes, aborts, the
// occasional prepare/commit pair) against a redo-backed engine. The redo
// stream is then shipped to a mirror RedoApplier the way a flaky
// replication channel would: in windows that overlap, duplicate, and
// re-deliver earlier records (at-least-once delivery). The mirror also
// restarts mid-replay — a fresh catalog + applier that re-replays from
// the beginning — simulating a read replica crash.
//
// Invariants:
//
//   R1  equivalence: after all windows are delivered, the mirror's
//       committed state equals the source's at the same snapshot;
//   R2  idempotence: overlapping windows are deduplicated by the
//       applied_through watermark (records_skipped > 0), never
//       double-applied;
//   R3  restart equivalence: a second, single-pass replay from scratch
//       agrees with the incrementally-fed mirror.
//
// A failing seed is replayable with POLARX_CHAOS_SEED=<seed>.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/clock/hlc.h"
#include "src/common/rng.h"
#include "src/replication/redo_applier.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/key_codec.h"
#include "src/storage/mvcc.h"
#include "src/txn/engine.h"
#include "tests/chaos/chaos_util.h"

namespace polarx {
namespace {

constexpr TableId kTable = 1;
constexpr int kKeys = 40;

Schema KvSchema() {
  return Schema({{"id", ValueType::kInt64, false},
                 {"val", ValueType::kInt64, false}},
                {0});
}

/// Committed row contents visible at `snapshot`, keyed by primary key.
std::map<int64_t, int64_t> Visible(TableCatalog* catalog, Timestamp snapshot) {
  std::map<int64_t, int64_t> out;
  TableStore* table = catalog->FindTable(kTable);
  table->rows().ScanAll([&](const EncodedKey&, const VersionPtr& head) {
    const Version* v = LatestVisible(head, snapshot);
    if (v != nullptr && !v->deleted) {
      out[std::get<int64_t>(v->row[0])] = std::get<int64_t>(v->row[1]);
    }
    return true;
  });
  return out;
}

void RunRedoChaos(uint64_t seed) {
  Rng rng(seed);

  // --- Source DN: seeded workload over a redo-backed engine. ---
  uint64_t now_ms = 1000;
  TableCatalog catalog;
  catalog.CreateTable(kTable, "kv", KvSchema(), 0);
  Hlc hlc([&now_ms] { return now_ms; });
  RedoLog log;
  CountingPageStore store;
  BufferPool pool(&store);
  TxnEngine engine(1, &catalog, &hlc, &log, &pool);

  int committed = 0;
  for (int step = 0; step < 150; ++step) {
    now_ms += rng.Uniform(3);
    TxnId txn = engine.Begin();
    int writes = 1 + int(rng.Uniform(4));
    bool ok = true;
    for (int w = 0; w < writes && ok; ++w) {
      int64_t key = int64_t(rng.Uniform(kKeys));
      if (rng.Bernoulli(0.2)) {
        // Deleting a missing row is a no-op failure; ignore the status.
        engine.Delete(txn, kTable, EncodeKey({key}));
      } else {
        ok = engine.Update(txn, kTable, {key, int64_t(rng.Uniform(1000))})
                 .ok();
      }
    }
    if (!ok || rng.Bernoulli(0.15)) {
      engine.Abort(txn);
      continue;
    }
    if (rng.Bernoulli(0.3)) {
      // Distributed-style commit: explicit prepare, then commit at a
      // timestamp >= prepare_ts (what a 2PC coordinator would pick).
      auto prep = engine.Prepare(txn);
      ASSERT_TRUE(prep.ok());
      ASSERT_TRUE(engine.Commit(txn, prep.value()).ok());
    } else {
      ASSERT_TRUE(engine.CommitLocal(txn).ok());
    }
    ++committed;
  }
  ASSERT_GT(committed, 0);

  // The full redo stream; each record carries its own LSN once parsed.
  std::vector<RedoRecord> records;
  ASSERT_TRUE(
      log.ReadRecords(log.purged_before(), log.current_lsn(), &records).ok());
  ASSERT_FALSE(records.empty());

  // --- Mirror: at-least-once delivery in overlapping windows. ---
  auto mirror = std::make_unique<TableCatalog>();
  mirror->CreateTable(kTable, "kv", KvSchema(), 0);
  auto applier = std::make_unique<RedoApplier>(mirror.get());
  int restarts = 0;
  uint64_t total_skipped = 0;
  size_t shipped_through = 0;  // index of first record not yet delivered
  while (shipped_through < records.size()) {
    // Each window starts at or before the frontier (re-delivering up to 8
    // already-shipped records) and extends past it by 1..12 records.
    size_t rewind = std::min(size_t(rng.Uniform(9)), shipped_through);
    size_t begin = shipped_through - rewind;
    size_t end =
        std::min(records.size(), shipped_through + 1 + rng.Uniform(12));
    std::vector<RedoRecord> window(records.begin() + begin,
                                   records.begin() + end);
    if (rng.Bernoulli(0.2)) {
      // Duplicate the window wholesale: the channel re-sent a batch.
      window.insert(window.end(), records.begin() + begin,
                    records.begin() + end);
    }
    ASSERT_TRUE(applier->ApplyAll(window).ok());
    total_skipped += applier->records_skipped();
    shipped_through = end;

    if (rng.Bernoulli(0.1)) {
      // Mirror crash: throw away the catalog and applier, re-replay the
      // prefix delivered so far from scratch, then keep streaming.
      ++restarts;
      mirror = std::make_unique<TableCatalog>();
      mirror->CreateTable(kTable, "kv", KvSchema(), 0);
      applier = std::make_unique<RedoApplier>(mirror.get());
      std::vector<RedoRecord> prefix(records.begin(),
                                     records.begin() + shipped_through);
      ASSERT_TRUE(applier->ApplyAll(prefix).ok());
    }
  }
  total_skipped += applier->records_skipped();

  // R2: the overlapping windows must actually have forced deduplication.
  EXPECT_GT(total_skipped, 0u)
      << "no overlap was ever delivered; the sweep is not testing "
         "at-least-once semantics";

  // R1: mirror equals source at a snapshot covering every commit.
  now_ms += 10;
  Timestamp snapshot = hlc.Now();
  std::map<int64_t, int64_t> source_state = Visible(&catalog, snapshot);
  EXPECT_EQ(Visible(mirror.get(), snapshot), source_state)
      << "mirror diverged from source after windowed replay";

  // R3: one clean end-to-end replay agrees with the incremental mirror.
  TableCatalog fresh;
  fresh.CreateTable(kTable, "kv", KvSchema(), 0);
  RedoApplier clean(&fresh);
  ASSERT_TRUE(clean.ApplyAll(records).ok());
  EXPECT_EQ(clean.records_skipped(), 0u);
  EXPECT_EQ(Visible(&fresh, snapshot), source_state)
      << "single-pass replay diverged from the source";
  EXPECT_EQ(clean.txns_committed(), uint64_t(committed));
}

TEST(ChaosRedoTest, ReplayEquivalenceSweep) {
  chaos::SeedSweep(50, RunRedoChaos);
}

}  // namespace
}  // namespace polarx
