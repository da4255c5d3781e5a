// Chaos/invariant suite for two-phase commit atomicity across DN
// crash-restart (§III/§IV).
//
// A sharded bank runs seeded transfers through TxnCoordinator (HLC-SI) over
// the inline transport of tests/txn_cluster.h. The coordinator's step hook
// crashes one of the transfer's two DNs at one of three points: before
// prepare, between the two prepares, and at the commit point (every branch
// PREPARED, none committed yet). A crash discards the DN's catalog and
// engine, and the DN restarts from its redo log alone with RedoApplier +
// TxnEngine::RecoverState, the path a SimCluster failover runs: a PREPARED
// branch survives in doubt, an ACTIVE one is presumed aborted. The
// coordinator carries on, so a transfer commits exactly when both of its
// prepares succeed.
//
// Invariants, checked after the run on every DN:
//
//   A1  atomicity: the final committed state equals the model that applied
//       exactly the transfers the coordinator acknowledged — a transfer is
//       never half-applied, regardless of where the crash hit;
//   A2  conservation: total balance across all DNs is unchanged;
//   A3  recovery equivalence: replaying each DN's redo log from scratch
//       reproduces its live catalog (the log alone carries the state).
//
// A failing seed is replayable with POLARX_CHAOS_SEED=<seed>.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/replication/redo_applier.h"
#include "src/storage/key_codec.h"
#include "src/storage/mvcc.h"
#include "tests/chaos/chaos_util.h"
#include "tests/txn_cluster.h"

namespace polarx {
namespace {

constexpr TableId kTable = TxnCluster::kTable;
constexpr int kDns = 3;
constexpr int kAccountsPerDn = 8;
constexpr int64_t kInitialBalance = 100;

int64_t AccountId(int dn, int account) {
  return int64_t(dn) * 1000 + account;
}

/// Reads the committed balance map of one DN's catalog at `snapshot`.
std::map<int64_t, int64_t> CommittedBalances(TableCatalog* catalog,
                                             Timestamp snapshot) {
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

void Run2PcChaos(uint64_t seed) {
  Rng rng(seed);
  TxnCluster c(kDns);
  /// The model: balances as of every acknowledged transfer.
  std::map<std::pair<int, int64_t>, int64_t> model;
  for (int d = 0; d < kDns; ++d) {
    std::vector<Row> rows;
    for (int a = 0; a < kAccountsPerDn; ++a) {
      rows.push_back({AccountId(d, a), kInitialBalance});
      model[{d, AccountId(d, a)}] = kInitialBalance;
    }
    c.Load(size_t(d), rows);
  }
  if (::testing::Test::HasFatalFailure()) return;

  // The crash armed for the transfer in flight: at `crash_at`, DN `victim`
  // restarts, and the coordinator goes on with the rebuilt DN.
  std::optional<CommitStep> crash_at;
  int victim = 0;
  std::map<CommitStep, int> crashes_at;
  int crashes = 0;
  int commits = 0;
  SyncCoordinator coord = c.Coordinator(TsScheme::kHlcSi);
  coord.set_step_hook([&](CommitStep step, GlobalTxnId) {
    if (crash_at == step) {
      c.Restart(size_t(victim));
      ++crashes_at[step];
      ++crashes;
      crash_at.reset();
    }
    return true;
  });

  for (int step = 0; step < 120; ++step) {
    c.Tick(&rng);

    // Occasional background crash with no transaction in flight.
    if (rng.Bernoulli(0.05)) {
      c.Restart(size_t(rng.Uniform(kDns)));
      ++crashes;
      continue;
    }

    // One transfer between two distinct DNs.
    int d1 = int(rng.Uniform(kDns));
    int d2 = int(rng.Uniform(kDns));
    if (d1 == d2) d2 = (d2 + 1) % kDns;
    int64_t k1 = AccountId(d1, int(rng.Uniform(kAccountsPerDn)));
    int64_t k2 = AccountId(d2, int(rng.Uniform(kAccountsPerDn)));
    int64_t amount = 1 + int64_t(rng.Uniform(20));
    // Each crash point arms for one transfer in eight:
    //  - before prepare: the victim's ACTIVE branch is presumed aborted, so
    //    its prepare is refused and the transfer aborts;
    //  - between the prepares: the first-prepared branch survives in doubt
    //    and the transfer commits, or the unprepared one is presumed
    //    aborted and the transfer aborts;
    //  - at the commit point: the victim's PREPARED branch survives and
    //    phase 2 commits it on the rebuilt DN.
    switch (rng.Uniform(8)) {
      case 0:
        crash_at = CommitStep::kBeforePrepare;
        break;
      case 1:
        crash_at = CommitStep::kSomePrepared;
        break;
      case 2:
        crash_at = CommitStep::kAllPrepared;
        break;
      default:
        crash_at.reset();
    }
    victim = rng.Bernoulli(0.5) ? d1 : d2;

    DistributedTxn txn = coord.Begin();
    Row r1, r2;
    bool ok =
        coord.Read(&txn, c.engine(d1), kTable, EncodeKey({k1}), &r1).ok() &&
        coord.Read(&txn, c.engine(d2), kTable, EncodeKey({k2}), &r2).ok();
    ok = ok &&
         coord
             .Update(&txn, c.engine(d1), kTable,
                     {k1, std::get<int64_t>(r1[1]) - amount})
             .ok() &&
         coord
             .Update(&txn, c.engine(d2), kTable,
                     {k2, std::get<int64_t>(r2[1]) + amount})
             .ok();
    if (!ok) {
      coord.Abort(&txn);
      continue;
    }
    // The model follows the coordinator's answer; the invariant is that
    // every DN converges to it no matter where the crash hit.
    if (coord.Commit(&txn).ok()) {
      model[{d1, k1}] -= amount;
      model[{d2, k2}] += amount;
      ++commits;
    }
  }
  crash_at.reset();

  // Invariants A1 + A2: every DN's committed state equals the model, read
  // at a snapshot past every clock.
  Timestamp snapshot = c.cn_hlc.Now();
  for (int d = 0; d < kDns; ++d) {
    snapshot = std::max(snapshot, c.engine(d)->hlc()->Now());
  }
  int64_t total = 0;
  for (int d = 0; d < kDns; ++d) {
    std::map<int64_t, int64_t> live =
        CommittedBalances(c.dns[d]->catalog.get(), snapshot);
    ASSERT_EQ(live.size(), size_t(kAccountsPerDn)) << "dn " << d;
    for (const auto& [key, bal] : live) {
      auto it = model.find({d, key});
      ASSERT_NE(it, model.end());
      EXPECT_EQ(bal, it->second)
          << "dn " << d << " account " << key
          << " diverged from the committed-transfer model (atomicity)";
      total += bal;
    }
  }
  EXPECT_EQ(total, int64_t(kDns) * kAccountsPerDn * kInitialBalance)
      << "money created or destroyed by a torn 2PC";
  EXPECT_EQ(coord.stats().commit_failures_after_ack, 0u)
      << "a branch refused its commit after the transfer was acknowledged";

  // Invariant A3: recovery from the redo log alone reproduces each DN.
  for (int d = 0; d < kDns; ++d) {
    RedoLog& log = c.dns[d]->log;
    TableCatalog recovered;
    recovered.CreateTable(kTable, "t",
                          c.dns[d]->catalog->FindTable(kTable)->schema(), 0);
    RedoApplier applier(&recovered);
    std::vector<RedoRecord> records;
    ASSERT_TRUE(
        log.ReadRecords(log.purged_before(), log.current_lsn(), &records)
            .ok());
    ASSERT_TRUE(applier.ApplyAll(records).ok());
    EXPECT_EQ(CommittedBalances(&recovered, snapshot),
              CommittedBalances(c.dns[d]->catalog.get(), snapshot))
        << "dn " << d << " live state diverges from its own redo replay";
  }

  // The schedule must actually have exercised the interesting paths.
  EXPECT_GT(commits, 0) << "no transfer ever committed";
  EXPECT_GT(crashes, 0) << "no DN ever crashed";
  for (CommitStep point : {CommitStep::kBeforePrepare,
                           CommitStep::kSomePrepared,
                           CommitStep::kAllPrepared}) {
    EXPECT_GT(crashes_at[point], 0)
        << "no crash at step " << int(point);
  }
}

TEST(Chaos2PcTest, AtomicityAcrossDnCrashRestartSweep) {
  chaos::SeedSweep(50, Run2PcChaos);
}

}  // namespace
}  // namespace polarx
