// Chaos/invariant suite for two-phase commit atomicity across DN
// crash-restart (§III/§IV).
//
// A sharded bank runs seeded transfers under a hand-rolled 2PC driver so
// that the fault injector can crash a participant DN at every protocol
// step: before prepare, between prepares, and in the window after the
// coordinator decided commit but before a participant logged the commit
// record. A crash discards the DN's volatile state (engine, catalog); the
// DN is rebuilt by replaying its redo log — exactly the recovery path —
// and in-doubt branches are resolved from the coordinator's decision
// (presumed-abort when no decision was reached).
//
// Invariants, checked after the run on every DN:
//
//   A1  atomicity: the final committed state equals the model that applied
//       exactly the coordinator-committed transfers — a transfer is never
//       half-applied, regardless of where the crash hit;
//   A2  conservation: total balance across all DNs is unchanged;
//   A3  recovery equivalence: replaying each DN's redo log from scratch
//       reproduces its live catalog (the log alone carries the state).
//
// A failing seed is replayable with POLARX_CHAOS_SEED=<seed>.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
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
constexpr int kDns = 3;
constexpr int kAccountsPerDn = 8;
constexpr int64_t kInitialBalance = 100;

Schema BankSchema() {
  return Schema({{"id", ValueType::kInt64, false},
                 {"bal", ValueType::kInt64, false}},
                {0});
}

/// One DN: a redo log that survives crashes, plus volatile state (catalog,
/// engine, buffer pool) that a crash discards.
struct Dn {
  uint64_t now_ms = 1000;
  Hlc hlc;
  RedoLog log;  // durable: survives crashes
  int generation = 0;
  std::unique_ptr<TableCatalog> catalog;
  std::unique_ptr<CountingPageStore> store;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<TxnEngine> engine;

  explicit Dn(int index) : hlc([this] { return now_ms; }), index_(index) {
    BuildVolatile(/*replay=*/false);
  }

  /// (Re)creates the volatile state. On replay, reconstructs the catalog
  /// from the redo log — the crash-recovery path.
  void BuildVolatile(bool replay) {
    catalog = std::make_unique<TableCatalog>();
    catalog->CreateTable(kTable, "bank", BankSchema(), 0);
    if (replay) {
      RedoApplier applier(catalog.get());
      std::vector<RedoRecord> records;
      EXPECT_TRUE(
          log.ReadRecords(log.purged_before(), log.current_lsn(), &records)
              .ok());
      EXPECT_TRUE(applier.ApplyAll(records).ok());
    }
    store = std::make_unique<CountingPageStore>();
    pool = std::make_unique<BufferPool>(store.get());
    // A fresh engine restarts its TxnId counter, so give each incarnation
    // its own id-namespace to keep recovered ids distinct from new ones.
    ++generation;
    engine = std::make_unique<TxnEngine>(
        uint32_t(index_ * 16 + generation), catalog.get(), &hlc, &log,
        pool.get());
  }

 private:
  int index_;
};

/// Coordinator-side record of one 2PC transfer, for crash resolution.
struct TransferOutcome {
  bool decided_commit = false;
  Timestamp commit_ts = 0;
  std::map<int, TxnId> branches;  // dn index -> branch id
};

struct TwoPcHarness {
  std::vector<std::unique_ptr<Dn>> dns;
  uint64_t cn_ms = 1000;
  Hlc cn_hlc;
  /// The model: balances as of every coordinator-decided commit.
  std::map<std::pair<int, int64_t>, int64_t> model;
  int crashes = 0;
  int commits = 0;
  int aborts = 0;

  TwoPcHarness() : cn_hlc([this] { return cn_ms; }) {
    for (int d = 0; d < kDns; ++d) {
      dns.push_back(std::make_unique<Dn>(d));
      Dn* dn = dns.back().get();
      TxnId txn = dn->engine->Begin();
      for (int a = 0; a < kAccountsPerDn; ++a) {
        EXPECT_TRUE(
            dn->engine->Update(txn, kTable, {AccountId(d, a), kInitialBalance})
                .ok());
        model[{d, AccountId(d, a)}] = kInitialBalance;
      }
      EXPECT_TRUE(dn->engine->CommitLocal(txn).ok());
    }
  }

  static int64_t AccountId(int dn, int account) {
    return int64_t(dn) * 1000 + account;
  }

  void Tick(Rng* rng) {
    cn_ms += rng->Uniform(3);
    for (auto& dn : dns) dn->now_ms += rng->Uniform(3);
  }

  /// Crash-restarts DN `d`: volatile state is lost, the redo log replayed,
  /// and `in_doubt` branches resolved from the coordinator's decision —
  /// commit if the coordinator decided commit, presumed-abort otherwise.
  /// The resolution records are appended to the redo log so the decision
  /// itself is durable for any later crash.
  void CrashRestart(int d, const std::vector<const TransferOutcome*>&
                               in_doubt) {
    ++crashes;
    Dn* dn = dns[d].get();
    dn->BuildVolatile(/*replay=*/true);
    for (const TransferOutcome* t : in_doubt) {
      auto it = t->branches.find(d);
      if (it == t->branches.end()) continue;
      RedoRecord rec;
      rec.txn_id = it->second;
      if (t->decided_commit) {
        rec.type = RedoType::kTxnCommit;
        rec.ts = t->commit_ts;
      } else {
        rec.type = RedoType::kTxnAbort;
      }
      dn->log.AppendMtr({rec});
    }
    // Replay once more so the resolutions take effect in the live catalog
    // (production folds this into one recovery pass; rebuilding twice
    // exercises the same code and keeps the helper simple).
    dn->BuildVolatile(/*replay=*/true);
  }

  /// Largest snapshot any DN could have stamped: safe read point.
  Timestamp FinalSnapshot() {
    Timestamp ts = cn_hlc.Now();
    for (auto& dn : dns) ts = std::max(ts, dn->hlc.Now());
    return ts;
  }
};

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
  TwoPcHarness h;
  if (::testing::Test::HasFatalFailure()) return;

  for (int step = 0; step < 120; ++step) {
    h.Tick(&rng);

    // Occasional background crash with no transaction in flight.
    if (rng.Bernoulli(0.05)) {
      h.CrashRestart(int(rng.Uniform(kDns)), {});
      continue;
    }

    // One transfer between two distinct DNs under 2PC.
    int d1 = int(rng.Uniform(kDns));
    int d2 = int(rng.Uniform(kDns));
    if (d1 == d2) d2 = (d2 + 1) % kDns;
    int64_t k1 = TwoPcHarness::AccountId(d1, int(rng.Uniform(kAccountsPerDn)));
    int64_t k2 = TwoPcHarness::AccountId(d2, int(rng.Uniform(kAccountsPerDn)));
    int64_t amount = 1 + int64_t(rng.Uniform(20));

    TransferOutcome outcome;
    Timestamp snapshot = h.cn_hlc.Now();
    Dn* dn1 = h.dns[d1].get();
    Dn* dn2 = h.dns[d2].get();
    TxnId b1 = dn1->engine->Begin(snapshot);
    TxnId b2 = dn2->engine->Begin(snapshot);
    outcome.branches[d1] = b1;
    outcome.branches[d2] = b2;

    // Execute phase: read both balances, write both updates.
    Row r1, r2;
    bool ok = dn1->engine->Read(b1, kTable, EncodeKey({k1}), &r1).ok() &&
              dn2->engine->Read(b2, kTable, EncodeKey({k2}), &r2).ok();
    ok = ok &&
         dn1->engine
             ->Update(b1, kTable, {k1, std::get<int64_t>(r1[1]) - amount})
             .ok() &&
         dn2->engine
             ->Update(b2, kTable, {k2, std::get<int64_t>(r2[1]) + amount})
             .ok();

    // Crash point 1: participant dies before prepare — nothing durable,
    // presumed abort.
    if (ok && rng.Bernoulli(0.12)) {
      int victim = rng.Bernoulli(0.5) ? d1 : d2;
      h.CrashRestart(victim, {&outcome});
      // The surviving branch is aborted by the coordinator.
      int other = victim == d1 ? d2 : d1;
      h.dns[other]->engine->Abort(outcome.branches[other]);
      ++h.aborts;
      continue;
    }

    // Prepare phase.
    Timestamp max_prepare = 0;
    if (ok) {
      auto p1 = dn1->engine->Prepare(b1);
      ok = p1.ok();
      if (ok) max_prepare = std::max(max_prepare, p1.value());
      // Crash point 2: between the prepares — first participant holds a
      // durable PREPARED branch, coordinator reached no decision.
      if (ok && rng.Bernoulli(0.12)) {
        h.CrashRestart(d1, {&outcome});  // presumed abort resolves b1
        dn2->engine->Abort(b2);
        ++h.aborts;
        continue;
      }
      if (ok) {
        auto p2 = dn2->engine->Prepare(b2);
        ok = p2.ok();
        if (ok) max_prepare = std::max(max_prepare, p2.value());
      }
    }

    if (!ok) {
      dn1->engine->Abort(b1);
      dn2->engine->Abort(b2);
      ++h.aborts;
      continue;
    }

    // Decision: every participant prepared, so the transfer commits with
    // commit_ts = max prepare_ts (HLC-SI) — update the model now; the
    // invariant is that the state converges to it no matter what crashes.
    outcome.decided_commit = true;
    outcome.commit_ts = max_prepare;
    h.cn_hlc.Update(max_prepare);
    h.model[{d1, k1}] -= amount;
    h.model[{d2, k2}] += amount;
    ++h.commits;

    // Crash point 3: a participant dies after the decision but before its
    // commit record — recovery must still commit the branch (its writes
    // and prepare are durable in redo; the decision is re-delivered).
    bool crashed1 = false, crashed2 = false;
    if (rng.Bernoulli(0.12)) {
      int victim = rng.Bernoulli(0.5) ? d1 : d2;
      h.CrashRestart(victim, {&outcome});
      crashed1 = victim == d1;
      crashed2 = victim == d2;
    }
    if (!crashed1) {
      EXPECT_TRUE(dn1->engine->Commit(b1, outcome.commit_ts).ok());
    }
    if (!crashed2) {
      EXPECT_TRUE(dn2->engine->Commit(b2, outcome.commit_ts).ok());
    }
  }

  // Invariants A1 + A2: every DN's committed state equals the model.
  Timestamp snapshot = h.FinalSnapshot();
  int64_t total = 0;
  for (int d = 0; d < kDns; ++d) {
    std::map<int64_t, int64_t> live =
        CommittedBalances(h.dns[d]->catalog.get(), snapshot);
    ASSERT_EQ(live.size(), size_t(kAccountsPerDn)) << "dn " << d;
    for (const auto& [key, bal] : live) {
      auto it = h.model.find({d, key});
      ASSERT_NE(it, h.model.end());
      EXPECT_EQ(bal, it->second)
          << "dn " << d << " account " << key
          << " diverged from the committed-transfer model (atomicity)";
      total += bal;
    }
  }
  EXPECT_EQ(total, int64_t(kDns) * kAccountsPerDn * kInitialBalance)
      << "money created or destroyed by a torn 2PC";

  // Invariant A3: recovery from the redo log alone reproduces each DN.
  for (int d = 0; d < kDns; ++d) {
    TableCatalog recovered;
    recovered.CreateTable(kTable, "bank", BankSchema(), 0);
    RedoApplier applier(&recovered);
    std::vector<RedoRecord> records;
    ASSERT_TRUE(h.dns[d]
                    ->log
                    .ReadRecords(h.dns[d]->log.purged_before(),
                                 h.dns[d]->log.current_lsn(), &records)
                    .ok());
    ASSERT_TRUE(applier.ApplyAll(records).ok());
    EXPECT_EQ(CommittedBalances(&recovered, snapshot),
              CommittedBalances(h.dns[d]->catalog.get(), snapshot))
        << "dn " << d << " live state diverges from its own redo replay";
  }

  // The schedule must actually have exercised the interesting paths.
  EXPECT_GT(h.commits, 0) << "no transfer ever committed";
  EXPECT_GT(h.crashes, 0) << "no DN ever crashed";
}

TEST(Chaos2PcTest, AtomicityAcrossDnCrashRestartSweep) {
  chaos::SeedSweep(50, Run2PcChaos);
}

}  // namespace
}  // namespace polarx
