// Chaos/invariant suite for the Hybrid Logical Clock (§IV) and for HLC-SI
// snapshot consistency in the distributed transaction layer.
//
// Part 1 — clock properties under skewed physical clocks (100 seeds):
// a fleet of nodes whose physical clocks run at seeded random skews
// exchanges timestamps at random; per node, Advance() must be strictly
// increasing, Now()/Peek() non-decreasing, and no timestamp's physical
// component may run ahead of the fastest physical clock in the fleet (the
// HLC drift bound: hlc.pt <= max over nodes of physical time).
//
// Part 2 — HLC-SI snapshot consistency (50 seeds): a sharded bank on
// engines with skewed clocks runs randomly interleaved transfers, audits,
// and contended increments through TxnCoordinator over the inline
// transport of tests/txn_cluster.h. Audits must never see a torn transfer
// (every snapshot conserves total balance — no dirty read of one leg), and
// contended increments must never lose an update (first-committer-wins:
// final counter == number of committed increments).
//
// A failing seed is replayable with POLARX_CHAOS_SEED=<seed>.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/clock/hlc.h"
#include "src/common/rng.h"
#include "tests/chaos/chaos_util.h"
#include "tests/txn_cluster.h"

namespace polarx {
namespace {

// --------------------------------------------------- part 1: the clock --

TEST(ChaosHlcTest, MonotonicAndDriftBoundedSweep) {
  chaos::SeedSweep(100, [](uint64_t seed) {
    Rng rng(seed);
    constexpr int kNodes = 5;
    constexpr uint64_t kMaxSkewMs = 50;

    // Node i's physical clock reads base + skew[i]; skews drift around
    // inside [0, kMaxSkewMs] as the run progresses.
    uint64_t base_ms = 1000;
    std::vector<uint64_t> skew_ms(kNodes);
    for (auto& s : skew_ms) s = rng.Uniform(kMaxSkewMs + 1);

    std::vector<std::unique_ptr<Hlc>> clocks;
    for (int i = 0; i < kNodes; ++i) {
      clocks.push_back(std::make_unique<Hlc>(
          [&base_ms, &skew_ms, i] { return base_ms + skew_ms[i]; }));
    }

    std::vector<Timestamp> last_advance(kNodes, 0);
    std::vector<Timestamp> last_seen(kNodes, 0);
    auto max_physical = [&] {
      uint64_t m = 0;
      for (int i = 0; i < kNodes; ++i) {
        m = std::max(m, base_ms + skew_ms[i]);
      }
      return m;
    };
    // A clock whose skew wobbles back down revokes nothing: the HLC may
    // retain any physical reading it has already absorbed, so the drift
    // bound is against the high-watermark of physical time, not the
    // current fleet maximum.
    uint64_t phys_watermark = max_physical();

    for (int step = 0; step < 2000; ++step) {
      // Physical time advances unevenly: sometimes everyone, sometimes
      // one node's skew wobbles (clock jitter), sometimes nothing.
      if (rng.Bernoulli(0.3)) base_ms += rng.Uniform(3);
      if (rng.Bernoulli(0.3)) {
        skew_ms[rng.Uniform(kNodes)] = rng.Uniform(kMaxSkewMs + 1);
      }
      phys_watermark = std::max(phys_watermark, max_physical());

      int node = int(rng.Uniform(kNodes));
      Timestamp ts = 0;
      switch (rng.Uniform(3)) {
        case 0:  // local event
          ts = clocks[node]->Advance();
          ASSERT_GT(ts, last_advance[node])
              << "Advance not strictly increasing on node " << node
              << " at step " << step;
          last_advance[node] = ts;
          break;
        case 1:  // read
          ts = clocks[node]->Now();
          break;
        case 2: {  // message: sender Advance, receiver Update
          int to = int(rng.Uniform(kNodes));
          Timestamp sent = clocks[node]->Advance();
          ASSERT_GT(sent, last_advance[node]);
          last_advance[node] = sent;
          ts = clocks[to]->Update(sent);
          ASSERT_GE(ts, sent) << "Update went backwards past the message";
          last_seen[to] = std::max(last_seen[to], ts);
          node = to;
          break;
        }
      }
      // Per-node timestamps never regress.
      ASSERT_GE(ts, last_seen[node]) << "clock regressed on node " << node;
      last_seen[node] = ts;
      // Drift bound: the physical component can only originate from some
      // node's physical clock reading, so it never exceeds the highest
      // reading any clock has produced — i.e. the HLC runs at most
      // kMaxSkewMs ahead of the slowest node.
      ASSERT_LE(hlc_layout::Pt(ts), phys_watermark)
          << "HLC physical component ran ahead of every physical clock";
    }
  });
}

// ------------------------------------- part 2: HLC-SI under the bank --

constexpr TableId kTable = TxnCluster::kTable;
constexpr int kShards = 4;
constexpr int kAccountsPerShard = 6;
constexpr int64_t kInitialBalance = 100;
// One designated contended counter row (shard 0) for lost-update checks.
const int64_t kCounterKey = 999;

int64_t AccountId(int shard, int account) {
  return int64_t(shard) * 1000 + account;
}

void RunHlcSiChaos(uint64_t seed) {
  Rng rng(seed);
  // A bank on kShards DNs whose clocks start up to 100 ms apart.
  std::vector<uint64_t> dn_ms(kShards);
  for (auto& ms : dn_ms) ms = 1000 + rng.Uniform(100);
  TxnCluster c(kShards, TsScheme::kHlcSi, dn_ms);
  for (int s = 0; s < kShards; ++s) {
    std::vector<Row> rows;
    for (int a = 0; a < kAccountsPerShard; ++a) {
      rows.push_back({AccountId(s, a), kInitialBalance});
    }
    if (s == 0) rows.push_back({kCounterKey, int64_t(0)});
    c.Load(size_t(s), rows);
  }
  if (::testing::Test::HasFatalFailure()) return;
  SyncCoordinator coord = c.Coordinator(TsScheme::kHlcSi);

  const int64_t total = int64_t(kShards) * kAccountsPerShard *
                        kInitialBalance;
  int64_t committed_increments = 0;
  int audits = 0;

  for (int step = 0; step < 250; ++step) {
    c.Tick(&rng);
    switch (rng.Uniform(4)) {
      case 0: {  // transfer between two random accounts on distinct shards
        int s1 = int(rng.Uniform(kShards));
        int s2 = int(rng.Uniform(kShards));
        if (s1 == s2) s2 = (s2 + 1) % kShards;
        int64_t k1 = AccountId(s1, int(rng.Uniform(kAccountsPerShard)));
        int64_t k2 = AccountId(s2, int(rng.Uniform(kAccountsPerShard)));
        int64_t amount = 1 + int64_t(rng.Uniform(20));
        DistributedTxn txn = coord.Begin();
        Row r1, r2;
        bool ok =
            coord.Read(&txn, c.engine(s1), kTable, EncodeKey({k1}), &r1)
                .ok() &&
            coord.Read(&txn, c.engine(s2), kTable, EncodeKey({k2}), &r2)
                .ok();
        ok = ok &&
             coord.Update(&txn, c.engine(s1), kTable,
                          {k1, std::get<int64_t>(r1[1]) - amount})
                 .ok() &&
             coord.Update(&txn, c.engine(s2), kTable,
                          {k2, std::get<int64_t>(r2[1]) + amount})
                 .ok();
        if (ok) {
          coord.Commit(&txn).ok();  // conflict aborts are fine
        } else {
          coord.Abort(&txn);
        }
        break;
      }
      case 1: {  // audit: one snapshot over every shard conserves money
        DistributedTxn txn = coord.Begin();
        int64_t sum = 0;
        bool complete = true;
        for (int s = 0; s < kShards && complete; ++s) {
          for (int a = 0; a < kAccountsPerShard; ++a) {
            Row row;
            Status st = coord.Read(&txn, c.engine(s), kTable,
                                   EncodeKey({AccountId(s, a)}), &row);
            if (!st.ok()) {  // left waiting on a PREPARED writer: next round
              complete = false;
              break;
            }
            sum += std::get<int64_t>(row[1]);
          }
        }
        coord.Abort(&txn);
        if (complete) {
          ++audits;
          ASSERT_EQ(sum, total)
              << "audit at snapshot " << txn.snapshot_ts()
              << " saw a torn transfer (dirty read across shards)";
        }
        break;
      }
      case 2: {  // two interleaved increments of one contended row
        DistributedTxn t1 = coord.Begin();
        DistributedTxn t2 = coord.Begin();
        Row r1, r2;
        bool ok1 =
            coord.Read(&t1, c.engine(0), kTable, EncodeKey({kCounterKey}), &r1)
                .ok();
        bool ok2 =
            coord.Read(&t2, c.engine(0), kTable, EncodeKey({kCounterKey}), &r2)
                .ok();
        ok1 = ok1 && coord
                         .Update(&t1, c.engine(0), kTable,
                                 {kCounterKey, std::get<int64_t>(r1[1]) + 1})
                         .ok();
        ok1 = ok1 && coord.Commit(&t1).ok();
        if (!ok1) coord.Abort(&t1);
        // t2 read the same version t1 just replaced: SI first-committer-
        // wins must refuse the second write instead of losing t1's update.
        ok2 = ok2 && coord
                         .Update(&t2, c.engine(0), kTable,
                                 {kCounterKey, std::get<int64_t>(r2[1]) + 1})
                         .ok();
        ok2 = ok2 && coord.Commit(&t2).ok();
        if (!ok2) coord.Abort(&t2);
        ASSERT_FALSE(ok1 && ok2)
            << "both interleaved increments committed: lost update";
        committed_increments += (ok1 ? 1 : 0) + (ok2 ? 1 : 0);
        break;
      }
      case 3:  // clock-only step: skew accumulates between transactions
        c.Tick(&rng);
        break;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Lost-update check: the counter equals the number of increments that
  // claimed success. Read at shard 0's own clock — commits there were
  // stamped by it, so its Now() is past every counter commit_ts even when
  // the CN clock lags.
  c.Tick(&rng);
  Row counter;
  ASSERT_TRUE(c.engine(0)
                  ->ReadAt(c.engine(0)->hlc()->Now(), kTable,
                           EncodeKey({kCounterKey}), &counter)
                  .ok());
  EXPECT_EQ(std::get<int64_t>(counter[1]), committed_increments);
  EXPECT_GT(audits, 0) << "chaos schedule never completed an audit";
}

TEST(ChaosHlcSiTest, SnapshotConsistencySweep) {
  chaos::SeedSweep(50, RunHlcSiChaos);
}

}  // namespace
}  // namespace polarx
