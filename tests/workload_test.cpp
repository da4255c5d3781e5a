// Tests for the sysbench generator, TPC-C-lite transactions, and the
// simulated multi-DC cluster executing sysbench end to end under both
// HLC-SI and TSO-SI.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/cn/sim_cluster.h"
#include "src/workload/sysbench.h"
#include "src/workload/tpcc.h"

namespace polarx {
namespace {

// ---------- sysbench ----------

TEST(SysbenchTest, ReadOnlyMix) {
  Sysbench bench({.mode = SysbenchMode::kReadOnly, .table_size = 1000});
  Rng rng(1);
  SysbenchTxn txn = bench.NextTxn(&rng);
  EXPECT_TRUE(txn.read_only);
  int points = 0, ranges = 0;
  for (const auto& op : txn.ops) {
    points += op.type == SysbenchOp::Type::kPointRead;
    ranges += op.type == SysbenchOp::Type::kRangeRead;
  }
  EXPECT_EQ(points, 10);
  EXPECT_EQ(ranges, 4);
}

TEST(SysbenchTest, WriteOnlyMix) {
  Sysbench bench({.mode = SysbenchMode::kWriteOnly, .table_size = 1000});
  Rng rng(1);
  SysbenchTxn txn = bench.NextTxn(&rng);
  EXPECT_FALSE(txn.read_only);
  ASSERT_EQ(txn.ops.size(), 4u);
  // The delete and the re-insert target the same key (sysbench semantics).
  EXPECT_EQ(txn.ops[2].type, SysbenchOp::Type::kDelete);
  EXPECT_EQ(txn.ops[3].type, SysbenchOp::Type::kInsert);
  EXPECT_EQ(txn.ops[2].key, txn.ops[3].key);
}

TEST(SysbenchTest, KeysWithinTable) {
  Sysbench bench({.mode = SysbenchMode::kReadWrite, .table_size = 50});
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    for (const auto& op : bench.NextTxn(&rng).ops) {
      EXPECT_GE(op.key, 1);
      EXPECT_LE(op.key, 50);
    }
  }
}

// ---------- TPC-C ----------

struct TpccFixture {
  uint64_t now_ms = 1000;
  TableCatalog catalog;
  Hlc hlc;
  RedoLog log;
  CountingPageStore store;
  BufferPool pool;
  TxnEngine engine;
  TpccDb db;
  Rng rng;

  TpccFixture()
      : hlc([this] { return now_ms; }),
        pool(&store),
        engine(1, &catalog, &hlc, &log, &pool),
        db(&engine, TpccConfig{.warehouses = 2,
                               .districts_per_warehouse = 3,
                               .customers_per_district = 20,
                               .items = 50}),
        rng(42) {
    EXPECT_TRUE(db.Load(&rng).ok());
  }
};

TEST(TpccTest, NewOrderAdvancesDistrictCounter) {
  TpccFixture f;
  for (int i = 0; i < 20; ++i) {
    f.now_ms += 1;
    ASSERT_TRUE(f.db.NewOrder(&f.rng).ok());
  }
  EXPECT_EQ(f.db.stats().new_orders, 20u);
  auto total = f.db.TotalOrdersPlaced();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 20);
}

TEST(TpccTest, PaymentMovesMoneyConsistently) {
  TpccFixture f;
  for (int i = 0; i < 30; ++i) {
    f.now_ms += 1;
    ASSERT_TRUE(f.db.Payment(&f.rng).ok());
  }
  // Invariant: sum(w_ytd) == sum(d_ytd) == total payments amount.
  f.now_ms += 1;
  TxnId txn = f.engine.Begin();
  double w_total = 0, d_total = 0, h_total = 0;
  f.engine.ScanVisible(txn, f.db.warehouse_table(), "", "",
                       [&](const EncodedKey&, const Row& r) {
                         w_total += std::get<double>(r[1]);
                         return true;
                       });
  f.engine.ScanVisible(txn, f.db.district_table(), "", "",
                       [&](const EncodedKey&, const Row& r) {
                         d_total += std::get<double>(r[3]);
                         return true;
                       });
  f.engine.ScanVisible(txn, f.db.history_table(), "", "",
                       [&](const EncodedKey&, const Row& r) {
                         h_total += std::get<double>(r[4]);
                         return true;
                       });
  f.engine.CommitLocal(txn);
  EXPECT_NEAR(w_total, d_total, 1e-6);
  EXPECT_NEAR(w_total, h_total, 1e-6);
}

TEST(TpccTest, DeliveryClearsNewOrders) {
  TpccFixture f;
  for (int i = 0; i < 10; ++i) {
    f.now_ms += 1;
    ASSERT_TRUE(f.db.NewOrder(&f.rng).ok());
  }
  for (int i = 0; i < 10; ++i) {
    f.now_ms += 1;
    ASSERT_TRUE(f.db.Delivery(&f.rng).ok());
  }
  f.now_ms += 1;
  TxnId txn = f.engine.Begin();
  int remaining = 0;
  f.engine.ScanVisible(txn, f.db.new_order_table(), "", "",
                       [&](const EncodedKey&, const Row&) {
                         ++remaining;
                         return true;
                       });
  f.engine.CommitLocal(txn);
  EXPECT_EQ(remaining, 0) << "10 delivery rounds over 2 warehouses clear "
                             "all pending orders";
}

TEST(TpccTest, FullMixRunsWithFewAborts) {
  TpccFixture f;
  for (int i = 0; i < 300; ++i) {
    f.now_ms += 1;
    f.db.RunNext(&f.rng);
  }
  const TpccStats& stats = f.db.stats();
  uint64_t total = stats.new_orders + stats.payments +
                   stats.order_statuses + stats.deliveries +
                   stats.stock_levels;
  EXPECT_GT(total, 250u);
  EXPECT_GT(stats.new_orders, 80u);   // ~45%
  EXPECT_GT(stats.payments, 80u);     // ~43%
  EXPECT_LT(stats.aborts, 50u);
  auto orders = f.db.TotalOrdersPlaced();
  ASSERT_TRUE(orders.ok());
  EXPECT_EQ(uint64_t(*orders), stats.new_orders);
}

// ---------- simulated multi-DC cluster ----------

struct SimFixture {
  sim::Scheduler sched;
  sim::Network net;
  std::unique_ptr<SimCluster> cluster;

  explicit SimFixture(TsScheme scheme, uint64_t table_size = 2000)
      : net(&sched, [] {
          sim::NetworkConfig nc;
          nc.jitter = 0;
          return nc;
        }()) {
    SimClusterConfig cfg;
    cfg.scheme = scheme;
    cfg.table_size = table_size;
    cluster = std::make_unique<SimCluster>(&sched, &net, cfg);
    cluster->LoadSysbenchTable();
  }

  /// Runs `n` transactions from a closed-loop client on each CN. The sim
  /// is stepped until all clients finish (Paxos timers keep the event queue
  /// alive forever, so a drain-the-queue Run() would not terminate).
  void RunClosedLoop(SysbenchMode mode, int clients, int txns_per_client,
                     uint64_t seed = 5) {
    Sysbench bench({.mode = mode, .table_size = 2000});
    auto rng = std::make_shared<Rng>(seed);
    auto remaining = std::make_shared<int>(clients * txns_per_client);
    // Client loops; each refers to itself weakly, so this vector is their
    // only owner and frees them.
    std::vector<std::shared_ptr<std::function<void(int)>>> loops;
    for (int c = 0; c < clients; ++c) {
      auto submit = std::make_shared<std::function<void(int)>>();
      loops.push_back(submit);
      std::weak_ptr<std::function<void(int)>> self = submit;
      *submit = [this, c, bench, rng, self, remaining](int left) {
        if (left <= 0) return;
        cluster->SubmitTxn(c, bench.NextTxn(rng.get()),
                           [self, left, remaining](bool, sim::SimTime) {
                             --*remaining;
                             if (auto next = self.lock()) (*next)(left - 1);
                           });
      };
      (*submit)(txns_per_client);
    }
    while (*remaining > 0 && sched.Step()) {
    }
    ASSERT_EQ(*remaining, 0) << "simulation stalled";
  }
};

class SimClusterSchemeTest : public ::testing::TestWithParam<TsScheme> {};

TEST_P(SimClusterSchemeTest, ReadOnlyTransactionsComplete) {
  SimFixture f(GetParam());
  f.RunClosedLoop(SysbenchMode::kReadOnly, 6, 20);
  EXPECT_EQ(f.cluster->stats().committed, 120u);
  EXPECT_EQ(f.cluster->stats().aborted, 0u);
  EXPECT_GT(f.cluster->stats().latency_us.Mean(), 0);
}

TEST_P(SimClusterSchemeTest, WriteTransactionsCommitAcrossDcs) {
  SimFixture f(GetParam());
  f.RunClosedLoop(SysbenchMode::kWriteOnly, 6, 20);
  const SimClusterStats& stats = f.cluster->stats();
  EXPECT_GT(stats.committed, 100u) << "some aborts from random conflicts OK";
  EXPECT_EQ(stats.committed + stats.aborted, 120u);
  // Write latency includes at least one cross-DC majority round trip
  // (>= ~1ms RTT).
  EXPECT_GT(stats.latency_us.Percentile(0.5), 1000.0);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SimClusterSchemeTest,
                         ::testing::Values(TsScheme::kHlcSi,
                                           TsScheme::kTsoSi),
                         [](const auto& info) {
                           return info.param == TsScheme::kHlcSi ? "HlcSi"
                                                                 : "TsoSi";
                         });

// §III old-leader cleanup in the cluster: when the serving DN member
// truncates its log (on restarting after a crash), or another member is
// promoted in its place (after it crashed), the DN's buffer pool evicts the
// pages dirtied by its unacknowledged records, unflushed, and keeps the
// pages of committed writes.
class LeaderCleanupTest : public ::testing::TestWithParam<bool> {};

TEST_P(LeaderCleanupTest, DiscardsPagesOfUnacknowledgedRecords) {
  const bool failover = GetParam();
  SimFixture f(TsScheme::kHlcSi);
  f.RunClosedLoop(SysbenchMode::kWriteOnly, 2, 5);
  // Let the commits' trailing records (2PC decisions) become durable too.
  f.sched.RunUntil(f.sched.Now() + 100'000);
  const BufferPool& pool = *f.cluster->dn_pool(0);
  const size_t committed_pages = pool.dirty_pages();
  const uint64_t evictions = pool.evictions();
  ASSERT_GT(committed_pages, 0u);

  // A write the serving engine logged and nobody committed: its record
  // lies past DLSN and was never flushed. The last key of DN 0 lands on a
  // page no committed write dirtied.
  int64_t key = 2000;
  while (f.cluster->DnOfKey(key) != 0) --key;
  TxnEngine* engine = f.cluster->dn_engine(0);
  Rng rng(3);
  const TxnId txn = engine->Begin();
  ASSERT_TRUE(engine->Update(txn, 1, Sysbench::MakeRow(key, &rng)).ok());
  ASSERT_EQ(pool.dirty_pages(), committed_pages + 1);

  const NodeId leader = f.cluster->dn_serving_node(0);
  f.net.SetNodeUp(leader, false);
  f.cluster->HandleNodeCrash(leader);
  if (failover) {
    // Another member wins the election and is promoted.
    for (int i = 0; i < 100 && f.cluster->dn_serving_node(0) == leader; ++i) {
      f.sched.RunUntil(f.sched.Now() + 100'000);
    }
    ASSERT_NE(f.cluster->dn_serving_node(0), leader);
  } else {
    // It restarts before any failover and recovers its flushed log,
    // cutting the unflushed record.
    f.net.SetNodeUp(leader, true);
    f.cluster->HandleNodeRestart(leader);
    EXPECT_EQ(f.cluster->dn_serving_node(0), leader);
  }
  EXPECT_EQ(pool.dirty_pages(), committed_pages);
  EXPECT_EQ(pool.evictions(), evictions + 1);
}

INSTANTIATE_TEST_SUITE_P(SimCluster, LeaderCleanupTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Failover" : "Restart";
                         });

TEST(SimClusterTest, TsoModeCallsTsoTwicePerWriteTxn) {
  SimFixture f(TsScheme::kTsoSi);
  f.RunClosedLoop(SysbenchMode::kWriteOnly, 3, 10);
  uint64_t total = f.cluster->stats().committed + f.cluster->stats().aborted;
  // snapshot for every txn + commit for committed ones.
  EXPECT_GE(f.cluster->tso()->requests_served(), total);
  EXPECT_LE(f.cluster->tso()->requests_served(), 2 * total);
}

TEST(SimClusterTest, HlcModeNeverTouchesTso) {
  SimFixture f(TsScheme::kHlcSi);
  f.RunClosedLoop(SysbenchMode::kReadWrite, 3, 10);
  EXPECT_EQ(f.cluster->tso()->requests_served(), 0u);
}

TEST(SimClusterTest, HlcWritesFasterThanTsoAcrossDcs) {
  // The E1 headline in miniature: with the TSO a cross-DC round trip away
  // for most CNs, HLC-SI write transactions finish faster on average.
  SimFixture hlc(TsScheme::kHlcSi);
  hlc.RunClosedLoop(SysbenchMode::kWriteOnly, 6, 30);
  SimFixture tso(TsScheme::kTsoSi);
  tso.RunClosedLoop(SysbenchMode::kWriteOnly, 6, 30);
  double hlc_mean = hlc.cluster->stats().latency_us.Mean();
  double tso_mean = tso.cluster->stats().latency_us.Mean();
  EXPECT_LT(hlc_mean, tso_mean);
}

TEST(SimClusterTest, CommitOwnerIsTheCoordinatorsLocalDn) {
  // Every DC hosts one DN leader, so a TSO-SI transaction with a branch
  // there has its commit point inside the coordinator's own DC. (HLC-SI
  // has no commit owner: its prepare records are the decision.)
  SimFixture f(TsScheme::kTsoSi);
  f.RunClosedLoop(SysbenchMode::kWriteOnly, 6, 20);
  std::map<uint32_t, DcId> coordinator_dc;
  for (int cn = 0; cn < f.cluster->num_cns(); ++cn) {
    coordinator_dc[f.cluster->cn_coordinator_id(cn)] =
        f.net.DcOf(f.cluster->cn_node(cn));
  }
  std::map<GlobalTxnId, std::vector<std::pair<int, TxnInfo>>> by_global;
  for (int d = 0; d < f.cluster->num_dns(); ++d) {
    for (TxnInfo& info : f.cluster->dn_engine(d)->TxnsSnapshot()) {
      if (info.global_id == kInvalidGlobalTxnId ||
          info.state != TxnState::kCommitted) {
        continue;
      }
      by_global[info.global_id].emplace_back(d, std::move(info));
    }
  }
  int with_local_branch = 0;
  for (const auto& [gid, branches] : by_global) {
    const DcId cn_dc = coordinator_dc.at(branches.front().second.coordinator);
    int local_dn = -1;
    for (const auto& [d, info] : branches) {
      if (f.net.DcOf(f.cluster->dn_serving_node(d)) == cn_dc) local_dn = d;
    }
    if (local_dn < 0) continue;
    ++with_local_branch;
    for (const auto& [d, info] : branches) {
      EXPECT_EQ(info.commit_owner, uint32_t(local_dn + 1))
          << "global " << gid << " branch on dn " << d;
    }
  }
  EXPECT_GT(with_local_branch, 50);
}

// CN RPC messages and their bytes in the run below when every write
// recorded a decision at its commit owner, and that version's p50.
constexpr uint64_t kPinnedRpcMessages = 572;
constexpr uint64_t kPinnedRpcBytes = 76992;
constexpr double kPinnedAckAtDecisionP50Us = 6456.7319702675359;

// One closed-loop client with no conflicts sends exactly the RPCs it sent
// when every write recorded a decision (pinned above from that version),
// minus what implicit commit and one-phase commit drop: a multi-branch
// write skips the decide round trip (96 + 64 bytes); a single-branch write
// replaces prepare, decide and commit (128 + 64, 96 + 64, 128 + 64 bytes)
// with one one-phase call (128 + 64). (DN-to-DN Paxos frames are not
// compared: how the redo of overlapping transactions is batched into
// frames depends on when the commits happen.)
TEST(SimClusterTest, ImplicitCommitDropsOnlyTheDecideRoundTrip) {
  SimFixture f(TsScheme::kHlcSi);
  f.RunClosedLoop(SysbenchMode::kWriteOnly, 1, 30, /*seed=*/11);
  const SimClusterStats& stats = f.cluster->stats();
  ASSERT_EQ(stats.committed, 30u);
  ASSERT_EQ(stats.aborted, 0u);
  const uint64_t one_phase = stats.one_phase_commits;
  const uint64_t multi = 30 - one_phase;
  // Let the last phase 2 finish.
  while (stats.phase2_tail_us.count() < multi && f.sched.Step()) {
  }
  EXPECT_GT(one_phase, 0u);
  EXPECT_EQ(stats.phase2_tail_us.count(), multi);
  EXPECT_EQ(stats.decide_us.count(), 0u);
  EXPECT_EQ(stats.rpc_messages, kPinnedRpcMessages - 2 * multi - 4 * one_phase);
  EXPECT_EQ(stats.rpc_bytes,
            kPinnedRpcBytes - 160 * multi - (544 - 192) * one_phase);
  EXPECT_LT(stats.latency_us.Percentile(0.5), kPinnedAckAtDecisionP50Us);
}

// ---------- pinned footprint ----------
//
// The simulation is deterministic, so a fixed-seed closed-loop run has
// exact outcome, latency, message, byte and event counts. Any change to the
// 2PC message sequence — an extra or reordered RPC, a changed payload size,
// a new scheduled event — moves at least one of them.

struct Footprint {
  uint64_t committed;
  uint64_t aborted;
  double p50_us;
  double p99_us;
  double mean_us;
  uint64_t messages;
  uint64_t bytes;
  uint64_t events;
  uint64_t tso_requests;
};

struct FootprintCase {
  const char* name;
  TsScheme scheme;
  SysbenchMode mode;
  Footprint expected;
};

void PrintTo(const FootprintCase& c, std::ostream* os) { *os << c.name; }

class SimClusterFootprintTest
    : public ::testing::TestWithParam<FootprintCase> {};

TEST_P(SimClusterFootprintTest, MatchesPinnedCounts) {
  const FootprintCase& c = GetParam();
  SimFixture f(c.scheme);
  f.RunClosedLoop(c.mode, 6, 20, /*seed=*/11);
  const SimClusterStats& stats = f.cluster->stats();
  Footprint got{stats.committed,
                stats.aborted,
                stats.latency_us.Percentile(0.5),
                stats.latency_us.Percentile(0.99),
                stats.latency_us.Mean(),
                f.net.messages_sent(),
                f.net.bytes_sent(),
                f.sched.executed_events(),
                f.cluster->tso()->requests_served()};
  const Footprint& want = c.expected;
  EXPECT_EQ(got.committed, want.committed);
  EXPECT_EQ(got.aborted, want.aborted);
  EXPECT_DOUBLE_EQ(got.p50_us, want.p50_us);
  EXPECT_DOUBLE_EQ(got.p99_us, want.p99_us);
  EXPECT_DOUBLE_EQ(got.mean_us, want.mean_us);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.tso_requests, want.tso_requests);
  if (::testing::Test::HasFailure()) {
    std::printf("actual: {%llu, %llu, %.17g, %.17g, %.17g, %llu, %llu, "
                "%llu, %llu}\n",
                (unsigned long long)got.committed,
                (unsigned long long)got.aborted, got.p50_us, got.p99_us,
                got.mean_us, (unsigned long long)got.messages,
                (unsigned long long)got.bytes,
                (unsigned long long)got.events,
                (unsigned long long)got.tso_requests);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FixedSeed, SimClusterFootprintTest,
    ::testing::Values(
        FootprintCase{"HlcSi_WriteOnly", TsScheme::kHlcSi,
                      SysbenchMode::kWriteOnly,
                      {120, 0, 5429.4427680520239, 6182.9877173195573,
                       5138.625, 4674, 1281478, 8374, 0}},
        FootprintCase{"HlcSi_ReadWrite", TsScheme::kHlcSi,
                      SysbenchMode::kReadWrite,
                      {116, 4, 15356.783197415381, 19070.941182029106,
                       14960.431034482759, 9207, 2008912, 17439, 0}},
        FootprintCase{"TsoSi_WriteOnly", TsScheme::kTsoSi,
                      SysbenchMode::kWriteOnly,
                      {119, 1, 7678.3915987076907, 10329,
                       8041.680672268908, 6200, 1356696, 11316, 239}},
        FootprintCase{"TsoSi_ReadWrite", TsScheme::kTsoSi,
                      SysbenchMode::kReadWrite,
                      {116, 4, 17488.130171639164, 21717.771072208096,
                       17810.948275862069, 10505, 2069608, 19930, 236}}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace polarx
