// Tests for partitioning (§II-B), GMS (coordinator leases, DN endpoints,
// scale-out planning), and PolarDB-MT tenant transfer (§V): bindings and
// leases, the transfer state machine (no data copy), and the data-copy
// baseline.
#include <gtest/gtest.h>

#include "src/gms/gms.h"
#include "src/mt/polardb_mt.h"
#include "src/partition/partition.h"

namespace polarx {
namespace {

// ---------- partition ----------

TEST(PartitionTest, ImplicitPrimaryKeyAdded) {
  TableDef def = MakeTableDef(1, "t", {{"a", ValueType::kString, true}}, {},
                              4);
  EXPECT_TRUE(def.implicit_pk);
  ASSERT_EQ(def.schema.num_columns(), 2u);
  EXPECT_EQ(def.schema.columns()[0].name, "__pk");
  EXPECT_EQ(def.schema.columns()[0].type, ValueType::kInt64);
  EXPECT_FALSE(def.schema.columns()[0].nullable);
  EXPECT_EQ(def.schema.key_columns(), (std::vector<uint32_t>{0}));
}

TEST(PartitionTest, ExplicitKeyKept) {
  TableDef def = MakeTableDef(
      1, "t",
      {{"id", ValueType::kInt64, false}, {"v", ValueType::kString, true}},
      {0}, 8);
  EXPECT_FALSE(def.implicit_pk);
  EXPECT_EQ(def.schema.num_columns(), 2u);
}

TEST(PartitionTest, RuleRoutesConsistently) {
  PartitionRule rule(16);
  Schema schema({{"id", ValueType::kInt64, false}}, {0});
  for (int64_t i = 0; i < 100; ++i) {
    ShardId s1 = rule.ShardOfRow(schema, {i});
    ShardId s2 = rule.ShardOfKey(EncodeKey({i}));
    EXPECT_EQ(s1, s2);
    EXPECT_LT(s1, 16u);
  }
}

// A table's default partition key is its whole primary key, routed exactly
// like ShardOf(EncodeKey(pk)); a prefix partition key routes on the prefix.
TEST(PartitionTest, PartitionKeyDefaultsToThePrimaryKey) {
  TableDef def = MakeTableDef(1, "lines",
                              {{"order", ValueType::kInt64, false},
                               {"line", ValueType::kInt64, false},
                               {"qty", ValueType::kDouble, false}},
                              {0, 1}, 8);
  EXPECT_EQ(def.PartitionColumns(), (std::vector<uint32_t>{0, 1}));
  TableDef by_order = def;
  by_order.partition_key = {0};
  for (int64_t order = 0; order < 50; ++order) {
    for (int64_t line = 1; line <= 4; ++line) {
      Row row{order, line, 1.0};
      EXPECT_EQ(def.rule().ShardOfRow(def.schema, row),
                ShardOf(EncodeKey({order, line}), 8));
      EXPECT_EQ(by_order.rule().ShardOfRow(def.schema, row),
                ShardOf(EncodeKey({order}), 8));
    }
  }
  TableGroupRegistry reg;
  TableDef not_prefix = def;
  not_prefix.partition_key = {1};
  EXPECT_FALSE(reg.Register(not_prefix).ok());
}

// A join is partition-wise only between tables of one group, on their
// partition keys.
TEST(PartitionTest, PartitionWiseJoinNeedsGroupAndPartitionKeys) {
  TableDef orders = MakeTableDef(
      1, "orders",
      {{"id", ValueType::kInt64, false}, {"cust", ValueType::kInt64, false}},
      {0}, 8);
  TableDef lines = MakeTableDef(2, "lines",
                                {{"order", ValueType::kInt64, false},
                                 {"line", ValueType::kInt64, false}},
                                {0, 1}, 8);
  lines.partition_key = {0};
  TableDef other = orders;
  other.id = 3;
  orders.table_group = lines.table_group = "g";
  TableGroupRegistry reg;
  ASSERT_TRUE(reg.Register(orders).ok());
  ASSERT_TRUE(reg.Register(lines).ok());
  ASSERT_TRUE(reg.Register(other).ok());
  EXPECT_TRUE(reg.PartitionWise(lines, {0}, orders, {0}));
  EXPECT_TRUE(reg.PartitionWise(lines, {1, 0}, orders, {1, 0}));
  EXPECT_FALSE(reg.PartitionWise(lines, {1}, orders, {0}));
  EXPECT_FALSE(reg.PartitionWise(lines, {0}, orders, {1}));
  EXPECT_FALSE(reg.PartitionWise(lines, {0}, other, {0}));

  // Members of one group must hash the same key types.
  TableDef by_name = MakeTableDef(
      4, "by_name", {{"name", ValueType::kString, false}}, {0}, 8);
  by_name.table_group = "g";
  EXPECT_FALSE(reg.Register(by_name).ok());
}

TEST(PartitionTest, TableGroupRequiresMatchingShardCounts) {
  TableGroupRegistry reg;
  TableDef a = MakeTableDef(1, "orders", {{"id", ValueType::kInt64, false}},
                            {0}, 8);
  a.table_group = "g";
  TableDef b = MakeTableDef(2, "lines", {{"id", ValueType::kInt64, false}},
                            {0}, 8);
  b.table_group = "g";
  TableDef c = MakeTableDef(3, "bad", {{"id", ValueType::kInt64, false}},
                            {0}, 4);
  c.table_group = "g";
  EXPECT_TRUE(reg.Register(a).ok());
  EXPECT_TRUE(reg.Register(b).ok());
  EXPECT_FALSE(reg.Register(c).ok());
  EXPECT_TRUE(reg.Colocated(1, 2));
  EXPECT_FALSE(reg.Colocated(1, 3));
}

TEST(PartitionTest, PartitionGroupsSpanGroupTables) {
  TableGroupRegistry reg;
  for (TableId id : {1, 2, 3}) {
    TableDef def = MakeTableDef(id, "t" + std::to_string(id),
                                {{"id", ValueType::kInt64, false}}, {0}, 4);
    def.table_group = "g";
    ASSERT_TRUE(reg.Register(def).ok());
  }
  auto groups = reg.GroupsOf("g");
  ASSERT_EQ(groups.size(), 4u);  // one per shard
  for (const auto& pg : groups) {
    EXPECT_EQ(pg.tables.size(), 3u);
  }
}

// ---------- GMS ----------

// A coordinator's lease lapses once last_heartbeat + lease < now: at
// exactly last_heartbeat + lease it is still live.
TEST(GmsTest, CoordinatorExpiresOnlyOnceItsLeaseLapses) {
  Gms gms;
  uint32_t a = gms.RegisterCoordinator(/*now_us=*/1000);
  uint32_t b = gms.RegisterCoordinator(/*now_us=*/1200);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_TRUE(gms.ExpiredCoordinators(1000, 500).empty());
  EXPECT_TRUE(gms.ExpiredCoordinators(1500, 500).empty());
  EXPECT_EQ(gms.ExpiredCoordinators(1501, 500), std::vector<uint32_t>{a});
  EXPECT_EQ(gms.ExpiredCoordinators(1701, 500),
            (std::vector<uint32_t>{a, b}));
}

// A heartbeat renews the lease; a late (older) heartbeat never moves it
// backwards.
TEST(GmsTest, HeartbeatRenewsLeaseAndNeverMovesItBack) {
  Gms gms;
  uint32_t id = gms.RegisterCoordinator(1000);
  gms.CoordinatorHeartbeat(id, 2000);
  EXPECT_TRUE(gms.ExpiredCoordinators(2500, 500).empty());
  gms.CoordinatorHeartbeat(id, 1100);  // delivered out of order
  EXPECT_TRUE(gms.ExpiredCoordinators(2500, 500).empty());
  EXPECT_EQ(gms.ExpiredCoordinators(2501, 500), std::vector<uint32_t>{id});
  // A heartbeat after the lapse renews it again.
  gms.CoordinatorHeartbeat(id, 3000);
  EXPECT_TRUE(gms.ExpiredCoordinators(3500, 500).empty());
}

// A cleanly unregistered (or superseded) incarnation is never reported,
// however old its last heartbeat, and heartbeats do not revive it.
// Heartbeats for ids GMS never issued are ignored.
TEST(GmsTest, UnregisteredCoordinatorIsNeverReported) {
  Gms gms;
  uint32_t gone = gms.RegisterCoordinator(1000);
  uint32_t live = gms.RegisterCoordinator(1000);
  gms.UnregisterCoordinator(gone);
  gms.CoordinatorHeartbeat(gone, 5000);
  gms.CoordinatorHeartbeat(/*id=*/99, 5000);
  EXPECT_EQ(gms.ExpiredCoordinators(1000000, 500),
            std::vector<uint32_t>{live});
  gms.UnregisterCoordinator(live);
  EXPECT_TRUE(gms.ExpiredCoordinators(1000000, 500).empty());
}

TEST(GmsTest, DnEndpointFollowsSetDnEndpoint) {
  Gms gms;
  EXPECT_TRUE(gms.DnEndpoint(0).status().IsNotFound());
  gms.SetDnEndpoint(0, 5);
  ASSERT_TRUE(gms.DnEndpoint(0).ok());
  EXPECT_EQ(*gms.DnEndpoint(0), 5u);
  gms.SetDnEndpoint(0, 7);  // failover promoted another member
  EXPECT_EQ(*gms.DnEndpoint(0), 7u);
  EXPECT_TRUE(gms.DnEndpoint(1).status().IsNotFound());
}

TEST(GmsTest, RebalancePlanEqualizesTenantCounts) {
  using Pairs = std::map<std::pair<uint32_t, uint32_t>, int>;
  struct Case {
    TenantId tenants;
    uint32_t old_nodes;
    std::vector<uint32_t> nodes;
    Pairs moves;  // (src, dst) -> tenants moved
  };
  // One node gives half its tenants to a new one. E2's first scaling: 64
  // tenants round-robin on 4 nodes, 4 added; each old node src sends
  // exactly 8 tenants to src + 4, so the bench runs the pairs in parallel.
  const Case cases[] = {
      {8, 1, {0, 1}, {{{0, 1}, 4}}},
      {64, 4, {0, 1, 2, 3, 4, 5, 6, 7},
       {{{0, 4}, 8}, {{1, 5}, 8}, {{2, 6}, 8}, {{3, 7}, 8}}},
  };
  for (const Case& c : cases) {
    BindingTable bindings;
    for (TenantId t = 0; t < c.tenants; ++t) {
      ASSERT_TRUE(bindings.Bind(t, t % c.old_nodes).ok());
    }
    Pairs moves;
    for (const auto& step : PlanRebalance(bindings.Placement(), c.nodes)) {
      EXPECT_EQ(*bindings.OwnerOf(step.tenant), step.src_dn);
      ++moves[{step.src_dn, step.dst_dn}];
      ASSERT_TRUE(bindings.Bind(step.tenant, step.dst_dn).ok());
    }
    EXPECT_EQ(moves, c.moves) << c.tenants << " tenants";
    for (uint32_t node : c.nodes) {
      EXPECT_EQ(bindings.TenantsOf(node).size(), c.tenants / c.nodes.size());
    }
    EXPECT_TRUE(PlanRebalance(bindings.Placement(), c.nodes).empty())
        << "already balanced";
  }
}

// ---------- PolarDB-MT ----------

Schema KvSchema() {
  return Schema({{"id", ValueType::kInt64, false},
                 {"val", ValueType::kString, true}},
                {0});
}

struct MtFixture {
  uint64_t now_ms = 1000;
  MtCluster cluster;

  MtFixture() : cluster([this] { return now_ms; }) {
    cluster.AddRwNode();
    cluster.AddRwNode();
  }

  TableStore* Setup(TenantId tenant, uint32_t rw, const std::string& table,
                    int rows) {
    EXPECT_TRUE(cluster.CreateTenant(tenant, rw).ok());
    auto ts = cluster.CreateTable(tenant, table, KvSchema());
    EXPECT_TRUE(ts.ok());
    auto routed = cluster.Route(tenant);
    EXPECT_TRUE(routed.ok());
    TxnEngine* engine = (*routed)->engine();
    TxnId txn = engine->Begin();
    for (int64_t i = 0; i < rows; ++i) {
      EXPECT_TRUE(engine->Insert(txn, (*ts)->id(),
                                 {i, std::string("v") + std::to_string(i)})
                      .ok());
    }
    EXPECT_TRUE(engine->CommitLocal(txn).ok());
    return *ts;
  }
};

TEST(MtTest, RoutingFollowsBindings) {
  MtFixture f;
  ASSERT_TRUE(f.cluster.CreateTenant(7, 1).ok());
  auto rw = f.cluster.Route(7);
  ASSERT_TRUE(rw.ok());
  EXPECT_EQ((*rw)->id(), 1u);
  EXPECT_TRUE(f.cluster.Route(99).status().IsNotFound());
}

TEST(MtTest, TransferMovesOwnershipWithoutCopy) {
  MtFixture f;
  TableStore* table = f.Setup(1, 0, "kv", 500);
  TableId tid = table->id();
  f.now_ms += 5;

  auto metrics = f.cluster.TransferTenant(1, 1);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->tables_moved, 1u);
  EXPECT_GT(metrics->pages_flushed, 0u) << "dirty pages drained to PolarFS";

  // Ownership moved; the very same TableStore object is now on RW 1.
  EXPECT_EQ(f.cluster.rw(0)->catalog()->FindTable(tid), nullptr);
  TableStore* moved = f.cluster.rw(1)->catalog()->FindTable(tid);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved, table) << "shared storage: no data copy";
  EXPECT_EQ(moved->ApproxRows(), 500u);

  // New transactions route to the destination and see the data.
  auto rw = f.cluster.Route(1);
  ASSERT_TRUE(rw.ok());
  EXPECT_EQ((*rw)->id(), 1u);
  TxnId txn = (*rw)->engine()->Begin();
  Row row;
  EXPECT_TRUE(
      (*rw)->engine()->Read(txn, tid, EncodeKey({int64_t{42}}), &row).ok());
  EXPECT_TRUE((*rw)->engine()->CommitLocal(txn).ok());
}

TEST(MtTest, RoutingPausedDuringMigration) {
  MtFixture f;
  f.Setup(1, 0, "kv", 10);
  f.cluster.bindings()->SetMigrating(1, true);
  EXPECT_TRUE(f.cluster.Route(1).status().IsBusy());
  f.cluster.bindings()->SetMigrating(1, false);
  EXPECT_TRUE(f.cluster.Route(1).ok());
}

TEST(MtTest, TransferKeepsCallerPause) {
  // A caller that pauses the tenant itself (to drain on its own clock)
  // resumes it; the transfer in between leaves the pause in place.
  MtFixture f;
  f.Setup(1, 0, "kv", 10);
  f.cluster.bindings()->SetMigrating(1, true);
  ASSERT_TRUE(f.cluster.TransferTenant(1, 1).ok());
  EXPECT_TRUE(f.cluster.Route(1).status().IsBusy());
  ASSERT_TRUE(f.cluster.CopyTenantBaseline(1, 0).ok());
  EXPECT_TRUE(f.cluster.Route(1).status().IsBusy());
  f.cluster.bindings()->SetMigrating(1, false);
  auto rw = f.cluster.Route(1);
  ASSERT_TRUE(rw.ok());
  EXPECT_EQ((*rw)->id(), 0u);
}

TEST(MtTest, TransferRefusedWithInflightWrites) {
  MtFixture f;
  f.Setup(1, 0, "kv", 10);
  f.cluster.rw(0)->NoteWriteBegin(1);
  EXPECT_TRUE(f.cluster.TransferTenant(1, 1).status().IsBusy());
  EXPECT_TRUE(f.cluster.CopyTenantBaseline(1, 1).status().IsBusy());
  EXPECT_FALSE(f.cluster.bindings()->IsMigrating(1)) << "refusal resumes";
  f.cluster.rw(0)->NoteWriteEnd(1);
  EXPECT_TRUE(f.cluster.TransferTenant(1, 1).ok());
}

TEST(MtTest, StaleLeaseDetectedAfterTransfer) {
  MtFixture f;
  f.Setup(1, 0, "kv", 10);
  f.Setup(2, 0, "kv2", 10);
  uint64_t v_before = f.cluster.rw(0)->cached_binding_version();
  ASSERT_TRUE(f.cluster.TransferTenant(1, 1).ok());
  // RW 0 still owns tenant 2; Route revalidates the (refreshed) lease.
  auto rw = f.cluster.Route(2);
  ASSERT_TRUE(rw.ok());
  EXPECT_EQ((*rw)->id(), 0u);
  EXPECT_GT(f.cluster.rw(0)->cached_binding_version(), v_before);
  // RW 0 no longer owns tenant 1.
  EXPECT_TRUE(
      f.cluster.rw(0)->CheckTenantLease(1, *f.cluster.bindings()).IsNotLeader());
}

TEST(MtTest, SeparateRwNodesWriteConcurrentlyWithoutConflict) {
  MtFixture f;
  TableStore* t1 = f.Setup(1, 0, "kv1", 0);
  TableStore* t2 = f.Setup(2, 1, "kv2", 0);
  // Disjoint tenants on different RW nodes: both write streams proceed with
  // private redo logs.
  TxnEngine* e0 = f.cluster.rw(0)->engine();
  TxnEngine* e1 = f.cluster.rw(1)->engine();
  TxnId a = e0->Begin();
  TxnId b = e1->Begin();
  ASSERT_TRUE(e0->Insert(a, t1->id(), {int64_t{1}, std::string("x")}).ok());
  ASSERT_TRUE(e1->Insert(b, t2->id(), {int64_t{1}, std::string("y")}).ok());
  ASSERT_TRUE(e0->CommitLocal(a).ok());
  ASSERT_TRUE(e1->CommitLocal(b).ok());
  EXPECT_GT(f.cluster.rw(0)->redo_log()->current_lsn(), 1u);
  EXPECT_GT(f.cluster.rw(1)->redo_log()->current_lsn(), 1u);
}

TEST(MtTest, CopyBaselineMovesEveryRow) {
  MtFixture f;
  TableStore* table = f.Setup(1, 0, "kv", 300);
  TableId tid = table->id();
  auto metrics = f.cluster.CopyTenantBaseline(1, 1);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->rows_copied, 300u) << "baseline must copy the data volume";
  TableStore* dst_table = f.cluster.rw(1)->catalog()->FindTable(tid);
  ASSERT_NE(dst_table, nullptr);
  EXPECT_NE(dst_table, table) << "baseline creates a fresh physical table";
  EXPECT_EQ(dst_table->ApproxRows(), 300u);
  auto rw = f.cluster.Route(1);
  ASSERT_TRUE(rw.ok());
  EXPECT_EQ((*rw)->id(), 1u);
}

TEST(MtTest, MtScaleOutViaGmsPlan) {
  // End-to-end §V scale-out: 1 RW with 6 tenants -> add an RW -> GMS plans
  // from the binding table -> transfers execute -> both RWs serve their
  // halves. The transfers are the only placement update.
  MtFixture f;  // 2 RWs already; use rw0 only initially
  std::map<TenantId, TableId> tenant_tables;
  for (TenantId t = 10; t < 16; ++t) {
    TableStore* ts = f.Setup(t, 0, "kv" + std::to_string(t), 20);
    tenant_tables[t] = ts->id();
  }
  auto plan = PlanRebalance(f.cluster.bindings()->Placement(), {0, 1});
  ASSERT_EQ(plan.size(), 3u);
  for (const auto& step : plan) {
    EXPECT_EQ(step.src_dn, 0u);
    ASSERT_TRUE(f.cluster.TransferTenant(step.tenant, step.dst_dn).ok());
  }
  EXPECT_TRUE(PlanRebalance(f.cluster.bindings()->Placement(), {0, 1}).empty());
  EXPECT_EQ(f.cluster.bindings()->TenantsOf(0).size(), 3u);
  EXPECT_EQ(f.cluster.bindings()->TenantsOf(1).size(), 3u);
  // Every tenant still serves reads from its new home.
  for (const auto& [tenant, tid] : tenant_tables) {
    auto rw = f.cluster.Route(tenant);
    ASSERT_TRUE(rw.ok());
    TxnId txn = (*rw)->engine()->Begin();
    Row row;
    EXPECT_TRUE(
        (*rw)->engine()->Read(txn, tid, EncodeKey({int64_t{5}}), &row).ok())
        << "tenant " << tenant;
    (*rw)->engine()->CommitLocal(txn);
  }
}

}  // namespace
}  // namespace polarx
