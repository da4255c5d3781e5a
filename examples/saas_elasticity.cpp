// SaaS elasticity: a multi-tenant PolarDB-MT instance serving many SaaS
// subscribers scales out by adding an RW node and live-migrating tenants —
// no data is copied, only ownership of shared-storage tables moves (§V).
//
//   $ ./example_saas_elasticity
#include <cstdio>

#include "src/gms/gms.h"
#include "src/mt/polardb_mt.h"
#include "src/storage/key_codec.h"

using namespace polarx;

namespace {

Schema OrdersSchema() {
  return Schema({{"order_id", ValueType::kInt64, false},
                 {"item", ValueType::kString, false},
                 {"amount", ValueType::kDouble, false}},
                {0});
}

}  // namespace

int main() {
  std::printf("== SaaS elasticity demo (PolarDB-MT) ==\n\n");
  MtCluster cluster(SystemClockMs());
  cluster.AddRwNode();

  // Six SaaS subscribers, each with an orders table and some data.
  constexpr int kTenants = 6;
  std::map<TenantId, TableId> tenant_tables;
  for (TenantId t = 1; t <= kTenants; ++t) {
    cluster.CreateTenant(t, 0);
    auto table = cluster.CreateTable(
        t, "orders_t" + std::to_string(t), OrdersSchema());
    tenant_tables[t] = (*table)->id();
    auto rw = cluster.Route(t);
    TxnEngine* engine = (*rw)->engine();
    TxnId txn = engine->Begin();
    for (int64_t o = 1; o <= 1000; ++o) {
      engine->Insert(txn, (*table)->id(),
                     {o, "item-" + std::to_string(o), double(o) * 1.5});
    }
    engine->CommitLocal(txn);
  }
  std::printf("%d tenants on RW0, 1000 orders each\n\n", kTenants);

  // Traffic surge! Add an RW node and let GMS plan the rebalance from the
  // binding table; each transfer rebinds its tenant there.
  uint32_t rw1 = cluster.AddRwNode();
  auto plan = PlanRebalance(cluster.bindings()->Placement(), {0, rw1});
  std::printf("GMS migration plan: %zu tenant moves\n", plan.size());

  for (const auto& step : plan) {
    auto metrics = cluster.TransferTenant(step.tenant, step.dst_dn);
    if (!metrics.ok()) {
      std::printf("  transfer of tenant %u failed: %s\n", step.tenant,
                  metrics.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "  tenant %u -> RW%u: %zu table(s) re-bound, %zu dirty pages "
        "flushed, ZERO rows copied\n",
        step.tenant, step.dst_dn, metrics->tables_moved,
        metrics->pages_flushed);
  }

  std::printf("\nplacement after scale-out:\n");
  for (uint32_t rw = 0; rw < cluster.num_rws(); ++rw) {
    auto tenants = cluster.bindings()->TenantsOf(rw);
    std::printf("  RW%u serves %zu tenant(s):", rw, tenants.size());
    for (TenantId t : tenants) std::printf(" %u", t);
    std::printf("\n");
  }

  // Every tenant still serves strongly-consistent reads at its new home.
  std::printf("\nverification reads:\n");
  for (TenantId t = 1; t <= kTenants; ++t) {
    auto rw = cluster.Route(t);
    if (!rw.ok()) {
      std::printf("  tenant %u: route failed\n", t);
      return 1;
    }
    TxnEngine* engine = (*rw)->engine();
    TxnId txn = engine->Begin();
    Row row;
    Status s = engine->Read(txn, tenant_tables[t],
                            EncodeKey({int64_t{1000}}), &row);
    engine->CommitLocal(txn);
    std::printf("  tenant %u @ RW%u: order 1000 -> %s (%s)\n", t,
                (*rw)->id(),
                s.ok() ? std::get<std::string>(row[1]).c_str() : "-",
                s.ok() ? "ok" : s.ToString().c_str());
    if (!s.ok()) return 1;
  }
  return 0;
}
