// PolarDB-MT (§V): a PolarDB instance with MULTIPLE RW nodes over shared
// storage. Tenants (collections of tables) are the unit of write ownership:
// each tenant is bound to exactly one RW node at any time, so DML on
// different RW nodes never conflicts — each RW has a private redo log and
// its own buffer pool, while the table data objects live in shared storage
// (modeled by shared-ownership TableStore handles + a PolarFS volume per
// node for page flushes).
//
// DDL on the shared data dictionary is accepted only from the RW that owns
// the table's tenant in the binding table, and runs under the table's MDL.
// (In the paper one RW also masters the dictionary; this model keeps no
// master, because the ownership check is the only validation it does.)
// Tenant transfer is the §V state
// machine: pause -> drain -> flush&close on source -> rebind -> open on
// destination -> resume; no table data is copied. The traditional
// data-transfer baseline (copy every row) is provided for experiment E2,
// whose bench drives both on a simulated clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/clock/hlc.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/polarfs/polarfs.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/redo.h"
#include "src/storage/table.h"
#include "src/txn/engine.h"

namespace polarx {

/// The tenant->RW binding system table. Versioned: RW nodes cache the
/// version they have seen; a stale cache means their lease on the binding
/// info has lapsed and affected transactions must abort (§V).
class BindingTable {
 public:
  uint64_t version() const;
  Status Bind(TenantId tenant, uint32_t rw);
  Result<uint32_t> OwnerOf(TenantId tenant) const;
  std::vector<TenantId> TenantsOf(uint32_t rw) const;
  /// Every binding, tenant -> RW (the input of GMS's PlanRebalance).
  std::map<TenantId, uint32_t> Placement() const;

  /// Marks a tenant as migrating: routing pauses (§V "pause new
  /// transactions").
  void SetMigrating(TenantId tenant, bool migrating);
  bool IsMigrating(TenantId tenant) const;

 private:
  mutable std::mutex mu_;
  std::atomic<uint64_t> version_{1};  // read lock-free by every lease check
  std::map<TenantId, uint32_t> bindings_;
  std::set<TenantId> migrating_;
};

/// One RW node of the multi-tenant instance.
class MtRwNode {
 public:
  MtRwNode(uint32_t id, PhysicalClockMs clock, PageStore* page_store);

  uint32_t id() const { return id_; }
  TxnEngine* engine() { return &engine_; }
  TableCatalog* catalog() { return &catalog_; }
  RedoLog* redo_log() { return &log_; }
  BufferPool* buffer_pool() { return &pool_; }
  Hlc* hlc() { return &hlc_; }

  /// The binding version at which this node's belief about the tenants it
  /// owns was formed.
  uint64_t cached_binding_version() const { return cached_version_; }

  /// Refreshes the binding cache from the system table; tenants that moved
  /// away are dropped locally.
  void RefreshBindings(const BindingTable& bindings);

  /// Validates that a transaction touching `tenant` may run here: the node
  /// must own the tenant and its binding cache must be fresh (§V: "checks
  /// whether all related tables are bound to the node and retains the
  /// lease").
  Status CheckTenantLease(TenantId tenant, const BindingTable& bindings) const;

  /// CheckTenantLease, first refreshing a lapsed binding cache once: a
  /// binding change elsewhere expires the lease without moving `tenant`.
  Status RenewTenantLease(TenantId tenant, const BindingTable& bindings);

  /// Opens (attaches) a tenant's tables on this node.
  Status OpenTenant(TenantId tenant,
                    std::vector<std::shared_ptr<TableStore>> tables);

  /// Closes a tenant: flushes all its dirty pages (bypassing the DLSN gate,
  /// as §V's transfer does), detaches its tables, and returns the shared
  /// handles. Outcome metrics go to *pages_flushed.
  Result<std::vector<std::shared_ptr<TableStore>>> CloseTenant(
      TenantId tenant, size_t* pages_flushed);

  /// In-flight write transactions on this tenant (drain condition).
  int64_t InflightWrites(TenantId tenant) const;
  void NoteWriteBegin(TenantId tenant);
  void NoteWriteEnd(TenantId tenant);

 private:
  uint32_t id_;
  Hlc hlc_;
  RedoLog log_;
  BufferPool pool_;
  TableCatalog catalog_;
  TxnEngine engine_;
  mutable std::mutex mu_;
  std::set<TenantId> owned_;
  uint64_t cached_version_ = 0;
  std::map<TenantId, int64_t> inflight_writes_;
};

/// The shared data dictionary: owner-checked DDL under MDL (§V).
class DataDictionary {
 public:
  struct TableMeta {
    TableId id;
    std::string name;
    Schema schema;
    TenantId tenant;
  };

  /// Executes a DDL: only the tenant's owner in `bindings` may modify its
  /// tables (§V). Takes the table's MDL exclusively for the duration.
  Status ApplyDdl(uint32_t requester_rw, const BindingTable& bindings,
                  TableMeta meta);

 private:
  mutable std::mutex mu_;
  std::map<TableId, TableMeta> tables_;
};

/// Outcome metrics of one tenant move, for tests and the E2 bench.
struct TransferMetrics {
  size_t tables_moved = 0;
  size_t pages_flushed = 0;
  uint64_t rows_copied = 0;  // CopyTenantBaseline only
};

/// The multi-tenant PolarDB instance: RW nodes over one shared PolarFS.
class MtCluster {
 public:
  explicit MtCluster(PhysicalClockMs clock);

  /// Adds an (empty) RW node; returns its id. Fast: no data movement (§V
  /// step 1-2 of scale-out).
  uint32_t AddRwNode();

  MtRwNode* rw(uint32_t id) { return rws_[id].get(); }
  size_t num_rws() const { return rws_.size(); }
  BindingTable* bindings() { return &bindings_; }
  DataDictionary* dictionary() { return &dict_; }

  /// Creates a tenant bound to `rw`.
  Status CreateTenant(TenantId tenant, uint32_t rw);

  /// Creates a table under a tenant (DDL by the tenant's owner RW).
  Result<TableStore*> CreateTable(TenantId tenant, const std::string& name,
                                  Schema schema);

  /// Routes a transaction on `tenant` to its owner RW; Busy while the
  /// tenant is migrating.
  Result<MtRwNode*> Route(TenantId tenant);

  /// §V live tenant transfer: pause -> drain -> flush/close on source ->
  /// rebind -> open on destination -> resume. No row data is copied. A
  /// caller that paused the tenant itself (SetMigrating) to drain it on its
  /// own clock keeps it paused and resumes it when it chooses.
  Result<TransferMetrics> TransferTenant(TenantId tenant, uint32_t dst_rw);

  /// Traditional shared-nothing migration baseline: the same steps, but
  /// every row of the tenant's tables is copied into fresh tables on the
  /// destination (rows_copied; the E2 bench converts it to transfer time).
  Result<TransferMetrics> CopyTenantBaseline(TenantId tenant, uint32_t dst_rw);

 private:
  Result<TransferMetrics> MoveTenant(TenantId tenant, uint32_t dst_rw,
                                     bool copy_rows);

  PhysicalClockMs clock_;
  PolarFs fs_;
  uint32_t volume_ = 0;
  std::unique_ptr<PolarFsPageStore> page_store_;
  std::vector<std::unique_ptr<MtRwNode>> rws_;
  BindingTable bindings_;
  DataDictionary dict_;
  TableId next_table_ = 1;
  std::mutex ddl_mu_;
};

}  // namespace polarx
