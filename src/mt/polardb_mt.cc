#include "src/mt/polardb_mt.h"

#include <algorithm>

#include "src/common/logging.h"

namespace polarx {

// ------------------------------------------------------- binding table --

uint64_t BindingTable::version() const { return version_.load(); }

Status BindingTable::Bind(TenantId tenant, uint32_t rw) {
  std::lock_guard<std::mutex> lock(mu_);
  bindings_[tenant] = rw;
  ++version_;
  return Status::Ok();
}

Result<uint32_t> BindingTable::OwnerOf(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = bindings_.find(tenant);
  if (it == bindings_.end()) return Status::NotFound("tenant unbound");
  return it->second;
}

std::vector<TenantId> BindingTable::TenantsOf(uint32_t rw) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantId> out;
  for (const auto& [tenant, owner] : bindings_) {
    if (owner == rw) out.push_back(tenant);
  }
  return out;
}

std::map<TenantId, uint32_t> BindingTable::Placement() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bindings_;
}

void BindingTable::SetMigrating(TenantId tenant, bool migrating) {
  std::lock_guard<std::mutex> lock(mu_);
  if (migrating) {
    migrating_.insert(tenant);
  } else {
    migrating_.erase(tenant);
  }
}

bool BindingTable::IsMigrating(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return migrating_.count(tenant) != 0;
}

// ------------------------------------------------------------ RW node --

MtRwNode::MtRwNode(uint32_t id, PhysicalClockMs clock, PageStore* page_store)
    : id_(id),
      hlc_(std::move(clock)),
      pool_(page_store),
      engine_(id + 1, &catalog_, &hlc_, &log_, &pool_) {}

void MtRwNode::RefreshBindings(const BindingTable& bindings) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = owned_.begin(); it != owned_.end();) {
    auto owner = bindings.OwnerOf(*it);
    if (!owner.ok() || *owner != id_) {
      it = owned_.erase(it);  // tenant moved away: abort its transactions
    } else {
      ++it;
    }
  }
  cached_version_ = bindings.version();
}

Status MtRwNode::CheckTenantLease(TenantId tenant,
                                  const BindingTable& bindings) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (owned_.count(tenant) == 0) {
      return Status::NotLeader("tenant not bound to rw " +
                               std::to_string(id_));
    }
    if (cached_version_ == bindings.version()) return Status::Ok();
  }
  // Cache stale: the lease has lapsed; the caller must refresh and retry.
  return Status::LeaseExpired("binding info changed");
}

Status MtRwNode::RenewTenantLease(TenantId tenant,
                                  const BindingTable& bindings) {
  Status lease = CheckTenantLease(tenant, bindings);
  if (!lease.IsLeaseExpired()) return lease;
  RefreshBindings(bindings);
  return CheckTenantLease(tenant, bindings);
}

Status MtRwNode::OpenTenant(TenantId tenant,
                            std::vector<std::shared_ptr<TableStore>> tables) {
  for (auto& table : tables) {
    POLARX_RETURN_NOT_OK(catalog_.AttachTable(std::move(table)));
  }
  std::lock_guard<std::mutex> lock(mu_);
  owned_.insert(tenant);
  return Status::Ok();
}

Result<std::vector<std::shared_ptr<TableStore>>> MtRwNode::CloseTenant(
    TenantId tenant, size_t* pages_flushed) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (owned_.count(tenant) == 0) {
      return Status::NotFound("tenant not owned");
    }
  }
  std::vector<std::shared_ptr<TableStore>> detached;
  size_t flushed = 0;
  for (TableStore* table : catalog_.TablesOfTenant(tenant)) {
    // §V: flush all dirty pages of the tenant to PolarFS before handover.
    flushed += pool_.FlushAndDropTable(table->id());
    POLARX_ASSIGN_OR_RETURN(auto handle, catalog_.DetachTable(table->id()));
    detached.push_back(std::move(handle));
  }
  if (pages_flushed != nullptr) *pages_flushed = flushed;
  std::lock_guard<std::mutex> lock(mu_);
  owned_.erase(tenant);
  return detached;
}

int64_t MtRwNode::InflightWrites(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inflight_writes_.find(tenant);
  return it == inflight_writes_.end() ? 0 : it->second;
}

void MtRwNode::NoteWriteBegin(TenantId tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  ++inflight_writes_[tenant];
}

void MtRwNode::NoteWriteEnd(TenantId tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  --inflight_writes_[tenant];
}

// ------------------------------------------------------------- cluster --

MtCluster::MtCluster(PhysicalClockMs clock) : clock_(std::move(clock)) {
  for (int i = 0; i < 3; ++i) fs_.AddChunkServer();
  auto vol = fs_.CreateVolume();
  volume_ = (*vol)->id();
  page_store_ = std::make_unique<PolarFsPageStore>(&fs_, volume_);
}

uint32_t MtCluster::AddRwNode() {
  uint32_t id = static_cast<uint32_t>(rws_.size());
  rws_.push_back(std::make_unique<MtRwNode>(id, clock_, page_store_.get()));
  rws_[id]->RefreshBindings(bindings_);
  return id;
}

Status MtCluster::CreateTenant(TenantId tenant, uint32_t rw) {
  if (rw >= rws_.size()) return Status::InvalidArgument("rw unknown");
  POLARX_RETURN_NOT_OK(bindings_.Bind(tenant, rw));
  rws_[rw]->RefreshBindings(bindings_);
  POLARX_RETURN_NOT_OK(rws_[rw]->OpenTenant(tenant, {}));
  return Status::Ok();
}

Result<TableStore*> MtCluster::CreateTable(TenantId tenant,
                                           const std::string& name,
                                           Schema schema) {
  std::lock_guard<std::mutex> lock(ddl_mu_);
  auto owner = bindings_.OwnerOf(tenant);
  if (!owner.ok()) return owner.status();
  MtRwNode* rw = rws_[*owner].get();
  TableId id = next_table_++;
  auto created = rw->catalog()->CreateTable(id, name, std::move(schema),
                                            tenant);
  if (!created.ok()) return created.status();
  return *created;
}

Result<MtRwNode*> MtCluster::Route(TenantId tenant) {
  if (bindings_.IsMigrating(tenant)) {
    return Status::Busy("tenant migrating; transaction paused");
  }
  POLARX_ASSIGN_OR_RETURN(uint32_t owner, bindings_.OwnerOf(tenant));
  MtRwNode* rw = rws_[owner].get();
  POLARX_RETURN_NOT_OK(rw->RenewTenantLease(tenant, bindings_));
  return rw;
}

Result<TransferMetrics> MtCluster::TransferTenant(TenantId tenant,
                                                  uint32_t dst_rw) {
  return MoveTenant(tenant, dst_rw, /*copy_rows=*/false);
}

Result<TransferMetrics> MtCluster::CopyTenantBaseline(TenantId tenant,
                                                      uint32_t dst_rw) {
  return MoveTenant(tenant, dst_rw, /*copy_rows=*/true);
}

namespace {

/// A fresh physical table holding the latest committed version of every row
/// of `table` (a production system would also ship a binlog tail; the
/// volume term dominates).
std::shared_ptr<TableStore> CopyRows(const TableStore& table,
                                     uint64_t* rows_copied) {
  auto copy = std::make_shared<TableStore>(table.id(), table.name(),
                                           table.schema(), table.tenant());
  table.rows().ScanAll([&](const EncodedKey& key, const VersionPtr& head) {
    for (const Version* v = head.get(); v != nullptr; v = v->prev.get()) {
      Timestamp ts = v->commit_ts.load(std::memory_order_acquire);
      if (ts == kInvalidTimestamp) continue;
      if (!v->deleted) {
        auto row = std::make_shared<Version>(v->txn_id, false, v->row);
        row->commit_ts.store(ts, std::memory_order_release);
        copy->rows().Push(key, std::move(row));
        ++*rows_copied;
      }
      break;
    }
    return true;
  });
  return copy;
}

}  // namespace

Result<TransferMetrics> MtCluster::MoveTenant(TenantId tenant,
                                              uint32_t dst_rw,
                                              bool copy_rows) {
  if (dst_rw >= rws_.size()) return Status::InvalidArgument("rw unknown");
  POLARX_ASSIGN_OR_RETURN(uint32_t src_rw, bindings_.OwnerOf(tenant));
  if (src_rw == dst_rw) return Status::InvalidArgument("already there");
  MtRwNode* src = rws_[src_rw].get();
  MtRwNode* dst = rws_[dst_rw].get();

  // 1. Pause new transactions to the tenant (proxy/CN stops forwarding),
  //    unless the caller already did.
  bool resume = !bindings_.IsMigrating(tenant);
  bindings_.SetMigrating(tenant, true);
  auto fail = [&](Status s) {
    if (resume) bindings_.SetMigrating(tenant, false);
    return s;
  };

  // 2. Drain: in-flight statements on the source must have finished. The
  //    caller waits for that (InflightWrites), so a non-zero count is a
  //    caller bug.
  if (src->InflightWrites(tenant) != 0) {
    return fail(Status::Busy("tenant has in-flight writes"));
  }

  // 3. Source: flush dirty pages, drop cached metadata, close resources.
  //    The shared-nothing baseline cannot hand the tables over; it rebuilds
  //    each one on the destination row by row.
  TransferMetrics metrics;
  auto tables = src->CloseTenant(tenant, &metrics.pages_flushed);
  if (!tables.ok()) return fail(tables.status());
  metrics.tables_moved = tables->size();
  if (copy_rows) {
    for (auto& table : *tables) table = CopyRows(*table, &metrics.rows_copied);
  }

  // 4. Update the binding system table (bumps the version; other RWs'
  //    caches become stale and refresh lazily).
  POLARX_RETURN_NOT_OK(bindings_.Bind(tenant, dst_rw));

  // 5. Destination: open the tenant's files / fetch metadata / initialize.
  //    The handover is a causal message: the destination clock must absorb
  //    the source clock so snapshots taken there see the tenant's latest
  //    commits (ClockUpdate, §IV).
  dst->hlc()->Update(src->hlc()->Now());
  POLARX_RETURN_NOT_OK(dst->OpenTenant(tenant, std::move(*tables)));
  dst->RefreshBindings(bindings_);
  src->RefreshBindings(bindings_);

  // 6. Resume traffic.
  if (resume) bindings_.SetMigrating(tenant, false);
  return metrics;
}

}  // namespace polarx
