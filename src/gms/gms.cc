#include "src/gms/gms.h"

#include <algorithm>

namespace polarx {

Result<TableDef> Gms::CreateTable(const std::string& name,
                                  std::vector<ColumnDef> columns,
                                  std::vector<uint32_t> key_columns,
                                  uint32_t num_shards,
                                  const std::string& table_group) {
  std::lock_guard<std::mutex> lock(mu_);
  if (table_names_.count(name) != 0) {
    return Status::InvalidArgument("table " + name + " exists");
  }
  if (dn_dcs_.empty()) {
    return Status::ResourceExhausted("no DN registered");
  }
  TableDef def = MakeTableDef(next_table_++, name, std::move(columns),
                              std::move(key_columns), num_shards);
  def.table_group = table_group;
  POLARX_RETURN_NOT_OK(table_groups_.Register(def));
  // Place shards: co-located with the table group if any, else round-robin
  // over the registered DNs.
  for (ShardId shard = 0; shard < def.num_shards; ++shard) {
    uint32_t dn = PickDnForShardLocked(table_group, shard);
    shard_placement_[{def.id, shard}] = dn;
    if (!table_group.empty()) {
      group_placement_.emplace(std::make_pair(table_group, shard), dn);
    }
  }
  tables_.emplace(def.id, def);
  table_names_.emplace(name, def.id);
  return def;
}

uint32_t Gms::PickDnForShardLocked(const std::string& table_group,
                                   ShardId shard) const {
  if (!table_group.empty()) {
    auto it = group_placement_.find({table_group, shard});
    if (it != group_placement_.end()) return it->second;
  }
  return static_cast<uint32_t>(shard % dn_dcs_.size());
}

Result<TableDef> Gms::FindTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_names_.find(name);
  if (it == table_names_.end()) return Status::NotFound("table " + name);
  return tables_.at(it->second);
}

Result<GlobalIndexDef> Gms::AddGlobalIndex(const std::string& table,
                                           const std::string& index_name,
                                           std::vector<uint32_t> columns,
                                           bool clustered) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_names_.find(table);
  if (it == table_names_.end()) return Status::NotFound("table " + table);
  TableDef& def = tables_[it->second];
  GlobalIndexDef idx;
  idx.name = index_name;
  idx.columns = std::move(columns);
  idx.clustered = clustered;
  idx.hidden_table = next_table_++;  // hidden table id (§II-B)
  def.global_indexes.push_back(idx);
  return idx;
}

int64_t Gms::NextSequence(TableId table) {
  std::lock_guard<std::mutex> lock(mu_);
  return sequences_[table].Next();
}

uint32_t Gms::RegisterDn(DcId dc) {
  std::lock_guard<std::mutex> lock(mu_);
  dn_dcs_.push_back(dc);
  return static_cast<uint32_t>(dn_dcs_.size() - 1);
}

void Gms::SetDnEndpoint(uint32_t dn, NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  dn_endpoints_[dn] = node;
}

Result<NodeId> Gms::DnEndpoint(uint32_t dn) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = dn_endpoints_.find(dn);
  if (it == dn_endpoints_.end()) return Status::NotFound("dn has no endpoint");
  return it->second;
}

uint32_t Gms::RegisterCoordinator(DcId dc, uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  CoordinatorInfo info;
  info.id = next_coordinator_++;
  info.dc = dc;
  info.last_heartbeat_us = now_us;
  coordinators_[info.id] = info;
  return info.id;
}

void Gms::CoordinatorHeartbeat(uint32_t id, uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = coordinators_.find(id);
  if (it == coordinators_.end() || it->second.unregistered) return;
  if (now_us > it->second.last_heartbeat_us) {
    it->second.last_heartbeat_us = now_us;
  }
}

void Gms::UnregisterCoordinator(uint32_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = coordinators_.find(id);
  if (it != coordinators_.end()) it->second.unregistered = true;
}

std::vector<uint32_t> Gms::ExpiredCoordinators(uint64_t now_us,
                                               uint64_t lease_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> out;
  for (const auto& [id, info] : coordinators_) {
    if (info.unregistered) continue;
    if (info.last_heartbeat_us + lease_us < now_us) out.push_back(id);
  }
  return out;
}

Result<uint32_t> Gms::DnOfShard(TableId table, ShardId shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shard_placement_.find({table, shard});
  if (it == shard_placement_.end()) return Status::NotFound("shard unknown");
  return it->second;
}

std::vector<MigrationStep> PlanRebalance(
    const std::map<TenantId, uint32_t>& placement,
    const std::vector<uint32_t>& nodes) {
  // Current tenants per node.
  std::map<uint32_t, std::vector<TenantId>> by_node;
  for (uint32_t node : nodes) by_node[node];
  size_t total = 0;
  for (const auto& [tenant, node] : placement) {
    auto it = by_node.find(node);
    if (it == by_node.end()) continue;
    it->second.push_back(tenant);
    ++total;
  }
  if (by_node.empty()) return {};
  size_t target_floor = total / by_node.size();
  size_t remainder = total % by_node.size();

  // Donors carry more than their target; takers less.
  std::vector<std::pair<uint32_t, std::vector<TenantId>>> donors;
  std::vector<std::pair<uint32_t, size_t>> takers;
  size_t i = 0;
  for (auto& [node, tenants] : by_node) {
    size_t target = target_floor + (i < remainder ? 1 : 0);
    ++i;
    if (tenants.size() > target) {
      donors.emplace_back(node, std::vector<TenantId>(
                                    tenants.begin() + target, tenants.end()));
    } else if (tenants.size() < target) {
      takers.emplace_back(node, target - tenants.size());
    }
  }
  std::vector<MigrationStep> plan;
  size_t di = 0, dj = 0;
  for (const auto& [dst, want] : takers) {
    for (size_t w = 0; w < want; ++w) {
      while (di < donors.size() && dj >= donors[di].second.size()) {
        ++di;
        dj = 0;
      }
      if (di >= donors.size()) break;
      plan.push_back(MigrationStep{donors[di].second[dj], donors[di].first,
                                   dst});
      ++dj;
    }
  }
  return plan;
}

}  // namespace polarx
