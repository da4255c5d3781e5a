#include "src/gms/gms.h"

namespace polarx {

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

uint32_t Gms::RegisterCoordinator(uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  CoordinatorInfo info;
  info.id = next_coordinator_++;
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
