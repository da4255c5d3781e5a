// Global Meta Service (§II-A): the control plane. Holds coordinator leases
// and DN endpoints, and produces migration plans for scale-out (§V "Scale
// PolarDB-X cluster") from PolarDB-MT's tenant bindings. In production GMS
// is itself a 3-AZ PolarDB; here it is an in-process authority.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace polarx {

/// One step of a scale-out plan: move `tenant` from `src` to `dst`.
struct MigrationStep {
  TenantId tenant = 0;
  uint32_t src_dn = 0;
  uint32_t dst_dn = 0;
};

/// Scale-out planning (§V): balances tenant counts across `nodes`, given the
/// current tenant -> node placement (PolarDB-MT's binding table, the only
/// record of it). Tenants move from the most-loaded nodes to the
/// least-loaded (typically freshly added) ones; tenants on nodes outside
/// `nodes` are ignored. Steps with distinct (src, dst) pairs can run in
/// parallel.
std::vector<MigrationStep> PlanRebalance(
    const std::map<TenantId, uint32_t>& placement,
    const std::vector<uint32_t>& nodes);

/// A registered coordinator (CN) incarnation and its lease state. A CN that
/// restarts registers a NEW incarnation; the old id stays expired forever,
/// which is what lets in-doubt recovery treat "lease expired" as "this
/// coordinator will never finish its transactions".
struct CoordinatorInfo {
  uint32_t id = 0;
  uint64_t last_heartbeat_us = 0;
  bool unregistered = false;  // clean shutdown / superseded incarnation
};

class Gms {
 public:
  Gms() = default;

  // ---- DN endpoints ----

  /// Current serving endpoint (Paxos leader node) of a DN group. CNs route
  /// writes here and re-resolve after kNotLeader / timeouts; failover code
  /// updates it when a new leader is promoted.
  void SetDnEndpoint(uint32_t dn, NodeId node);
  Result<NodeId> DnEndpoint(uint32_t dn) const;

  // ---- coordinator (CN) leases ----

  /// Registers a coordinator incarnation; returns its id (starts at 1).
  uint32_t RegisterCoordinator(uint64_t now_us);
  /// Renews a coordinator's lease. Unknown/unregistered ids are ignored.
  void CoordinatorHeartbeat(uint32_t id, uint64_t now_us);
  /// Clean shutdown (or supersession by a restart's new incarnation).
  void UnregisterCoordinator(uint32_t id);
  /// Coordinator incarnations whose lease lapsed: no heartbeat within
  /// `lease_us` of `now_us` and never cleanly unregistered. These are the
  /// dead coordinators whose prepared branches recovery must resolve.
  std::vector<uint32_t> ExpiredCoordinators(uint64_t now_us,
                                            uint64_t lease_us) const;

 private:
  mutable std::mutex mu_;
  std::map<uint32_t, NodeId> dn_endpoints_;
  uint32_t next_coordinator_ = 1;
  std::map<uint32_t, CoordinatorInfo> coordinators_;
};

}  // namespace polarx
