// A simulated multi-datacenter PolarDB-X deployment (experiment E1 /
// Fig. 7): CN servers and DN Paxos groups placed across datacenters on the
// discrete-event network, executing sysbench transactions end to end —
// real HLC/TSO timestamping, real MVCC engines, real 2PC, real Paxos
// replication of each DN's redo log — with network latencies and node
// service times supplied by the simulation.
//
// Topology (matching §VII-A): `num_dcs` datacenters, `cns_per_dc` CN
// servers each, `num_dns` DN instances whose Paxos leaders are spread
// round-robin over the DCs (each leader has followers in the other two
// DCs). In TSO-SI mode a TSO server sits in DC 0; every snapshot/commit
// timestamp is a network round trip to it. In HLC-SI mode the CN's local
// hybrid clock provides timestamps with no network cost.
//
// Survivability layer (chaos experiments): every CN-originated RPC goes
// through a retry loop (capped exponential backoff with deterministic
// jitter, per-attempt timeout, overall deadline — src/common/retry.h),
// re-resolving the DN leader through GMS on kNotLeader/timeouts.
//
// Statements, 2PC and in-doubt recovery are not implemented here: each CN
// runs the TxnCoordinator (src/txn/distributed.h) and, when another
// coordinator's GMS lease lapses, the InDoubtResolver (src/txn/recovery.h),
// both over this cluster's TxnParticipants transport (the only one in
// src/), which sends every participant call as one retried RPC to the DN's
// serving leader, where ServeParticipantCall answers it. The transport's
// only statement logic is the prepared-wait: a point read blocked by a
// PREPARED writer is parked on TxnEngine::OnResolved until the writer
// resolves, then served again. DN leader crashes are detected by a
// failover monitor that promotes the newly elected Paxos leader: catalog
// and transaction state are rebuilt from its replicated redo log
// (RedoApplier + TxnEngine::RecoverState) and the GMS endpoint map is
// updated so CNs re-route.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/clock/hlc.h"
#include "src/clock/tso.h"
#include "src/clock/tso_coalescer.h"
#include "src/common/histogram.h"
#include "src/common/retry.h"
#include "src/common/rng.h"
#include "src/consensus/paxos.h"
#include "src/gms/gms.h"
#include "src/sim/network.h"
#include "src/sim/resource.h"
#include "src/storage/buffer_pool.h"
#include "src/txn/distributed.h"
#include "src/txn/engine.h"
#include "src/workload/sysbench.h"

namespace polarx {

struct SimClusterConfig {
  int num_dcs = 3;
  int cns_per_dc = 2;
  int num_dns = 3;
  TsScheme scheme = TsScheme::kHlcSi;
  /// Cores and per-operation service times.
  uint32_t cn_cores = 16;
  uint32_t dn_cores = 8;
  sim::SimTime cn_overhead_us = 15;   // parse/plan/route per statement
  sim::SimTime dn_op_us = 25;         // row operation on the engine
  sim::SimTime tso_service_us = 2;    // timestamp allocation
  /// Sysbench table size (rows pre-loaded, hash-sharded over DNs).
  uint64_t table_size = 100000;
  PaxosConfig paxos;
  /// Leader-side redo group commit (write-path batching). Enabled by
  /// default; `enabled = false` reverts to one serialized flush per
  /// commit request (the ablation baseline, modeling per-commit fsync).
  GroupCommitConfig group_commit;
  uint64_t seed = 7;

  // ---- survivability knobs ----
  /// Retry policy for CN->DN / CN->TSO / CN->GMS RPCs.
  RetryPolicy rpc_retry;
  /// Per-attempt timeout before a CN declares the RPC lost and retries.
  /// Must sit well above worst-case DN queueing under saturation (a few
  /// ms at the E1 client counts), or load alone triggers spurious
  /// timeouts whose retries feed back into the queue (retry storm).
  sim::SimTime rpc_timeout_us = 30000;
  /// CN lease heartbeat period and GMS-side lease length.
  sim::SimTime cn_heartbeat_us = 20 * 1000;
  uint64_t coordinator_lease_us = 100 * 1000;
  /// How often surviving CNs sweep for dead coordinators' in-doubt txns.
  sim::SimTime recovery_poll_us = 50 * 1000;
  /// How often the failover monitor checks DN leaders.
  sim::SimTime failover_poll_us = 10 * 1000;
  /// Test hook fired at 2PC step boundaries of write transactions (see
  /// CommitStep). Chaos tests use it to crash the coordinator at exactly
  /// each boundary.
  std::function<void(int cn_index, int step)> commit_step_hook;
};

/// End-to-end transaction statistics.
struct SimClusterStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t rpc_retries = 0;           // retry attempts beyond the first
  uint64_t leader_failovers = 0;      // DN serving-leader promotions
  /// CN RPC messages handed to the network (requests, replies and GMS
  /// re-resolutions; DN-to-DN replication is not counted) and their bytes.
  uint64_t rpc_messages = 0;
  uint64_t rpc_bytes = 0;
  uint64_t recovery_resolved_commits = 0;  // branches committed by recovery
  uint64_t recovery_resolved_aborts = 0;   // branches aborted by recovery
  Histogram latency_us;
  /// Write transactions committed by one one-phase call (HLC-SI, every
  /// write on one DN).
  uint64_t one_phase_commits = 0;
  /// Commit-path stages of committed write (2PC) transactions, on the
  /// virtual clock. The first three are the client's path and sum to its
  /// latency: statements (submit -> 2PC begins), prepare (-> every branch
  /// prepared, or the one-phase commit done), decide (TSO-SI only: ->
  /// decision durable at the commit owner). The acknowledgement follows
  /// the last of them. The phase-2 tail (ack -> last commit answered) runs
  /// after the client has its answer; one-phase commits have none.
  Histogram statements_us;
  Histogram prepare_us;
  Histogram decide_us;
  Histogram phase2_tail_us;
};

class SimCluster {
 public:
  SimCluster(sim::Scheduler* sched, sim::Network* net,
             SimClusterConfig config);
  ~SimCluster();

  /// Loads the sysbench table: committed rows on every DN shard, plus the
  /// matching redo records in each DN leader's log so a failover rebuild
  /// reproduces the data.
  void LoadSysbenchTable();

  /// Executes `txn` starting from CN `cn_index` (0-based across all CNs);
  /// `done(ok, latency_us)` fires at completion on the virtual clock. If
  /// the coordinating CN dies mid-flight, `done` never fires.
  void SubmitTxn(int cn_index, const SysbenchTxn& txn,
                 std::function<void(bool, sim::SimTime)> done);

  int num_cns() const { return int(cns_.size()); }
  int num_dns() const { return int(dns_.size()); }
  const SimClusterStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SimClusterStats{}; }

  /// Telemetry for assertions: cross-DC messages from TSO traffic etc.
  TsoService* tso() { return tso_service_.get(); }
  Gms* gms() { return &gms_; }

  // ---- fault wiring (chaos tests) ----

  /// Called by fault-injector hooks right after the network marks `node`
  /// down/up. CN crashes stop its coordinator (lease expires -> recovery);
  /// CN restarts register a NEW coordinator incarnation. DN member
  /// restarts rejoin their Paxos group.
  void HandleNodeCrash(NodeId node);
  void HandleNodeRestart(NodeId node);

  NodeId cn_node(int cn_index) const { return cns_[cn_index].node; }
  uint32_t cn_coordinator_id(int cn_index) const {
    return cns_[cn_index].coord->coordinator_id();
  }
  /// All network nodes of DN group `dn_index` (leader + followers).
  std::vector<NodeId> dn_member_nodes(int dn_index) const;
  /// Member `member_index`'s redo log (0 = original leader). Chaos tests
  /// use it to assert flush watermarks stay on MTR boundaries.
  RedoLog* dn_member_log(int dn_index, int member_index) {
    return dns_[dn_index]->member_logs[size_t(member_index)].get();
  }
  int dn_member_count(int dn_index) const {
    return int(dns_[dn_index]->member_logs.size());
  }
  NodeId dn_serving_node(int dn_index) const {
    return dns_[dn_index]->serving_node;
  }
  /// The engine currently serving DN `dn_index` (invariant checks).
  TxnEngine* dn_engine(int dn_index) { return dns_[dn_index]->engine.get(); }
  /// DN `dn_index`'s buffer pool, shared by its engine incarnations.
  const BufferPool* dn_pool(int dn_index) const {
    return dns_[dn_index]->pool.get();
  }
  NodeId tso_node() const { return tso_node_; }
  int DnOfKey(int64_t key) const;

  /// Telemetry: serving group-commit driver of DN `dn_index` (batching
  /// counters).
  const GroupCommitDriver* dn_group_commit(int dn_index) const {
    return dns_[dn_index]->gc;
  }

 private:
  struct CnNode {
    NodeId node;
    DcId dc;
    std::unique_ptr<Hlc> hlc;
    std::unique_ptr<sim::Server> server;
    bool alive = true;
    /// Bumped on restart: continuations captured before a crash check this
    /// and drop themselves (a restarted CN has no memory of old txns).
    uint64_t incarnation = 1;
    Rng rng{0};  // retry jitter seeds (reseeded in ctor)
    /// TSO-SI: shares one in-flight batched timestamp fetch across this
    /// CN's concurrent requesters. Recreated on restart (queued grants
    /// from the previous incarnation are dropped with the old instance).
    std::unique_ptr<TsoCoalescer> tso;
    /// This incarnation's transport and 2PC coordinator. A restart creates
    /// new ones under a NEW coordinator id.
    std::unique_ptr<TxnParticipants> participants;
    std::unique_ptr<TxnCoordinator> coord;
  };
  struct DnNode {
    DcId dc;
    uint32_t engine_id = 0;  // stable across failovers (1-based dn index)
    /// Network node currently serving reads/writes (the promoted leader)
    /// and the epoch it was promoted at.
    NodeId serving_node;
    uint64_t serving_epoch = 0;
    std::unique_ptr<Hlc> hlc;
    std::vector<std::unique_ptr<RedoLog>> member_logs;
    std::unique_ptr<TableCatalog> catalog;
    CountingPageStore store;
    std::unique_ptr<BufferPool> pool;
    std::unique_ptr<TxnEngine> engine;
    std::unique_ptr<PaxosGroup> paxos;
    PaxosMember* leader = nullptr;  // serving member
    /// One committer per member, created once: AsyncCommitter registers
    /// permanent callbacks on its member, so it must live as long as the
    /// group. `committer` points at the serving member's.
    std::map<NodeId, std::unique_ptr<AsyncCommitter>> committers;
    AsyncCommitter* committer = nullptr;
    /// One group-commit driver per member (same lifetime rule as the
    /// committers: OnTruncate callbacks are permanent). `gc` points at the
    /// serving member's driver; the engine's durability hook feeds it.
    std::map<NodeId, std::unique_ptr<GroupCommitDriver>> gc_drivers;
    GroupCommitDriver* gc = nullptr;
    /// How many times the serving engine has been rebuilt (failover
    /// promotions). Feeds TxnEngineOptions::id_epoch so a rebuilt engine
    /// never re-issues a TxnId from a previous incarnation.
    uint32_t engine_incarnations = 0;
    std::unique_ptr<sim::Server> server;
  };

  class CnParticipants;

  /// One sysbench transaction in flight on its CN.
  struct TxnState {
    int cn;
    uint64_t cn_incarnation = 0;
    SysbenchTxn txn;
    size_t next_op = 0;
    bool failed = false;  // a statement failed: abort instead of commit
    sim::SimTime start_time = 0;
    sim::SimTime commit_start = 0;  // BeginCommit of a write transaction
    std::function<void(bool, sim::SimTime)> done;
    DistributedTxn dtxn;  // global id, snapshot, branches
  };
  using TxnPtr = std::shared_ptr<TxnState>;

  /// Runs server-side at the addressed node; must call the continuation
  /// exactly once (possibly asynchronously, e.g. after a DLSN advance). The
  /// reply is passed by value through the network closures.
  using RpcHandler = std::function<void(NodeId target, ReplyFn)>;
  /// One participant call in flight, shared so the closures the RPC layer
  /// copies per attempt stay small.
  struct PendingCall {
    ParticipantCall call;
    ReplyFn done;
  };
  using PendingPtr = std::shared_ptr<const PendingCall>;

  /// One CN-originated RPC with timeout + retry + leader re-resolution.
  /// `target()` is re-evaluated per attempt (so a failover between
  /// attempts routes to the new leader); `resolve_via_gms` inserts a GMS
  /// round trip before re-attempts after kNotLeader/timeouts. `done` is
  /// called exactly once — with the reply, or with the final failure —
  /// unless the CN dies first (then never).
  void CnRpc(int cn_index, uint64_t incarnation,
             std::function<NodeId()> target, size_t req_bytes,
             size_t resp_bytes, bool resolve_via_gms, RpcHandler handler,
             ReplyFn done);

  /// Sends one CnRpc message, counting it in the stats.
  void SendRpcMessage(NodeId from, NodeId to, size_t bytes,
                      std::function<void()> deliver);

  bool CnLive(int cn_index, uint64_t incarnation) const {
    return cns_[cn_index].alive &&
           cns_[cn_index].incarnation == incarnation;
  }
  /// Creates CN `cn_index`'s transport and coordinator for its current
  /// incarnation (ctor / restart).
  void StartCoordinator(int cn_index, uint32_t coordinator_id);
  /// GMS's endpoint for DN `dn_index` (its serving leader as last known).
  NodeId DnEndpoint(int dn_index);
  /// One participant call from CN `cn_index` to DN `dn_index`: a CnRpc
  /// whose handler checks the serving leader on arrival, then ServeOnDn
  /// after the dn_op_us service time. A coordinator call after the commit
  /// point is re-driven every 4 rpc timeouts until it lands; any other
  /// call's final failure is handed back.
  void CallDn(int cn_index, uint64_t incarnation, int dn_index,
              ParticipantCall call, ReplyFn done);
  /// Serves `p`'s call on DN `dn_index` if `to` still serves it: runs
  /// ServeParticipantCall on the serving engine and replies once any
  /// logged record is durable. A point read blocked by a PREPARED writer
  /// is served again dn_op_us after the writer resolves.
  void ServeOnDn(int dn_index, NodeId to, PendingPtr p, ReplyFn reply);

  /// Fetches one TSO timestamp through the CN's coalescer (TSO-SI). `done`
  /// runs only if the CN is still the same incarnation.
  void RequestTsoTimestamp(int cn_index, uint64_t incarnation, ReplyFn done);
  /// Installs the serving engine's durability hook and TsoCoalescer for a
  /// freshly created CN (ctor / restart).
  void InstallTsoCoalescer(int cn_index);
  /// Parks `reply` until every byte currently in the DN's serving log is
  /// majority-durable (the asynchronous-commit wait).
  void ReplyWhenDurable(DnNode* dn, ParticipantReply ok, ReplyFn reply);

  /// Runs the transaction's next statement on its DN, or ends the
  /// transaction once every statement ran or one failed.
  void ExecuteNextOp(TxnPtr txn);
  void BeginCommit(TxnPtr txn);
  /// Records the commit-path stage that ends at `step` of 2PC `gid`.
  void MarkCommitStep(CommitStep step, GlobalTxnId gid);
  /// Records the client-path stages of `txn`, acknowledged just now.
  void RecordAckedStages(const TxnState& txn);
  void AbortTxn(TxnPtr txn);
  void Finish(TxnPtr txn, bool ok);

  // ---- background daemons (direct scheduler ticks; they draw no network
  // randomness unless there is actual work, so fault-free runs keep their
  // event/jitter sequences) ----
  void HeartbeatTick();
  void FailoverTick();
  void MaybePromote(int dn_index);
  void Promote(int dn_index, PaxosMember* member);
  void RecoveryTick();
  int FirstAliveCn() const;

  sim::Scheduler* sched_;
  sim::Network* net_;
  SimClusterConfig config_;
  Gms gms_;
  std::vector<CnNode> cns_;
  std::vector<std::unique_ptr<DnNode>> dns_;
  std::map<NodeId, int> cn_of_node_;
  std::map<NodeId, int> dn_of_node_;  // any member node -> dn index
  NodeId tso_node_ = kInvalidNodeId;
  NodeId gms_node_ = kInvalidNodeId;
  std::unique_ptr<TsoService> tso_service_;
  std::unique_ptr<sim::Server> tso_server_;
  std::unique_ptr<sim::Server> gms_server_;
  SimClusterStats stats_;
  /// Global id -> virtual time of the last commit-path boundary the 2PC
  /// passed (every branch prepared, then the acknowledgement), for the
  /// stage histograms. Entries end with the transaction.
  std::unordered_map<GlobalTxnId, sim::SimTime> stage_marks_;
  TableId table_id_ = 1;
  bool recovery_in_flight_ = false;
  int recovery_cn_ = -1;
  uint64_t recovery_cn_inc_ = 0;
};

}  // namespace polarx
