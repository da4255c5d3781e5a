#include "src/cn/sim_cluster.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/replication/redo_applier.h"
#include "src/storage/key_codec.h"
#include "src/txn/recovery.h"

namespace polarx {

namespace {
/// Virtual-time physical clock source for HLCs: milliseconds of sim time.
PhysicalClockMs SimClockMs(sim::Scheduler* sched) {
  return [sched] { return 1000 + sched->Now() / sim::kUsPerMs; };
}
}  // namespace

SimCluster::SimCluster(sim::Scheduler* sched, sim::Network* net,
                       SimClusterConfig config)
    : sched_(sched), net_(net), config_(config) {
  // CN servers: cns_per_dc in each DC, each holding a GMS coordinator
  // lease so a crash is detectable by lease expiry.
  for (int dc = 0; dc < config_.num_dcs; ++dc) {
    for (int i = 0; i < config_.cns_per_dc; ++i) {
      CnNode cn;
      cn.dc = DcId(dc);
      cn.node = net_->AddNode(cn.dc, "cn-" + std::to_string(dc) + "-" +
                                         std::to_string(i));
      cn.hlc = std::make_unique<Hlc>(SimClockMs(sched_));
      cn.server = std::make_unique<sim::Server>(sched_, config_.cn_cores);
      uint32_t coordinator_id = gms_.RegisterCoordinator(0);
      cn.rng = Rng(config_.seed ^ (0x9E3779B97F4A7C15ULL * (cn.node + 1)));
      cn_of_node_[cn.node] = int(cns_.size());
      cns_.push_back(std::move(cn));
      StartCoordinator(int(cns_.size()) - 1, coordinator_id);
    }
  }
  // DN instances: leader in DC (i % num_dcs), followers in the other DCs.
  for (int i = 0; i < config_.num_dns; ++i) {
    auto dn = std::make_unique<DnNode>();
    dn->dc = DcId(i % config_.num_dcs);
    dn->engine_id = uint32_t(i + 1);
    NodeId leader_node =
        net_->AddNode(dn->dc, "dn-" + std::to_string(i) + "-leader");
    dn->hlc = std::make_unique<Hlc>(SimClockMs(sched_));
    dn->member_logs.push_back(std::make_unique<RedoLog>());
    dn->catalog = std::make_unique<TableCatalog>();
    dn->pool = std::make_unique<BufferPool>(&dn->store);
    TxnEngineOptions opts;
    opts.use_prepare_ts_filter = config_.scheme == TsScheme::kHlcSi;
    dn->engine = std::make_unique<TxnEngine>(
        dn->engine_id, dn->catalog.get(), dn->hlc.get(),
        dn->member_logs[0].get(), dn->pool.get(), opts);
    dn->paxos = std::make_unique<PaxosGroup>(net_, config_.paxos);
    dn->leader = dn->paxos->AddMember(leader_node, PaxosRole::kLeader,
                                      dn->member_logs[0].get());
    dn_of_node_[leader_node] = i;
    for (int f = 1; f < config_.num_dcs; ++f) {
      DcId fdc = DcId((i + f) % config_.num_dcs);
      NodeId fnode = net_->AddNode(
          fdc, "dn-" + std::to_string(i) + "-f" + std::to_string(f));
      dn->member_logs.push_back(std::make_unique<RedoLog>());
      dn->paxos->AddMember(fnode, PaxosRole::kFollower,
                           dn->member_logs.back().get());
      dn_of_node_[fnode] = i;
    }
    dn->paxos->Start();
    // One committer per member for the cluster's lifetime: AsyncCommitter
    // registers permanent callbacks on its member, so destroying one on
    // failover would leave dangling callbacks. Promotion just switches
    // which committer serves.
    for (auto& m : dn->paxos->members()) {
      dn->committers[m->node()] = std::make_unique<AsyncCommitter>(m.get());
      dn->gc_drivers[m->node()] = std::make_unique<GroupCommitDriver>(
          sched_, m.get(), config_.group_commit);
    }
    dn->serving_node = leader_node;
    dn->serving_epoch = dn->leader->epoch();
    dn->committer = dn->committers.at(leader_node).get();
    dn->gc = dn->gc_drivers.at(leader_node).get();
    DnNode* raw = dn.get();
    // §III old-leader cleanup: the serving engine logs into its member's
    // log and marks each page dirty up to its MTR's end LSN, so when that
    // member truncates (deposition, crash recovery, log repair), the pages
    // dirtied by records ending past the new end are evicted unflushed:
    // those records may never commit, and their LSNs may be refilled by
    // another leader. Truncation points are MTR boundaries. Callbacks are
    // permanent, so every member's fires, but only the serving one's
    // applies.
    for (auto& m : dn->paxos->members()) {
      PaxosMember* member = m.get();
      member->OnTruncate([raw, member](Lsn new_end) {
        if (raw->leader == member) raw->pool->DiscardDirtyAfter(new_end);
      });
    }
    // Commit-path durability flows engine -> group-commit driver: every
    // MTR the engine wants durable is a Submit, and the driver's flushes
    // (one per group) both persist the leader log and kick replication.
    dn->engine->SetDurabilityHook(
        [raw](Lsn end_lsn) { raw->gc->Submit(end_lsn); });
    dn->server = std::make_unique<sim::Server>(sched_, config_.dn_cores);
    gms_.SetDnEndpoint(uint32_t(i), leader_node);
    dns_.push_back(std::move(dn));
  }
  // TSO in DC 0 (TSO-SI only, but always constructed for telemetry), plus
  // the GMS endpoint CNs query to re-resolve DN leaders.
  tso_node_ = net_->AddNode(0, "tso");
  tso_service_ = std::make_unique<TsoService>(SimClockMs(sched_));
  tso_server_ = std::make_unique<sim::Server>(sched_, 4);
  gms_node_ = net_->AddNode(0, "gms");
  gms_server_ = std::make_unique<sim::Server>(sched_, 4);
  for (int i = 0; i < int(cns_.size()); ++i) InstallTsoCoalescer(i);

  // Background daemons. On the fault-free path these ticks touch no
  // network and draw no randomness, so existing deterministic workloads
  // keep their event sequences.
  sched_->ScheduleAfter(config_.cn_heartbeat_us, [this] { HeartbeatTick(); });
  sched_->ScheduleAfter(config_.failover_poll_us, [this] { FailoverTick(); });
  sched_->ScheduleAfter(config_.recovery_poll_us, [this] { RecoveryTick(); });
}

SimCluster::~SimCluster() = default;

void SimCluster::LoadSysbenchTable() {
  Rng rng(config_.seed);
  Schema schema = Sysbench::TableSchema();
  for (auto& dn : dns_) {
    dn->catalog->CreateTable(table_id_, "sbtest", schema, 0);
  }
  std::vector<std::vector<RedoRecord>> redo(dns_.size());
  for (int64_t id = 1; id <= int64_t(config_.table_size); ++id) {
    int dn_index = DnOfKey(id);
    TableStore* table = dns_[dn_index]->catalog->FindTable(table_id_);
    Row row = Sysbench::MakeRow(id, &rng);
    EncodedKey key = EncodeKey({id});
    RedoRecord rec;
    rec.type = RedoType::kInsert;
    rec.txn_id = 1;
    rec.table_id = table_id_;
    rec.key = key;
    rec.row = row;
    redo[size_t(dn_index)].push_back(std::move(rec));
    auto version = std::make_shared<Version>(1, false, std::move(row));
    version->commit_ts.store(hlc_layout::Pack(999, 1),
                             std::memory_order_release);
    table->rows().Push(key, version);
  }
  // The load must also exist in the leader's redo stream, or a failover
  // rebuild (replay of the replicated log) would come up with an empty
  // table. Only the leader log is seeded: followers start empty and catch
  // up through normal replication, which also tags the bytes with epoch
  // spans (pre-seeding follower logs would defeat divergence detection).
  for (size_t i = 0; i < dns_.size(); ++i) {
    RedoRecord commit;
    commit.type = RedoType::kTxnCommit;
    commit.txn_id = 1;
    commit.ts = hlc_layout::Pack(999, 1);
    redo[i].push_back(std::move(commit));
    RedoLog* log = dns_[i]->leader->log();
    MtrHandle mtr = log->AppendMtr(redo[i]);
    log->MarkFlushed(mtr.end_lsn);
  }
}

int SimCluster::DnOfKey(int64_t key) const {
  return int(ShardOf(EncodeKey({key}), uint32_t(dns_.size())));
}

std::vector<NodeId> SimCluster::dn_member_nodes(int dn_index) const {
  std::vector<NodeId> out;
  for (auto& m : dns_[dn_index]->paxos->members()) out.push_back(m->node());
  return out;
}

// ---------------------------------------------------------------------------
// Retryable RPC layer
// ---------------------------------------------------------------------------

void SimCluster::CnRpc(int cn_index, uint64_t incarnation,
                       std::function<NodeId()> target, size_t req_bytes,
                       size_t resp_bytes, bool resolve_via_gms,
                       RpcHandler handler, ReplyFn done) {
  struct Call {
    RetryState retry;
    uint64_t attempt = 0;
    uint64_t handled = 0;
    bool completed = false;
    /// Sends the next attempt. It is handed the call rather than capturing
    /// it, so a call in flight is owned only by its pending events and is
    /// freed with them.
    std::function<void(const std::shared_ptr<Call>&)> send_attempt;
    Call(const RetryPolicy& p, uint64_t now, uint64_t seed)
        : retry(p, now, seed) {}
  };
  using CallPtr = std::shared_ptr<Call>;
  auto call = std::make_shared<Call>(config_.rpc_retry, sched_->Now(),
                                     cns_[cn_index].rng.Next());
  // Resolves one attempt (reply or timeout, whichever fires first — the
  // loser is dropped by the attempt/handled guards).
  auto outcome = [this, cn_index, incarnation, done, resolve_via_gms](
                     const CallPtr& call, uint64_t attempt,
                     ParticipantReply reply) {
    if (call->completed || attempt != call->attempt ||
        call->handled >= attempt) {
      return;
    }
    call->handled = attempt;
    if (!CnLive(cn_index, incarnation)) {
      call->completed = true;
      return;  // the CN died; nobody is waiting for this reply
    }
    bool retry = !reply.status.ok() &&
                 call->retry.ShouldRetry(reply.status, sched_->Now());
    if (!retry) {
      call->completed = true;
      done(std::move(reply));
      return;
    }
    ++stats_.rpc_retries;
    uint64_t backoff = call->retry.NextBackoffUs();
    // Routing errors and timeouts: refresh the endpoint map from GMS
    // before the next attempt (target() re-reads it per attempt).
    bool refresh = resolve_via_gms && (reply.status.IsNotLeader() ||
                                       reply.status.IsTimedOut() ||
                                       reply.status.IsUnavailable());
    NodeId cn_node = cns_[cn_index].node;
    sched_->ScheduleAfter(sim::SimTime(backoff), [this, call, refresh,
                                                  cn_node] {
      if (call->completed) return;
      if (!refresh) {
        call->send_attempt(call);
        return;
      }
      SendRpcMessage(cn_node, gms_node_, 64, [this, call, cn_node] {
        gms_server_->Execute(config_.tso_service_us, [this, call, cn_node] {
          SendRpcMessage(gms_node_, cn_node, 64, [call] {
            if (!call->completed) call->send_attempt(call);
          });
        });
      });
    });
  };
  call->send_attempt = [this, cn_index, incarnation, target, req_bytes,
                        resp_bytes, handler, outcome](const CallPtr& call) {
    if (call->completed || !CnLive(cn_index, incarnation)) return;
    uint64_t attempt = ++call->attempt;
    NodeId from = cns_[cn_index].node;
    NodeId to = target();
    sched_->ScheduleAfter(config_.rpc_timeout_us, [outcome, call, attempt] {
      outcome(call, attempt,
              ParticipantReply{Status::TimedOut("rpc attempt timed out")});
    });
    SendRpcMessage(from, to, req_bytes, [this, to, from, resp_bytes, handler,
                                         outcome, call, attempt] {
      handler(to, [this, to, from, resp_bytes, outcome, call,
                   attempt](ParticipantReply reply) {
        SendRpcMessage(to, from, resp_bytes, [outcome, call, attempt, reply] {
          outcome(call, attempt, reply);
        });
      });
    });
  };
  call->send_attempt(call);
}

void SimCluster::SendRpcMessage(NodeId from, NodeId to, size_t bytes,
                                std::function<void()> deliver) {
  ++stats_.rpc_messages;
  stats_.rpc_bytes += bytes;
  net_->Send(from, to, bytes, std::move(deliver));
}

void SimCluster::InstallTsoCoalescer(int cn_index) {
  if (config_.scheme != TsScheme::kTsoSi) return;
  cns_[cn_index].tso = std::make_unique<TsoCoalescer>(
      [this, cn_index](uint32_t count, TsoCoalescer::FetchCallback cb) {
        // The incarnation read here is the one the coalescer was created
        // under (restarts replace the coalescer before any new Request),
        // so a fetch outliving a crash is dropped by CnRpc like any other
        // stale continuation.
        uint64_t inc = cns_[cn_index].incarnation;
        CnRpc(
            cn_index, inc, [this] { return tso_node_; }, 32,
            32 + size_t(8) * count, /*resolve_via_gms=*/false,
            [this, count](NodeId, ReplyFn reply) {
              tso_server_->Execute(
                  config_.tso_service_us, [this, count, reply] {
                    ParticipantReply r;
                    r.ts = tso_service_->NextBatch(count);
                    reply(r);
                  });
            },
            [cb, count](ParticipantReply r) { cb(r.status, r.ts, count); });
      });
}

void SimCluster::RequestTsoTimestamp(int cn_index, uint64_t incarnation,
                                     ReplyFn done) {
  // Ride (or start) the CN's shared batched fetch (every TSO-SI CN has
  // one). FIFO hand-out of strictly-increasing ranges keeps per-CN
  // timestamps strictly monotonic, same as dedicated round trips.
  cns_[cn_index].tso->Request(
      [this, cn_index, incarnation, done](Status s, Timestamp ts) {
        if (!CnLive(cn_index, incarnation)) return;
        done(ParticipantReply{s, ts});
      });
}

void SimCluster::ReplyWhenDurable(DnNode* dn, ParticipantReply ok,
                                  ReplyFn reply) {
  // The engine already routed this MTR into the group-commit driver via
  // its durability hook; here we only park the reply on the majority
  // watermark. The callback fires on DLSN advance, or fails if a leader
  // change truncates the log underneath it.
  dn->committer->Submit(
      dn->leader->log()->current_lsn(), [reply, ok] { reply(ok); },
      [reply] {
        reply(ParticipantReply{Status::Unavailable("lost to truncation")});
      });
}

// ---------------------------------------------------------------------------
// The 2PC transport: participant calls as retried CN->DN RPCs
// ---------------------------------------------------------------------------

/// CN `cn`'s TxnParticipants for one incarnation. Participants are DNs,
/// named by engine id (the 1-based DN index).
class SimCluster::CnParticipants : public TxnParticipants {
 public:
  CnParticipants(SimCluster* cluster, int cn, uint64_t incarnation)
      : cluster_(cluster), cn_(cn), incarnation_(incarnation) {}

  std::vector<uint32_t> participant_ids() const override {
    std::vector<uint32_t> ids;
    for (auto& dn : cluster_->dns_) ids.push_back(dn->engine_id);
    return ids;
  }
  void Call(uint32_t participant, ParticipantCall call,
            ReplyFn done) override {
    cluster_->CallDn(cn_, incarnation_, int(participant) - 1,
                     std::move(call), std::move(done));
  }
  void FetchTso(ReplyFn done) override {
    cluster_->RequestTsoTimestamp(cn_, incarnation_, std::move(done));
  }
  bool IsLocal(uint32_t participant) const override {
    const DnNode& dn = *cluster_->dns_[participant - 1];
    return cluster_->net_->DcOf(dn.serving_node) == cluster_->cns_[cn_].dc;
  }

 private:
  SimCluster* cluster_;
  int cn_;
  uint64_t incarnation_;
};

void SimCluster::StartCoordinator(int cn_index, uint32_t coordinator_id) {
  CnNode& cn = cns_[cn_index];
  const uint64_t inc = cn.incarnation;
  cn.participants = std::make_unique<CnParticipants>(this, cn_index, inc);
  cn.coord = std::make_unique<TxnCoordinator>(
      cn.participants.get(), config_.scheme, cn.hlc.get(), coordinator_id);
  cn.coord->set_step_hook([this, cn_index, inc](CommitStep step,
                                                 GlobalTxnId gid) {
    if (config_.commit_step_hook) {
      config_.commit_step_hook(cn_index, int(step));
    }
    if (!CnLive(cn_index, inc)) return false;
    MarkCommitStep(step, gid);
    return true;
  });
}

NodeId SimCluster::DnEndpoint(int dn_index) {
  auto ep = gms_.DnEndpoint(uint32_t(dn_index));
  return ep.ok() ? *ep : dns_[dn_index]->serving_node;
}

namespace {
/// Request and response bytes of each participant call. They are part of
/// the simulated cost model, so the pinned footprints depend on them.
std::pair<size_t, size_t> WireBytes(const ParticipantCall& call) {
  using Op = ParticipantCall::Op;
  switch (call.op) {
    case Op::kStatement:
      return {256, 128};
    case Op::kPrepare:
    case Op::kCommitOnePhase:
      return {128, 64};
    case Op::kDecideCommit:
      return {96, 64};
    case Op::kCommit:
      return {call.resolving ? 96 : 128, 64};
    case Op::kAbort:
      return {96, 64};
    case Op::kListUnresolved:
      return {64, 512};
    case Op::kDecisionOrPresumeAbort:
    case Op::kFence:
      return {64, 64};
  }
  return {64, 64};
}

/// Whether a coordinator call that failed with `s` must be re-driven: the
/// commit point (a decision or a one-phase commit) and every phase-2
/// commit may already be durable, and a PREPARED branch must not outlive
/// its live coordinator's abort.
bool MustRedrive(const ParticipantCall& call, const Status& s) {
  using Op = ParticipantCall::Op;
  if (s.ok() || call.resolving) return false;
  switch (call.op) {
    case Op::kDecideCommit:
      return !s.IsAborted();  // Aborted: a resolver's abort decision won
    case Op::kCommitOnePhase:
    case Op::kCommit:
      return !s.IsAborted() && !s.IsNotFound();
    case Op::kAbort:
      return s.retryable();
    default:
      return false;
  }
}
}  // namespace

void SimCluster::CallDn(int cn_index, uint64_t incarnation, int dn_index,
                        ParticipantCall call, ReplyFn done) {
  auto [req_bytes, resp_bytes] = WireBytes(call);
  auto p = std::make_shared<const PendingCall>(
      PendingCall{std::move(call), std::move(done)});
  auto handler = [this, dn_index, p](NodeId to, ReplyFn reply) {
    if (to != dns_[dn_index]->serving_node) {
      reply(ParticipantReply{Status::NotLeader("dn leader moved")});
      return;
    }
    dns_[dn_index]->server->Execute(
        config_.dn_op_us,
        [this, dn_index, to, p, reply] { ServeOnDn(dn_index, to, p, reply); });
  };
  CnRpc(
      cn_index, incarnation, [this, dn_index] { return DnEndpoint(dn_index); },
      req_bytes, resp_bytes, /*resolve_via_gms=*/true, handler,
      [this, cn_index, incarnation, dn_index, p](ParticipantReply r) {
        if (!MustRedrive(p->call, r.status)) {
          p->done(std::move(r));
          return;
        }
        // Keep re-driving; the chaos plans always heal, so this terminates.
        sched_->ScheduleAfter(
            4 * config_.rpc_timeout_us, [this, cn_index, incarnation,
                                         dn_index, p] {
              if (CnLive(cn_index, incarnation)) {
                CallDn(cn_index, incarnation, dn_index, p->call, p->done);
              }
            });
      });
}

void SimCluster::ServeOnDn(int dn_index, NodeId to, PendingPtr p,
                           ReplyFn reply) {
  DnNode* dn = dns_[dn_index].get();
  if (to != dn->serving_node) {
    reply(ParticipantReply{Status::NotLeader("dn leader moved")});
    return;
  }
  ParticipantReply r = ServeParticipantCall(dn->engine.get(), p->call);
  if (r.blocker != kInvalidTxnId) {
    // Prepared-wait (§IV case 2): serve the read again once the writer
    // resolves. If a failover destroys the engine (and with it this
    // waiter), the CN-side attempt timeout re-drives the call on the new
    // leader.
    dn->engine->OnResolved(r.blocker, [this, dn_index, to, p, reply] {
      dns_[dn_index]->server->Execute(config_.dn_op_us, [this, dn_index, to,
                                                         p, reply] {
        ServeOnDn(dn_index, to, p, reply);
      });
    });
    return;
  }
  // Commit-path records must be durable on a majority of datacenters
  // before the reply (§III). Asynchronous commit: no DN thread blocks.
  if (r.await_durable) {
    // A resolver's read may report records whose flush nobody has
    // requested yet (a statement's redo, say): request it.
    if (p->call.resolving) dn->gc->Submit(dn->leader->log()->current_lsn());
    ReplyWhenDurable(dn, std::move(r), reply);
  } else {
    reply(std::move(r));
  }
}

// ---------------------------------------------------------------------------
// Transaction flow
// ---------------------------------------------------------------------------

void SimCluster::SubmitTxn(int cn_index, const SysbenchTxn& txn,
                           std::function<void(bool, sim::SimTime)> done) {
  auto state = std::make_shared<TxnState>();
  state->cn = cn_index % int(cns_.size());
  CnNode& cn = cns_[state->cn];
  if (!cn.alive) return;  // dead CN accepts no work; `done` never fires
  state->txn = txn;
  state->done = std::move(done);
  state->start_time = sched_->Now();
  state->cn_incarnation = cn.incarnation;
  state->dtxn = cn.coord->NewTxn();
  cn.server->Execute(config_.cn_overhead_us, [this, state] {
    if (!CnLive(state->cn, state->cn_incarnation)) return;
    // Under TSO-SI a (possibly coalesced) round trip to the TSO in DC 0,
    // retried with backoff: if the TSO DC stays unreachable past the
    // deadline, the transaction fails cleanly instead of hanging.
    cns_[state->cn].coord->AcquireSnapshot(
        &state->dtxn, [this, state](Status s) {
          if (s.ok()) {
            ExecuteNextOp(state);
          } else {
            AbortTxn(state);
          }
        });
  });
}

void SimCluster::ExecuteNextOp(TxnPtr txn) {
  if (txn->failed) {
    AbortTxn(txn);
    return;
  }
  if (txn->next_op >= txn->txn.ops.size()) {
    BeginCommit(txn);
    return;
  }
  const SysbenchOp op = txn->txn.ops[txn->next_op++];
  Statement st{.table = table_id_, .key = EncodeKey({op.key})};
  switch (op.type) {
    case SysbenchOp::Type::kPointRead:
      st.kind = Statement::Kind::kRead;
      break;
    case SysbenchOp::Type::kRangeRead:
      st.kind = Statement::Kind::kScan;
      st.end = EncodeKey({op.key + op.range_len});
      break;
    case SysbenchOp::Type::kDelete:
      st.kind = Statement::Kind::kDelete;
      break;
    default: {  // updates and inserts write the whole row
      // Seeded by the key and the statement's position, so a run's rows do
      // not depend on the order in which its transactions interleave.
      Rng value_rng(uint64_t(op.key) * 1315423911ULL + txn->next_op);
      st.kind = Statement::Kind::kUpdate;
      st.row = Sysbench::MakeRow(op.key, &value_rng);
    }
  }
  const uint32_t participant = dns_[DnOfKey(op.key)]->engine_id;
  cns_[txn->cn].coord->ExecuteAsync(
      &txn->dtxn, participant, std::move(st),
      [this, txn, read = op.type == SysbenchOp::Type::kPointRead](
          ParticipantReply r) {
        // A point read that finds no row (it was deleted) succeeds.
        if (!r.status.ok() && !(read && r.status.IsNotFound())) {
          txn->failed = true;
        }
        ExecuteNextOp(txn);
      });
}

void SimCluster::BeginCommit(TxnPtr txn) {
  if (txn->txn.read_only) {
    // Read-only: no 2PC, just end the branches locally (no message).
    for (const auto& [participant, branch] : txn->dtxn.branches()) {
      dns_[participant - 1]->engine->Abort(branch);
    }
    Finish(txn, true);
    return;
  }
  txn->commit_start = sched_->Now();
  cns_[txn->cn].coord->CommitAsync(&txn->dtxn, [this, txn](Status s) {
    if (s.ok()) {
      RecordAckedStages(*txn);
    } else {
      stage_marks_.erase(txn->dtxn.global_id());
    }
    Finish(txn, s.ok());
  });
}

void SimCluster::MarkCommitStep(CommitStep step, GlobalTxnId gid) {
  if (step == CommitStep::kAllPrepared) {
    stage_marks_[gid] = sched_->Now();
  } else if (step == CommitStep::kPhaseTwoDone) {
    auto it = stage_marks_.find(gid);
    if (it == stage_marks_.end()) return;
    stats_.phase2_tail_us.Record(double(sched_->Now() - it->second));
    stage_marks_.erase(it);
  }
}

void SimCluster::RecordAckedStages(const TxnState& txn) {
  auto it = stage_marks_.find(txn.dtxn.global_id());
  if (it == stage_marks_.end()) return;  // no branch, so no 2PC ran
  const sim::SimTime now = sched_->Now();
  stats_.statements_us.Record(double(txn.commit_start - txn.start_time));
  stats_.prepare_us.Record(double(it->second - txn.commit_start));
  if (txn.dtxn.one_phase()) {
    ++stats_.one_phase_commits;  // committed in the prepare stage
    stage_marks_.erase(it);
    return;
  }
  // HLC-SI acknowledges the moment every branch is prepared.
  if (config_.scheme == TsScheme::kTsoSi) {
    stats_.decide_us.Record(double(now - it->second));
  }
  it->second = now;  // the phase-2 tail starts at the acknowledgement
}

void SimCluster::AbortTxn(TxnPtr txn) {
  cns_[txn->cn].coord->AbortAsync(
      &txn->dtxn, [this, txn](Status) { Finish(txn, false); });
}

void SimCluster::Finish(TxnPtr txn, bool ok) {
  sim::SimTime latency = sched_->Now() - txn->start_time;
  if (ok) {
    ++stats_.committed;
    stats_.latency_us.Record(double(latency));
  } else {
    ++stats_.aborted;
  }
  auto done = std::move(txn->done);
  if (done) done(ok, latency);
}

// ---------------------------------------------------------------------------
// Background daemons: CN lease heartbeats, DN failover monitor, in-doubt
// recovery
// ---------------------------------------------------------------------------

void SimCluster::HeartbeatTick() {
  for (auto& cn : cns_) {
    if (cn.alive) {
      gms_.CoordinatorHeartbeat(cn.coord->coordinator_id(), sched_->Now());
    }
  }
  sched_->ScheduleAfter(config_.cn_heartbeat_us, [this] { HeartbeatTick(); });
}

void SimCluster::FailoverTick() {
  for (int i = 0; i < int(dns_.size()); ++i) MaybePromote(i);
  sched_->ScheduleAfter(config_.failover_poll_us, [this] { FailoverTick(); });
}

void SimCluster::MaybePromote(int dn_index) {
  DnNode* dn = dns_[dn_index].get();
  // Highest-epoch live member claiming leadership. Paxos elections run
  // underneath; this monitor only decides when the serving side (engine,
  // endpoint) switches over to the winner.
  PaxosMember* best = nullptr;
  for (auto& m : dn->paxos->members()) {
    if (m->role() == PaxosRole::kLeader && net_->IsNodeUp(m->node())) {
      if (best == nullptr || m->epoch() > best->epoch()) best = m.get();
    }
  }
  if (best == nullptr) return;  // election in progress: keep serving as-is
  if (best->node() == dn->serving_node) {
    dn->serving_epoch = best->epoch();
    return;
  }
  bool serving_up = net_->IsNodeUp(dn->serving_node) &&
                    dn->leader->role() == PaxosRole::kLeader;
  if (serving_up && best->epoch() <= dn->serving_epoch) return;
  Promote(dn_index, best);
}

void SimCluster::Promote(int dn_index, PaxosMember* member) {
  DnNode* dn = dns_[dn_index].get();
  // The same cleanup for a serving member that went down instead of
  // stepping down (it truncates only when it restarts, no longer
  // serving): its records past its DLSN were never acknowledged.
  dn->pool->DiscardDirtyAfter(dn->leader->dlsn());
  dn->serving_node = member->node();
  dn->serving_epoch = member->epoch();
  dn->leader = member;
  dn->committer = dn->committers.at(member->node()).get();
  dn->gc = dn->gc_drivers.at(member->node()).get();
  // Rebuild the serving state from the new leader's replicated log: redo
  // replay reconstructs the table, RecoverState reconstructs transaction
  // state. Durably-prepared branches survive — the election up-to-date
  // rule guarantees the new leader holds every majority-acked byte — and
  // unresolved active branches are presumed aborted (their locks freed).
  std::vector<RedoRecord> recs;
  member->log()->ReadRecords(1, member->log()->current_lsn(), &recs);
  dn->catalog = std::make_unique<TableCatalog>();
  dn->catalog->CreateTable(table_id_, "sbtest", Sysbench::TableSchema(), 0);
  RedoApplier applier(dn->catalog.get());
  applier.ApplyAll(recs);
  TxnEngineOptions opts;
  opts.use_prepare_ts_filter = config_.scheme == TsScheme::kHlcSi;
  // New incarnation: ids minted by the previous engine but never logged
  // (active branches) are unrecoverable; the epoch keeps the new engine
  // from re-issuing them to unrelated branches, which would let a retried
  // 2PC RPC prepare — and then commit — the wrong writes.
  opts.id_epoch = ++dn->engine_incarnations;
  dn->engine = std::make_unique<TxnEngine>(dn->engine_id, dn->catalog.get(),
                                           dn->hlc.get(), member->log(),
                                           dn->pool.get(), opts);
  // Hook before RecoverState: the presumed-abort records it writes must
  // flow through the new serving driver like any other MTR.
  dn->engine->SetDurabilityHook([dn](Lsn end_lsn) { dn->gc->Submit(end_lsn); });
  dn->engine->RecoverState(recs);
  gms_.SetDnEndpoint(uint32_t(dn_index), member->node());
  ++stats_.leader_failovers;
}

// ---------------------------------------------------------------------------
// In-doubt recovery: resolving branches orphaned by dead coordinators
// ---------------------------------------------------------------------------

int SimCluster::FirstAliveCn() const {
  for (size_t i = 0; i < cns_.size(); ++i) {
    if (cns_[i].alive) return int(i);
  }
  return -1;
}

void SimCluster::RecoveryTick() {
  sched_->ScheduleAfter(config_.recovery_poll_us, [this] { RecoveryTick(); });
  if (recovery_in_flight_) {
    // The sweeping CN may itself have died mid-sweep; un-stick the flag so
    // another CN takes over next tick.
    if (recovery_cn_ < 0 || CnLive(recovery_cn_, recovery_cn_inc_)) return;
    recovery_in_flight_ = false;
  }
  std::vector<uint32_t> dead =
      gms_.ExpiredCoordinators(sched_->Now(), config_.coordinator_lease_us);
  if (dead.empty()) return;  // fault-free: zero cost, zero network traffic
  int cn = FirstAliveCn();
  if (cn < 0) return;
  recovery_in_flight_ = true;
  recovery_cn_ = cn;
  recovery_cn_inc_ = cns_[cn].incarnation;
  std::set<uint32_t> dead_ids(dead.begin(), dead.end());
  InDoubtResolver(cns_[cn].participants.get())
      .ResolveAsync(dead_ids, [this, dead_ids](ResolutionStats s) {
        stats_.recovery_resolved_commits += s.branches_committed;
        stats_.recovery_resolved_aborts += s.branches_aborted;
        // Only a sweep that found nothing left, with every DN answering,
        // may reap these expired incarnations — a failed listing could be
        // hiding branches.
        if (s.complete && s.branches_found == 0) {
          for (uint32_t id : dead_ids) gms_.UnregisterCoordinator(id);
        }
        recovery_in_flight_ = false;
      });
}

// ---------------------------------------------------------------------------
// Fault wiring
// ---------------------------------------------------------------------------

void SimCluster::HandleNodeCrash(NodeId node) {
  auto it = cn_of_node_.find(node);
  if (it != cn_of_node_.end()) {
    // The coordinator stops heartbeating; its lease expires and recovery
    // resolves its unfinished transactions. DN member crashes need no
    // cluster-level action here: the Paxos group re-elects underneath and
    // the failover monitor switches the serving side.
    cns_[it->second].alive = false;
    // Its transactions will never pass another commit step.
    const uint32_t coord = cns_[it->second].coord->coordinator_id();
    std::erase_if(stage_marks_, [coord](const auto& entry) {
      return (entry.first >> 32) == coord;
    });
  }
}

void SimCluster::HandleNodeRestart(NodeId node) {
  auto it = cn_of_node_.find(node);
  if (it != cn_of_node_.end()) {
    CnNode& cn = cns_[it->second];
    cn.alive = true;
    ++cn.incarnation;  // continuations from the previous life drop out
    // A restarted CN is a NEW coordinator incarnation. The old id stays
    // registered and unheartbeated — it must keep showing up as expired
    // until recovery has resolved every transaction it left behind, and
    // only recovery reaps it.
    StartCoordinator(it->second,
                     gms_.RegisterCoordinator(sched_->Now()));
    // Fresh coalescer: grants queued by the previous incarnation die with
    // the old instance (their requesters are gone).
    InstallTsoCoalescer(it->second);
    return;
  }
  auto dit = dn_of_node_.find(node);
  if (dit != dn_of_node_.end()) {
    PaxosMember* m = dns_[dit->second]->paxos->member(node);
    if (m != nullptr) m->Recover();
  }
}

}  // namespace polarx
