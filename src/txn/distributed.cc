#include "src/txn/distributed.h"

#include <algorithm>
#include <utility>

namespace polarx {

namespace {
using Op = ParticipantCall::Op;
}  // namespace

// ---------------------------------------------------------------------------
// Participant side
// ---------------------------------------------------------------------------

ParticipantReply ServeParticipantCall(TxnEngine* engine,
                                      const ParticipantCall& call) {
  ParticipantReply r;
  switch (call.op) {
    case Op::kStatement: {
      // Its reply never waits for durability: the branch's writes become
      // durable with its prepare or one-phase commit.
      r.branch = call.branch;
      if (r.branch == kInvalidTxnId) {
        // The first statement on this participant starts the branch;
        // shipping snapshot_ts performs ClockUpdate on the DN (§IV step 3).
        // A retried first statement finds its branch through BeginBranch's
        // dedup.
        if (call.clock_update) engine->hlc()->Update(call.snapshot_ts);
        r.branch = engine->BeginBranch(call.snapshot_ts, call.global_id,
                                       call.coordinator);
      } else {
        // The coordinator already holds acked writes on this branch. If a
        // failover lost it (recovery presumed it aborted), those writes are
        // gone: the transaction must abort, never silently restart on a
        // fresh branch with half its writes missing.
        Result<TxnId> current = engine->BranchOf(call.global_id);
        if (!current.ok() || *current != r.branch) {
          return ParticipantReply{
              Status::Aborted("branch lost in dn failover")};
        }
      }
      const Statement& st = call.statement;
      switch (st.kind) {
        case Statement::Kind::kRead:
          r.status =
              engine->Read(r.branch, st.table, st.key, &r.row, &r.blocker);
          break;
        case Statement::Kind::kScan:
          r.status = engine->ScanVisible(
              r.branch, st.table, st.key, st.end,
              [](const EncodedKey&, const Row&) { return true; });
          if (r.status.IsBusy()) r.status = Status::Ok();  // skip blocked rows
          break;
        case Statement::Kind::kInsert:
          r.status = engine->Insert(r.branch, st.table, st.row);
          break;
        case Statement::Kind::kUpdate:
          r.status = engine->Update(r.branch, st.table, st.row);
          break;
        case Statement::Kind::kDelete:
          r.status = engine->Delete(r.branch, st.table, st.key);
          break;
      }
      return r;
    }
    case Op::kPrepare: {
      // Idempotent: re-preparing a PREPARED branch returns its prepare_ts.
      // A branch lost to a failover fails here (recovery presumed it
      // aborted) and the transaction aborts.
      Result<Timestamp> prep =
          engine->Prepare(call.branch, call.commit_owner, call.participants);
      r.status = prep.status();
      if (prep.ok()) r.ts = *prep;
      break;
    }
    case Op::kCommitOnePhase: {
      Result<Timestamp> committed = engine->CommitLocal(call.branch);
      r.status = committed.status();
      if (committed.ok()) r.ts = *committed;
      break;
    }
    case Op::kDecideCommit: {
      // Commit point: first-writer-wins against an in-doubt resolver that
      // presumed the coordinator dead. Aborted means the resolver won.
      Result<Timestamp> decided =
          engine->DecideCommit(call.global_id, call.commit_ts);
      r.status = decided.status();
      if (decided.ok()) r.ts = *decided;
      break;
    }
    case Op::kCommit:
      r.status = engine->Commit(call.branch, call.commit_ts);  // idempotent
      break;
    case Op::kAbort:
      r.status = engine->Abort(call.branch);  // idempotent
      // The branch died unprepared with a failed-over leader: nothing
      // durable to undo.
      if (r.status.IsNotFound()) return ParticipantReply{};
      break;
    case Op::kListUnresolved:
      // Unresolved branches of the dead coordinator incarnations: prepared
      // ones are in doubt, active ones hold row locks that their (dead)
      // coordinator will never release.
      for (TxnInfo& info : engine->TxnsSnapshot()) {
        if (info.global_id == kInvalidGlobalTxnId) continue;
        if (info.state != TxnState::kActive &&
            info.state != TxnState::kPrepared) {
          continue;
        }
        if (call.dead_coordinators.count(info.coordinator) == 0) continue;
        r.unresolved.push_back(std::move(info));
      }
      break;  // answered once durable: a lost prepare must never be listed
    case Op::kDecisionOrPresumeAbort: {
      // Follow an existing decision, else durably record presumed-abort
      // BEFORE any branch is touched — if the "dead" coordinator is merely
      // partitioned and races us with DecideCommit, exactly one side wins
      // the registry and the other follows.
      Result<CommitDecision> existing = engine->DecisionOf(call.global_id);
      if (existing.ok()) {
        r.decision = *existing;
        break;
      }
      r.status = engine->DecideAbort(call.global_id);
      if (r.status.IsConflict()) {
        // Lost the race to a concurrent DecideCommit: follow it.
        Result<CommitDecision> won = engine->DecisionOf(call.global_id);
        r.status = won.status();
        if (won.ok()) r.decision = *won;
      }
      break;  // r.decision defaults to abort
    }
    case Op::kFence: {
      Result<TxnInfo> branch = engine->FenceUnprepared(call.global_id);
      r.status = branch.status();
      if (branch.ok()) r.info = std::move(*branch);
      break;
    }
  }
  // Whatever an Ok answer reports or records must survive a leader crash:
  // the caller acts on it (a resolver commits on "every branch prepared").
  r.await_durable = r.status.ok();
  return r;
}

// ---------------------------------------------------------------------------
// Coordinator: the 2PC state machine
// ---------------------------------------------------------------------------

/// One CommitAsync/AbortAsync in flight, shared by its continuations.
struct TxnCoordinator::Run {
  Run(DistributedTxn* t, std::function<void(Status)> d)
      : txn(t), done(std::move(d)), global_id(t->global_id_) {}
  /// The caller's transaction, until the commit is acknowledged: the
  /// caller may destroy it then, so phase 2 runs on `branches` and
  /// `commit_ts` below instead.
  DistributedTxn* txn;
  std::function<void(Status)> done;
  const GlobalTxnId global_id;
  uint32_t owner = 0;  // TSO-SI commit owner: where the decision is durable
  size_t pending = 0;  // replies outstanding in the current fan-out
  bool stopped = false;  // the step hook stopped the coordinator mid-fan-out
  size_t commit_acks = 0;
  Timestamp max_prepare_ts = 0;
  Status failure;  // first failure, reported by `done`
  std::map<uint32_t, TxnId> branches;  // phase 2's copy
  Timestamp commit_ts = 0;
};

TxnCoordinator::TxnCoordinator(TxnParticipants* participants,
                               TsScheme scheme, Hlc* cn_hlc,
                               uint32_t coordinator_id)
    : participants_(participants),
      scheme_(scheme),
      cn_hlc_(cn_hlc),
      coordinator_id_(coordinator_id) {}

DistributedTxn TxnCoordinator::NewTxn() {
  DistributedTxn txn;
  txn.global_id_ = (static_cast<GlobalTxnId>(coordinator_id_) << 32) |
                   next_global_++;
  return txn;
}

void TxnCoordinator::FetchTso(ReplyFn done) {
  ++stats_.tso_calls;
  participants_->FetchTso(std::move(done));
}

void TxnCoordinator::AcquireSnapshot(DistributedTxn* txn,
                                     std::function<void(Status)> done) {
  if (scheme_ == TsScheme::kTsoSi) {
    FetchTso([txn, done](ParticipantReply r) {
      if (r.status.ok()) txn->snapshot_ts_ = r.ts;
      done(r.status);
    });
    return;
  }
  txn->snapshot_ts_ = cn_hlc_->Now();  // §IV step 1: ClockNow, no network
  done(Status::Ok());
}

void TxnCoordinator::ExecuteAsync(DistributedTxn* txn, uint32_t participant,
                                  Statement statement, ReplyFn done) {
  ParticipantCall call{Op::kStatement};
  call.statement = std::move(statement);
  call.global_id = txn->global_id_;
  call.coordinator = coordinator_id_;
  call.snapshot_ts = txn->snapshot_ts_;
  call.clock_update = scheme_ == TsScheme::kHlcSi;
  auto known = txn->branches_.find(participant);
  if (known != txn->branches_.end()) call.branch = known->second;
  participants_->Call(participant, std::move(call),
                      [txn, participant,
                       done = std::move(done)](ParticipantReply r) {
    if (r.branch != kInvalidTxnId) txn->branches_[participant] = r.branch;
    done(std::move(r));
  });
}

void TxnCoordinator::CommitAsync(DistributedTxn* txn,
                                 std::function<void(Status)> done) {
  if (txn->resolved_) {
    done(Status::InvalidArgument("txn already resolved"));
    return;
  }
  if (txn->branches_.empty()) {
    txn->resolved_ = true;
    ++stats_.committed;
    done(Status::Ok());
    return;
  }
  if (!Step(CommitStep::kBeforePrepare, txn->global_id_)) return;
  PrepareBranches(std::make_shared<Run>(txn, std::move(done)));
}

void TxnCoordinator::AbortAsync(DistributedTxn* txn,
                                std::function<void(Status)> done) {
  if (txn->resolved_) {
    done(Status::InvalidArgument("txn already resolved"));
    return;
  }
  AbortBranches(std::make_shared<Run>(txn, std::move(done)));
}

void TxnCoordinator::PrepareBranches(RunPtr run) {
  const std::map<uint32_t, TxnId>& branches = run->txn->branches_;
  if (scheme_ == TsScheme::kHlcSi && branches.size() == 1) {
    CommitOnePhase(std::move(run));
    return;
  }
  // Phase 1: prepare every branch. Under HLC-SI each prepare record names
  // every participant, so once all are PREPARED the records themselves fix
  // the outcome and commit_ts. Under TSO-SI one branch's DN doubles as the
  // commit-point participant ("commit owner"), whose decision registry is
  // where the outcome becomes durable: the first branch served from this
  // coordinator's own datacenter, so the decide round trip stays local;
  // else the first branch.
  ParticipantCall prepare{Op::kPrepare};
  if (scheme_ == TsScheme::kHlcSi) {
    for (const auto& [participant, branch] : branches) {
      prepare.participants.push_back(participant);
    }
  } else {
    run->owner = branches.begin()->first;
    for (const auto& [participant, branch] : branches) {
      if (participants_->IsLocal(participant)) {
        run->owner = participant;
        break;
      }
    }
    prepare.commit_owner = run->owner;
  }
  run->pending = branches.size();
  for (const auto& [participant, branch] : branches) {
    if (run->stopped) return;  // a dead coordinator sends nothing more
    ParticipantCall call = prepare;
    call.branch = branch;
    participants_->Call(participant, std::move(call),
                        [this, run](ParticipantReply r) {
      if (run->stopped) return;
      const bool last = --run->pending == 0;
      if (r.status.ok()) {
        // The first ACK of several opens the window in which the outcome
        // depends on prepares still in flight.
        if (!run->txn->prepare_started_ && !last &&
            !Step(CommitStep::kSomePrepared, run->global_id)) {
          run->stopped = true;
          return;
        }
        run->txn->prepare_started_ = true;
        run->max_prepare_ts = std::max(run->max_prepare_ts, r.ts);
      } else if (run->failure.ok()) {
        run->failure = r.status;
      }
      if (!last) return;
      if (!run->failure.ok()) {
        AbortBranches(run);
        return;
      }
      if (!Step(CommitStep::kAllPrepared, run->global_id)) return;
      if (scheme_ == TsScheme::kHlcSi) {
        // §IV step 5: commit_ts = max(prepare_ts); the coordinator updates
        // its clock ONCE with the max instead of per-participant
        // (optimization 2). Every prepare record is durable, so this is the
        // commit point: acknowledge, then commit the branches.
        cn_hlc_->Update(run->max_prepare_ts);
        Acknowledge(run, run->max_prepare_ts);
        CommitBranches(run);
        return;
      }
      // TSO-SI: one more timestamp fetch. The branches are prepared but no
      // decision exists yet, so a TSO outage here still aborts cleanly.
      FetchTso([this, run](ParticipantReply t) {
        if (!t.status.ok()) {
          run->failure = t.status;
          AbortBranches(run);
          return;
        }
        run->txn->commit_ts_ = t.ts;
        Decide(run);
      });
    });
  }
}

void TxnCoordinator::CommitOnePhase(RunPtr run) {
  // One branch: its DN prepares and commits in one MTR, and that commit
  // record is the decision. No phase 2 follows.
  const auto& [participant, branch] = *run->txn->branches_.begin();
  ParticipantCall call{Op::kCommitOnePhase};
  call.branch = branch;
  participants_->Call(participant, std::move(call),
                      [this, run](ParticipantReply r) {
    if (!r.status.ok()) {
      // Refused, lost, or unknown: aborting is safe either way, since the
      // engine never aborts a committed branch (that abort is reported).
      run->failure = r.status;
      AbortBranches(run);
      return;
    }
    cn_hlc_->Update(r.ts);
    if (!Step(CommitStep::kAllPrepared, run->global_id)) return;
    run->txn->one_phase_ = true;
    Acknowledge(run, r.ts);
  });
}

void TxnCoordinator::Acknowledge(const RunPtr& run, Timestamp commit_ts) {
  run->txn->commit_ts_ = commit_ts;
  run->branches = run->txn->branches_;
  run->commit_ts = commit_ts;
  run->txn->resolved_ = true;
  run->txn = nullptr;
  ++stats_.committed;
  std::exchange(run->done, nullptr)(Status::Ok());
}

void TxnCoordinator::Decide(RunPtr run) {
  // TSO-SI commit point: durably record the decision at the owner before
  // any branch commits.
  ParticipantCall call{Op::kDecideCommit};
  call.global_id = run->global_id;
  call.commit_ts = run->txn->commit_ts_;
  participants_->Call(run->owner, std::move(call),
                      [this, run](ParticipantReply r) {
    if (r.status.ok()) {
      run->txn->commit_ts_ = r.ts;
      if (!Step(CommitStep::kDecided, run->global_id)) return;
      // The outcome is durable and can no longer change: acknowledge now,
      // then run phase 2 off the caller's path.
      Acknowledge(run, r.ts);
      CommitBranches(run);
      return;
    }
    run->failure = r.status;
    if (r.status.IsAborted()) {
      // An in-doubt resolver presumed us dead and won the commit point with
      // an abort decision; follow it.
      AbortBranches(run);
      return;
    }
    // Outcome unknown and the transport gave up: the decision may be
    // durable at the owner, so aborting could split the transaction. Leave
    // it in doubt for the resolver.
    run->txn->resolved_ = true;
    run->done(r.status);
  });
}

void TxnCoordinator::CommitBranches(RunPtr run) {
  // Phase 2, after the acknowledgement: the decision is durable, so every
  // branch must commit. A failed commit cannot be reported any more; the
  // transport re-drives it, and the in-doubt resolver finishes what a dead
  // coordinator left, so it is only counted.
  run->pending = run->branches.size();
  for (const auto& [participant, branch] : run->branches) {
    ParticipantCall call{Op::kCommit};
    call.branch = branch;
    call.commit_ts = run->commit_ts;
    participants_->Call(participant, std::move(call),
                        [this, run](ParticipantReply r) {
      if (!r.status.ok()) {
        ++stats_.commit_failures_after_ack;
      } else if (++run->commit_acks == 1 &&
                 !Step(CommitStep::kFirstCommitAcked, run->global_id)) {
        return;
      }
      if (--run->pending == 0) Step(CommitStep::kPhaseTwoDone, run->global_id);
    });
  }
}

void TxnCoordinator::AbortBranches(RunPtr run) {
  // Presumed abort: no commit decision was (or can any longer be) written
  // for this transaction, so every branch is aborted.
  auto finish = [this, run] {
    run->txn->resolved_ = true;
    ++stats_.aborted;
    if (run->txn->prepare_started_) {
      ++stats_.aborts_after_prepare;
    } else {
      ++stats_.aborts_before_prepare;
    }
    run->done(run->failure);
  };
  if (run->txn->branches_.empty()) {
    finish();
    return;
  }
  run->pending = run->txn->branches_.size();
  for (const auto& [participant, branch] : run->txn->branches_) {
    ParticipantCall call{Op::kAbort};
    call.branch = branch;
    participants_->Call(participant, std::move(call),
                        [run, finish](ParticipantReply r) {
      // Aborting a COMMITTED branch is refused by the engine: some branch
      // already applied a commit decision, so "aborting" the rest would
      // tear the transaction. Surface it instead of swallowing it — the
      // caller is reporting an abort that did not fully happen.
      if (r.status.code() == StatusCode::kInvalidArgument &&
          run->failure.ok()) {
        run->failure = r.status;
      }
      if (--run->pending == 0) finish();
    });
  }
}

}  // namespace polarx
