#include "src/txn/recovery.h"

#include <algorithm>
#include <map>
#include <set>

namespace polarx {

namespace {

using Op = ParticipantCall::Op;

/// One sweep's state, shared by its continuations.
struct Sweep {
  TxnParticipants* participants;
  std::function<void(ResolutionStats)> done;
  /// One global transaction's branches as the listings and fences found
  /// them.
  struct Global {
    uint32_t owner = 0;  // explicit decision: the commit-point engine id
    std::vector<uint32_t> participants;  // implicit commit: every engine id
    /// Participant -> its unresolved branch (ACTIVE or PREPARED).
    std::map<uint32_t, TxnInfo> branches;
    size_t fences_pending = 0;
    bool fenced = false;   // a fence recorded an abort: nothing can commit
    bool unknown = false;  // a fence failed: retried on a later sweep
    Timestamp committed_ts = kInvalidTimestamp;  // a branch is COMMITTED
  };
  std::map<GlobalTxnId, Global> globals;
  size_t pending = 0;
  ResolutionStats stats;
};
using SweepPtr = std::shared_ptr<Sweep>;

void FinishOne(const SweepPtr& sweep) {
  if (--sweep->pending == 0) sweep->done(sweep->stats);
}

/// Applies `decision` to one branch. Commit/Abort are idempotent, so a
/// branch the (revived) coordinator or an earlier sweep already resolved
/// succeeds; a failed call is retried by a later sweep.
void ResolveBranch(const SweepPtr& sweep, uint32_t participant, TxnId branch,
                   const CommitDecision& decision) {
  ParticipantCall call{decision.commit ? Op::kCommit : Op::kAbort};
  call.branch = branch;
  call.commit_ts = decision.commit_ts;
  call.resolving = true;
  sweep->participants->Call(
      participant, std::move(call),
      [sweep, commit = decision.commit](ParticipantReply r) {
        if (r.status.ok()) {
          ++(commit ? sweep->stats.branches_committed
                    : sweep->stats.branches_aborted);
        }
        FinishOne(sweep);
      });
}

/// Each global's slot in `pending` becomes one slot per branch once its
/// decision is known.
void ResolveAll(const SweepPtr& sweep, const Sweep::Global& g,
                const CommitDecision& decision) {
  ++sweep->stats.globals_resolved;
  if (g.branches.empty()) {
    FinishOne(sweep);
    return;
  }
  sweep->pending += g.branches.size() - 1;
  for (const auto& [participant, branch] : g.branches) {
    ResolveBranch(sweep, participant, branch.id, decision);
  }
}

/// Explicit decision: follow the owner's record, or win it with an abort.
void FollowDecision(const SweepPtr& sweep, GlobalTxnId gid,
                    const Sweep::Global* g) {
  ParticipantCall call{Op::kDecisionOrPresumeAbort};
  call.global_id = gid;
  call.resolving = true;
  sweep->participants->Call(g->owner, std::move(call),
                            [sweep, g](ParticipantReply r) {
    if (!r.status.ok()) {
      FinishOne(sweep);  // retried on a later sweep
      return;
    }
    ResolveAll(sweep, *g, r.decision);
  });
}

/// Implicit commit, once every fence has answered (see recovery.h).
void DecideImplicit(const SweepPtr& sweep, const Sweep::Global& g) {
  if (g.committed_ts != kInvalidTimestamp) {
    ResolveAll(sweep, g, CommitDecision{true, g.committed_ts});
    return;
  }
  if (g.fenced) {
    ResolveAll(sweep, g, CommitDecision{});
    return;
  }
  // No participant set: no prepare record was listed yet.
  bool all_prepared = !g.participants.empty();
  Timestamp commit_ts = 0;
  for (uint32_t p : g.participants) {
    auto it = g.branches.find(p);
    if (it == g.branches.end() || it->second.state != TxnState::kPrepared) {
      all_prepared = false;
      break;
    }
    commit_ts = std::max(commit_ts, it->second.prepare_ts);
  }
  if (g.unknown || !all_prepared) {
    FinishOne(sweep);  // retried on a later sweep
    return;
  }
  ResolveAll(sweep, g, CommitDecision{true, commit_ts});
}

/// Fences every participant whose branch is not listed PREPARED, then
/// decides.
void FenceUnprepared(const SweepPtr& sweep, GlobalTxnId gid,
                     Sweep::Global* g) {
  std::set<uint32_t> targets(g->participants.begin(), g->participants.end());
  for (const auto& [participant, branch] : g->branches) {
    targets.insert(participant);
  }
  std::erase_if(targets, [g](uint32_t participant) {
    auto it = g->branches.find(participant);
    return it != g->branches.end() &&
           it->second.state == TxnState::kPrepared;
  });
  if (targets.empty()) {
    DecideImplicit(sweep, *g);
    return;
  }
  g->fences_pending = targets.size();
  for (uint32_t participant : targets) {
    ParticipantCall call{Op::kFence};
    call.global_id = gid;
    call.resolving = true;
    sweep->participants->Call(participant, std::move(call),
                              [sweep, g, participant](ParticipantReply r) {
      if (!r.status.ok()) {
        g->unknown = true;
      } else if (r.info.state == TxnState::kPrepared) {
        g->branches[participant] = std::move(r.info);
      } else if (r.info.state == TxnState::kCommitted) {
        g->committed_ts = r.info.commit_ts;
        g->branches.erase(participant);
      } else {
        g->fenced = true;
      }
      if (--g->fences_pending == 0) DecideImplicit(sweep, *g);
    });
  }
}

void ResolveGlobals(const SweepPtr& sweep) {
  sweep->pending = sweep->globals.size();
  for (auto& [gid, g] : sweep->globals) {
    if (g.owner != 0) {
      FollowDecision(sweep, gid, &g);
    } else {
      FenceUnprepared(sweep, gid, &g);
    }
  }
}

}  // namespace

InDoubtResolver::InDoubtResolver(TxnParticipants* participants)
    : participants_(participants) {}

void InDoubtResolver::ResolveAsync(const std::set<uint32_t>& dead_coordinators,
                                   std::function<void(ResolutionStats)> done) {
  auto sweep = std::make_shared<Sweep>();
  sweep->participants = participants_;
  sweep->done = std::move(done);
  std::vector<uint32_t> ids = participants_->participant_ids();
  if (ids.empty()) {
    sweep->done(sweep->stats);
    return;
  }
  sweep->pending = ids.size();
  for (uint32_t participant : ids) {
    ParticipantCall call{Op::kListUnresolved};
    call.dead_coordinators = dead_coordinators;
    call.resolving = true;
    sweep->participants->Call(participant, std::move(call),
                              [sweep, participant](ParticipantReply r) {
      if (r.status.ok()) {
        for (TxnInfo& info : r.unresolved) {
          Sweep::Global& g = sweep->globals[info.global_id];
          if (info.commit_owner != 0) g.owner = info.commit_owner;
          if (!info.participants.empty()) g.participants = info.participants;
          g.branches[participant] = std::move(info);
          ++sweep->stats.branches_found;
        }
      } else {
        sweep->stats.complete = false;  // retried on a later sweep
      }
      if (--sweep->pending != 0) return;
      if (sweep->globals.empty()) {
        sweep->done(sweep->stats);
        return;
      }
      ResolveGlobals(sweep);
    });
  }
}

}  // namespace polarx
