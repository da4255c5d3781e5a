#include "src/txn/recovery.h"

#include <map>

namespace polarx {

namespace {

using Op = ParticipantCall::Op;

/// One sweep's state, shared by its continuations.
struct Sweep {
  TxnParticipants* participants;
  std::function<void(ResolutionStats)> done;
  /// One global transaction's branches as the listings found them.
  struct Global {
    uint32_t owner = 0;  // commit-point engine id (0: never prepared)
    std::map<uint32_t, TxnId> branches;  // participant -> branch
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
  sweep->pending += g.branches.size() - 1;
  for (const auto& [participant, branch] : g.branches) {
    ResolveBranch(sweep, participant, branch, decision);
  }
}

void ResolveGlobals(const SweepPtr& sweep) {
  sweep->pending = sweep->globals.size();
  for (const auto& [gid, g] : sweep->globals) {
    if (g.owner == 0) {
      ResolveAll(sweep, g, CommitDecision{});  // never prepared: abort
      continue;
    }
    ParticipantCall call{Op::kDecisionOrPresumeAbort};
    call.global_id = gid;
    call.resolving = true;
    const Sweep::Global* global = &g;
    sweep->participants->Call(g.owner, std::move(call),
                              [sweep, global](ParticipantReply r) {
      if (!r.status.ok()) {
        FinishOne(sweep);  // retried on a later sweep
        return;
      }
      ResolveAll(sweep, *global, r.decision);
    });
  }
}

}  // namespace

InDoubtResolver::InDoubtResolver(std::vector<TxnEngine*> engines)
    : local_(std::make_unique<LocalParticipants>(nullptr, engines)),
      participants_(local_.get()) {}

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
        for (const TxnInfo& info : r.unresolved) {
          Sweep::Global& g = sweep->globals[info.global_id];
          if (info.commit_owner != 0) g.owner = info.commit_owner;
          g.branches[participant] = info.id;
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

ResolutionStats InDoubtResolver::Resolve(
    const std::set<uint32_t>& dead_coordinators) {
  ResolutionStats stats;
  ResolveAsync(dead_coordinators,
               [&stats](ResolutionStats s) { stats = s; });
  return stats;
}

}  // namespace polarx
