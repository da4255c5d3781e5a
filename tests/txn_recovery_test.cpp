// Unit tests for in-doubt transaction resolution (src/txn/recovery.h): the
// participant-led recovery protocol that resolves the unresolved branches
// of dead coordinators, via the commit-point participant's decision
// registry (explicit decision) or the prepare records plus fences
// (implicit commit).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tests/txn_cluster.h"

namespace polarx {
namespace {

constexpr TableId kTable = TxnCluster::kTable;
constexpr uint32_t kDeadCoord = 5;
constexpr uint32_t kLiveCoord = 6;

GlobalTxnId Gid(uint32_t coordinator, uint64_t counter) {
  return (GlobalTxnId(coordinator) << 32) | counter;
}

/// The shared test cluster (all clocks start together and tick together),
/// plus helpers that leave global transactions in doubt.
struct MiniCluster : TxnCluster {
  using TxnCluster::TxnCluster;

  /// Drives a global transaction to the end of phase 1: one branch per
  /// engine in `participants`, each with a row written and PREPARED, commit
  /// owner = first participant's engine. Returns max prepare_ts.
  Timestamp PrepareGlobal(GlobalTxnId gid, uint32_t coordinator,
                          const std::vector<size_t>& participants,
                          std::vector<TxnId>* branches_out = nullptr) {
    Timestamp snapshot = cn_hlc.Now();
    uint32_t owner = engine(participants[0])->engine_id();
    Timestamp max_prepare = 0;
    for (size_t p : participants) {
      TxnId b = engine(p)->BeginBranch(snapshot, gid, coordinator);
      // Keys disjoint per (coordinator, counter, participant) so separate
      // globals never contend.
      int64_t key = int64_t(((gid >> 32) & 0xff) * 1000 +
                            (gid & 0xff) * 10 + p);
      EXPECT_TRUE(engine(p)->Update(b, kTable, {key, int64_t(p)}).ok());
      Result<Timestamp> pts = engine(p)->Prepare(b, owner);
      EXPECT_TRUE(pts.ok());
      if (pts.ok() && *pts > max_prepare) max_prepare = *pts;
      if (branches_out) branches_out->push_back(b);
    }
    return max_prepare;
  }

  /// Implicit commit: one branch with a row written per engine in
  /// `participants`, of which the first `prepared` are PREPARED with every
  /// participant's engine id, plus the engine ids in `unreached`, in their
  /// prepare record. The rest are still ACTIVE: their prepares are in
  /// flight. Returns max prepare_ts.
  Timestamp PrepareImplicit(GlobalTxnId gid,
                            const std::vector<size_t>& participants,
                            size_t prepared, std::vector<TxnId>* branches,
                            const std::vector<uint32_t>& unreached = {}) {
    Timestamp snapshot = cn_hlc.Now();
    std::vector<uint32_t> ids;
    for (size_t p : participants) ids.push_back(engine(p)->engine_id());
    ids.insert(ids.end(), unreached.begin(), unreached.end());
    Timestamp max_prepare = 0;
    for (size_t i = 0; i < participants.size(); ++i) {
      TxnEngine* e = engine(participants[i]);
      TxnId b = e->BeginBranch(snapshot, gid, kDeadCoord);
      EXPECT_TRUE(
          e->Update(b, kTable, {int64_t(100 + participants[i]), int64_t(i)})
              .ok());
      if (i < prepared) {
        Result<Timestamp> pts = e->Prepare(b, /*commit_owner=*/0, ids);
        EXPECT_TRUE(pts.ok());
        if (pts.ok()) max_prepare = std::max(max_prepare, *pts);
      }
      branches->push_back(b);
    }
    return max_prepare;
  }
};

TEST(InDoubtResolverTest, PresumedAbortWhenNoCommitPoint) {
  MiniCluster c(3);
  GlobalTxnId gid = Gid(kDeadCoord, 1);
  std::vector<TxnId> branches;
  c.PrepareGlobal(gid, kDeadCoord, {0, 1, 2}, &branches);

  ResolutionStats stats = c.Resolve({kDeadCoord});
  EXPECT_EQ(stats.globals_resolved, 1u);
  EXPECT_EQ(stats.branches_aborted, 3u);
  EXPECT_EQ(stats.branches_committed, 0u);

  for (size_t i = 0; i < 3; ++i) {
    Result<TxnState> st = c.engine(i)->StateOf(branches[i]);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(*st, TxnState::kAborted) << "branch " << i;
  }
  // The abort was durably recorded at the commit owner, so a slow
  // coordinator that wakes up later cannot commit what we aborted.
  Result<CommitDecision> d = c.engine(0)->DecisionOf(gid);
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->commit);
  EXPECT_TRUE(c.engine(0)->DecideCommit(gid, 12345).status().IsAborted());
}

TEST(InDoubtResolverTest, FollowsCommitPointWhenPresent) {
  MiniCluster c(2);
  GlobalTxnId gid = Gid(kDeadCoord, 1);
  std::vector<TxnId> branches;
  Timestamp max_prepare = c.PrepareGlobal(gid, kDeadCoord, {0, 1}, &branches);
  // The coordinator recorded its commit point, then died before phase 2.
  ASSERT_TRUE(c.engine(0)->DecideCommit(gid, max_prepare).ok());

  ResolutionStats stats = c.Resolve({kDeadCoord});
  EXPECT_EQ(stats.globals_resolved, 1u);
  EXPECT_EQ(stats.branches_committed, 2u);
  EXPECT_EQ(stats.branches_aborted, 0u);

  for (size_t i = 0; i < 2; ++i) {
    Result<TxnInfo> info = c.engine(i)->InfoOf(branches[i]);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->state, TxnState::kCommitted);
    EXPECT_EQ(info->commit_ts, max_prepare);
    EXPECT_GE(info->commit_ts, info->prepare_ts);
  }
}

TEST(InDoubtResolverTest, ResolveIsIdempotent) {
  MiniCluster c(2);
  c.PrepareGlobal(Gid(kDeadCoord, 1), kDeadCoord, {0, 1});
  ResolutionStats first = c.Resolve({kDeadCoord});
  EXPECT_EQ(first.globals_resolved, 1u);
  ResolutionStats second = c.Resolve({kDeadCoord});
  EXPECT_EQ(second.globals_resolved, 0u);
  EXPECT_EQ(second.branches_aborted, 0u);
  EXPECT_EQ(second.branches_committed, 0u);
}

TEST(InDoubtResolverTest, LeavesLiveCoordinatorsBranchesAlone) {
  MiniCluster c(2);
  std::vector<TxnId> dead_branches, live_branches;
  c.PrepareGlobal(Gid(kDeadCoord, 1), kDeadCoord, {0, 1}, &dead_branches);
  c.PrepareGlobal(Gid(kLiveCoord, 1), kLiveCoord, {0, 1}, &live_branches);

  ResolutionStats stats = c.Resolve({kDeadCoord});
  EXPECT_EQ(stats.globals_resolved, 1u);

  for (size_t i = 0; i < 2; ++i) {
    Result<TxnState> st = c.engine(i)->StateOf(live_branches[i]);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(*st, TxnState::kPrepared)
        << "live coordinator's branch " << i << " must stay untouched";
  }
}

TEST(InDoubtResolverTest, AbortReleasesLocksForNewWriters) {
  MiniCluster c(1);
  GlobalTxnId gid = Gid(kDeadCoord, 1);
  Timestamp snapshot = c.cn_hlc.Now();
  TxnId b = c.engine(0)->BeginBranch(snapshot, gid, kDeadCoord);
  ASSERT_TRUE(c.engine(0)->Update(b, kTable, {int64_t{7}, int64_t{1}}).ok());
  ASSERT_TRUE(c.engine(0)->Prepare(b, 1).ok());

  // The prepared branch holds a write intent on key 7: a new writer
  // conflicts against it.
  c.TickAll(10);
  TxnId w1 = c.engine(0)->Begin();
  EXPECT_FALSE(c.engine(0)->Update(w1, kTable, {int64_t{7}, int64_t{2}}).ok());
  ASSERT_TRUE(c.engine(0)->Abort(w1).ok());

  ResolutionStats stats = c.Resolve({kDeadCoord});
  EXPECT_EQ(stats.branches_aborted, 1u);

  // Resolution released the intent: the key is writable again.
  c.TickAll(10);
  TxnId w2 = c.engine(0)->Begin();
  EXPECT_TRUE(c.engine(0)->Update(w2, kTable, {int64_t{7}, int64_t{3}}).ok());
  EXPECT_TRUE(c.engine(0)->CommitLocal(w2).ok());
}

TEST(InDoubtResolverTest, AbortsActiveBranchHoldingRowLock) {
  // The coordinator died before prepare: its ACTIVE branch holds a write
  // intent that no coordinator will ever release.
  MiniCluster c(2);
  GlobalTxnId gid = Gid(kDeadCoord, 1);
  TxnId b = c.engine(0)->BeginBranch(c.cn_hlc.Now(), gid, kDeadCoord);
  ASSERT_TRUE(c.engine(0)->Update(b, kTable, {int64_t{7}, int64_t{1}}).ok());

  c.TickAll(10);
  TxnId w1 = c.engine(0)->Begin();
  EXPECT_FALSE(c.engine(0)->Update(w1, kTable, {int64_t{7}, int64_t{2}}).ok());
  ASSERT_TRUE(c.engine(0)->Abort(w1).ok());

  ResolutionStats stats = c.Resolve({kDeadCoord});
  EXPECT_EQ(stats.branches_found, 1u);
  EXPECT_EQ(stats.branches_aborted, 1u);
  Result<TxnState> st = c.engine(0)->StateOf(b);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(*st, TxnState::kAborted);

  c.TickAll(10);
  TxnId w2 = c.engine(0)->Begin();
  EXPECT_TRUE(c.engine(0)->Update(w2, kTable, {int64_t{7}, int64_t{3}}).ok());
  EXPECT_TRUE(c.engine(0)->CommitLocal(w2).ok());
}

TEST(InDoubtResolverTest, UnpreparedGlobalIsFencedThenAborted) {
  // No branch is prepared, so nothing can have committed yet: the resolver
  // fences every branch with an abort decision, so a prepare still in
  // flight is refused, then aborts them.
  MiniCluster c(2);
  GlobalTxnId gid = Gid(kDeadCoord, 1);
  Timestamp snapshot = c.cn_hlc.Now();
  std::vector<TxnId> branches;
  for (size_t i = 0; i < 2; ++i) {
    TxnId b = c.engine(i)->BeginBranch(snapshot, gid, kDeadCoord);
    ASSERT_TRUE(
        c.engine(i)->Update(b, kTable, {int64_t(10 + i), int64_t(i)}).ok());
    branches.push_back(b);
  }

  ResolutionStats stats = c.Resolve({kDeadCoord});
  EXPECT_EQ(stats.globals_resolved, 1u);
  EXPECT_EQ(stats.branches_aborted, 2u);
  for (size_t i = 0; i < 2; ++i) {
    Result<TxnState> st = c.engine(i)->StateOf(branches[i]);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(*st, TxnState::kAborted) << "branch " << i;
    Result<CommitDecision> fence = c.engine(i)->DecisionOf(gid);
    ASSERT_TRUE(fence.ok()) << "engine " << i << " was not fenced";
    EXPECT_FALSE(fence->commit);
  }
}

TEST(InDoubtResolverTest, ImplicitCommitWhenEveryParticipantPrepared) {
  // HLC-SI: every prepare record names all participants, and all are
  // PREPARED, so the transaction is committed at max(prepare_ts) without
  // any decision record.
  MiniCluster c(3);
  GlobalTxnId gid = Gid(kDeadCoord, 1);
  std::vector<TxnId> branches;
  Timestamp max_prepare = c.PrepareImplicit(gid, {0, 1, 2}, 3, &branches);

  ResolutionStats stats = c.Resolve({kDeadCoord});
  EXPECT_EQ(stats.globals_resolved, 1u);
  EXPECT_EQ(stats.branches_committed, 3u);
  for (size_t i = 0; i < 3; ++i) {
    Result<TxnInfo> info = c.engine(i)->InfoOf(branches[i]);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->state, TxnState::kCommitted) << "branch " << i;
    EXPECT_EQ(info->commit_ts, max_prepare) << "branch " << i;
    EXPECT_TRUE(c.engine(i)->DecisionOf(gid).status().IsNotFound())
        << "engine " << i;
  }
}

TEST(InDoubtResolverTest, FencesBranchWhosePrepareIsInFlight) {
  // Participants 1-3: engine 1 PREPARED, engine 2's branch ACTIVE (its
  // prepare is in flight), engine 3 has no branch yet (its statement is in
  // flight). The resolver must not commit: it fences engines 2 and 3, then
  // aborts. The late prepares are refused, so the transaction can never
  // reach "all prepared".
  MiniCluster c(3);
  GlobalTxnId gid = Gid(kDeadCoord, 1);
  std::vector<TxnId> branches;
  c.PrepareImplicit(gid, {0, 1}, 1, &branches, /*unreached=*/{3});
  ResolutionStats stats = c.Resolve({kDeadCoord});
  EXPECT_EQ(stats.branches_found, 2u);
  EXPECT_EQ(stats.branches_aborted, 2u);
  EXPECT_EQ(stats.branches_committed, 0u);
  for (size_t i = 0; i < 2; ++i) {
    Result<TxnState> st = c.engine(i)->StateOf(branches[i]);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(*st, TxnState::kAborted) << "branch " << i;
  }
  // The in-flight messages arrive after the fences: engine 2's prepare is
  // refused, and so is a branch engine 3 starts only now.
  EXPECT_TRUE(
      c.engine(1)->Prepare(branches[1], 0, {1, 2, 3}).status().IsAborted());
  TxnId late = c.engine(2)->BeginBranch(c.cn_hlc.Now(), gid, kDeadCoord);
  ASSERT_TRUE(c.engine(2)->Update(late, kTable, {int64_t{102}, int64_t{2}})
                  .ok());
  EXPECT_TRUE(
      c.engine(2)->Prepare(late, 0, {1, 2, 3}).status().IsAborted());
  EXPECT_TRUE(c.engine(2)->CommitLocal(late).status().IsAborted());
}

TEST(InDoubtResolverTest, CommittedVacuumedBranchIsNeverFenced) {
  // Both branches were PREPARED and the dead coordinator's phase 2
  // committed engine 1's before it died; Vacuum then forgot that branch.
  // The resolver must read it as committed, not missing: fencing it would
  // abort engine 2's branch of a committed transaction.
  MiniCluster c(2);
  GlobalTxnId gid = Gid(kDeadCoord, 1);
  std::vector<TxnId> branches;
  Timestamp commit_ts = c.PrepareImplicit(gid, {0, 1}, 2, &branches);
  ASSERT_TRUE(c.engine(0)->Commit(branches[0], commit_ts).ok());
  c.TickAll(1000);
  c.engine(0)->Vacuum(c.engine(0)->hlc()->Now());
  ASSERT_TRUE(c.engine(0)->StateOf(branches[0]).status().IsNotFound());

  ResolutionStats stats = c.Resolve({kDeadCoord});
  EXPECT_EQ(stats.branches_found, 1u);
  EXPECT_EQ(stats.branches_committed, 1u);
  EXPECT_EQ(stats.branches_aborted, 0u);
  Result<TxnInfo> info = c.engine(1)->InfoOf(branches[1]);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, TxnState::kCommitted);
  EXPECT_EQ(info->commit_ts, commit_ts);
  Result<CommitDecision> recorded = c.engine(0)->DecisionOf(gid);
  ASSERT_TRUE(recorded.ok());
  EXPECT_TRUE(recorded->commit) << "the committed branch was fenced";
}

/// The cluster's inline transport, except that one participant's listing
/// fails (an unreachable DN).
class FailingListing : public TxnParticipants {
 public:
  FailingListing(TxnParticipants* inner, uint32_t unreachable)
      : inner_(inner), unreachable_(unreachable) {}
  std::vector<uint32_t> participant_ids() const override {
    return inner_->participant_ids();
  }
  void Call(uint32_t participant, ParticipantCall call,
            ReplyFn done) override {
    if (participant == unreachable_ &&
        call.op == ParticipantCall::Op::kListUnresolved) {
      done(ParticipantReply{Status::Unavailable("dn unreachable")});
      return;
    }
    inner_->Call(participant, std::move(call), std::move(done));
  }
  void FetchTso(ReplyFn done) override { inner_->FetchTso(std::move(done)); }

 private:
  TxnParticipants* inner_;
  uint32_t unreachable_;
};

TEST(InDoubtResolverTest, FailedListingReportsIncompleteSweep) {
  MiniCluster c(2);
  GlobalTxnId gid = Gid(kDeadCoord, 1);
  std::vector<TxnId> branches;
  c.PrepareGlobal(gid, kDeadCoord, {0, 1}, &branches);

  // Engine 2's listing fails: the sweep still resolves what it saw, but
  // reports itself incomplete, so the dead coordinator must not be reaped.
  FailingListing flaky(&c.transport, c.engine(1)->engine_id());
  ResolutionStats first = c.Resolve({kDeadCoord}, &flaky);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.branches_found, 1u);
  EXPECT_EQ(first.branches_aborted, 1u);
  Result<TxnState> hidden = c.engine(1)->StateOf(branches[1]);
  ASSERT_TRUE(hidden.ok());
  EXPECT_EQ(*hidden, TxnState::kPrepared) << "unlisted branch was touched";

  // A later complete sweep finds the hidden branch and follows the abort
  // decision the first sweep recorded.
  ResolutionStats second = c.Resolve({kDeadCoord});
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.branches_found, 1u);
  EXPECT_EQ(second.branches_aborted, 1u);
  Result<TxnState> st = c.engine(1)->StateOf(branches[1]);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(*st, TxnState::kAborted);

  // Nothing left: a complete sweep that finds nothing is what lets the
  // caller forget the dead coordinator.
  ResolutionStats third = c.Resolve({kDeadCoord});
  EXPECT_TRUE(third.complete);
  EXPECT_EQ(third.branches_found, 0u);
}

TEST(DecisionRegistryTest, FirstWriterWinsBothDirections) {
  MiniCluster c(1);
  // Abort first: later commit attempt is rejected, repeat aborts are ok.
  GlobalTxnId g1 = Gid(kDeadCoord, 1);
  ASSERT_TRUE(c.engine(0)->DecideAbort(g1).ok());
  EXPECT_TRUE(c.engine(0)->DecideCommit(g1, 100).status().IsAborted());
  EXPECT_TRUE(c.engine(0)->DecideAbort(g1).ok());

  // Commit first: later abort attempt gets Conflict and must follow the
  // recorded commit decision.
  GlobalTxnId g2 = Gid(kDeadCoord, 2);
  ASSERT_TRUE(c.engine(0)->DecideCommit(g2, 200).ok());
  EXPECT_TRUE(c.engine(0)->DecideAbort(g2).IsConflict());
  Result<CommitDecision> d = c.engine(0)->DecisionOf(g2);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->commit);
  EXPECT_EQ(d->commit_ts, 200u);
}

}  // namespace
}  // namespace polarx
