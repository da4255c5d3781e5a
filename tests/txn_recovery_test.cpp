// Unit tests for in-doubt transaction resolution (src/txn/recovery.h): the
// participant-led recovery protocol that resolves the unresolved branches
// of dead coordinators, via the commit-point participant's decision
// registry.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/clock/hlc.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/key_codec.h"
#include "src/txn/engine.h"
#include "src/txn/recovery.h"

namespace polarx {
namespace {

constexpr TableId kTable = 1;
constexpr uint32_t kDeadCoord = 5;
constexpr uint32_t kLiveCoord = 6;

GlobalTxnId Gid(uint32_t coordinator, uint64_t counter) {
  return (GlobalTxnId(coordinator) << 32) | counter;
}

/// N shard engines sharing a wall clock, plus a CN clock for snapshots.
struct MiniCluster {
  uint64_t now_ms = 1000;
  Hlc cn_hlc;
  struct Shard {
    TableCatalog catalog;
    std::unique_ptr<Hlc> hlc;
    RedoLog log;
    CountingPageStore store;
    std::unique_ptr<BufferPool> pool;
    std::unique_ptr<TxnEngine> engine;
  };
  std::vector<std::unique_ptr<Shard>> shards;

  explicit MiniCluster(size_t n) : cn_hlc([this] { return now_ms; }) {
    for (size_t i = 0; i < n; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->hlc = std::make_unique<Hlc>([this] { return now_ms; });
      shard->pool = std::make_unique<BufferPool>(&shard->store);
      shard->engine = std::make_unique<TxnEngine>(
          static_cast<uint32_t>(i + 1), &shard->catalog, shard->hlc.get(),
          &shard->log, shard->pool.get());
      Schema schema({{"id", ValueType::kInt64, false},
                     {"val", ValueType::kInt64, false}},
                    {0});
      shard->catalog.CreateTable(kTable, "t", schema, 0);
      shards.push_back(std::move(shard));
    }
  }

  TxnEngine* engine(size_t i) { return shards[i]->engine.get(); }

  std::vector<TxnEngine*> engines() {
    std::vector<TxnEngine*> out;
    for (auto& s : shards) out.push_back(s->engine.get());
    return out;
  }

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
      EXPECT_TRUE(engine(p)->Upsert(b, kTable, {key, int64_t(p)}).ok());
      Result<Timestamp> pts = engine(p)->Prepare(b, owner);
      EXPECT_TRUE(pts.ok());
      if (pts.ok() && *pts > max_prepare) max_prepare = *pts;
      if (branches_out) branches_out->push_back(b);
    }
    return max_prepare;
  }
};

TEST(InDoubtResolverTest, PresumedAbortWhenNoCommitPoint) {
  MiniCluster c(3);
  GlobalTxnId gid = Gid(kDeadCoord, 1);
  std::vector<TxnId> branches;
  c.PrepareGlobal(gid, kDeadCoord, {0, 1, 2}, &branches);

  InDoubtResolver resolver(c.engines());
  ResolutionStats stats = resolver.Resolve({kDeadCoord});
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

  InDoubtResolver resolver(c.engines());
  ResolutionStats stats = resolver.Resolve({kDeadCoord});
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
  InDoubtResolver resolver(c.engines());
  ResolutionStats first = resolver.Resolve({kDeadCoord});
  EXPECT_EQ(first.globals_resolved, 1u);
  ResolutionStats second = resolver.Resolve({kDeadCoord});
  EXPECT_EQ(second.globals_resolved, 0u);
  EXPECT_EQ(second.branches_aborted, 0u);
  EXPECT_EQ(second.branches_committed, 0u);
}

TEST(InDoubtResolverTest, LeavesLiveCoordinatorsBranchesAlone) {
  MiniCluster c(2);
  std::vector<TxnId> dead_branches, live_branches;
  c.PrepareGlobal(Gid(kDeadCoord, 1), kDeadCoord, {0, 1}, &dead_branches);
  c.PrepareGlobal(Gid(kLiveCoord, 1), kLiveCoord, {0, 1}, &live_branches);

  InDoubtResolver resolver(c.engines());
  ResolutionStats stats = resolver.Resolve({kDeadCoord});
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
  ASSERT_TRUE(c.engine(0)->Upsert(b, kTable, {int64_t{7}, int64_t{1}}).ok());
  ASSERT_TRUE(c.engine(0)->Prepare(b, 1).ok());

  // The prepared branch holds a write intent on key 7: a new writer
  // conflicts against it.
  c.now_ms += 10;
  TxnId w1 = c.engine(0)->Begin();
  EXPECT_FALSE(c.engine(0)->Upsert(w1, kTable, {int64_t{7}, int64_t{2}}).ok());
  ASSERT_TRUE(c.engine(0)->Abort(w1).ok());

  InDoubtResolver resolver(c.engines());
  ResolutionStats stats = resolver.Resolve({kDeadCoord});
  EXPECT_EQ(stats.branches_aborted, 1u);

  // Resolution released the intent: the key is writable again.
  c.now_ms += 10;
  TxnId w2 = c.engine(0)->Begin();
  EXPECT_TRUE(c.engine(0)->Upsert(w2, kTable, {int64_t{7}, int64_t{3}}).ok());
  EXPECT_TRUE(c.engine(0)->CommitLocal(w2).ok());
}

TEST(InDoubtResolverTest, AbortsActiveBranchHoldingRowLock) {
  // The coordinator died before prepare: its ACTIVE branch holds a write
  // intent that no coordinator will ever release.
  MiniCluster c(2);
  GlobalTxnId gid = Gid(kDeadCoord, 1);
  TxnId b = c.engine(0)->BeginBranch(c.cn_hlc.Now(), gid, kDeadCoord);
  ASSERT_TRUE(c.engine(0)->Upsert(b, kTable, {int64_t{7}, int64_t{1}}).ok());

  c.now_ms += 10;
  TxnId w1 = c.engine(0)->Begin();
  EXPECT_FALSE(c.engine(0)->Upsert(w1, kTable, {int64_t{7}, int64_t{2}}).ok());
  ASSERT_TRUE(c.engine(0)->Abort(w1).ok());

  InDoubtResolver resolver(c.engines());
  ResolutionStats stats = resolver.Resolve({kDeadCoord});
  EXPECT_EQ(stats.branches_found, 1u);
  EXPECT_EQ(stats.branches_aborted, 1u);
  Result<TxnState> st = c.engine(0)->StateOf(b);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(*st, TxnState::kAborted);

  c.now_ms += 10;
  TxnId w2 = c.engine(0)->Begin();
  EXPECT_TRUE(c.engine(0)->Upsert(w2, kTable, {int64_t{7}, int64_t{3}}).ok());
  EXPECT_TRUE(c.engine(0)->CommitLocal(w2).ok());
}

TEST(InDoubtResolverTest, UnpreparedGlobalAbortsWithoutDecisionRecord) {
  // No branch ever prepared, so no commit point can exist: the resolver
  // aborts the branches directly instead of consulting a registry.
  MiniCluster c(2);
  GlobalTxnId gid = Gid(kDeadCoord, 1);
  Timestamp snapshot = c.cn_hlc.Now();
  std::vector<TxnId> branches;
  for (size_t i = 0; i < 2; ++i) {
    TxnId b = c.engine(i)->BeginBranch(snapshot, gid, kDeadCoord);
    ASSERT_TRUE(
        c.engine(i)->Upsert(b, kTable, {int64_t(10 + i), int64_t(i)}).ok());
    branches.push_back(b);
  }

  InDoubtResolver resolver(c.engines());
  ResolutionStats stats = resolver.Resolve({kDeadCoord});
  EXPECT_EQ(stats.globals_resolved, 1u);
  EXPECT_EQ(stats.branches_aborted, 2u);
  for (size_t i = 0; i < 2; ++i) {
    Result<TxnState> st = c.engine(i)->StateOf(branches[i]);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(*st, TxnState::kAborted) << "branch " << i;
    EXPECT_TRUE(c.engine(i)->DecisionOf(gid).status().IsNotFound())
        << "engine " << i << " gained a decision record";
  }
}

/// Forwards to LocalParticipants, except that one participant's listing
/// fails (an unreachable DN).
class FailingListing : public TxnParticipants {
 public:
  FailingListing(std::vector<TxnEngine*> engines, uint32_t unreachable)
      : inner_(nullptr, engines), unreachable_(unreachable) {}
  std::vector<uint32_t> participant_ids() const override {
    return inner_.participant_ids();
  }
  void Call(uint32_t participant, ParticipantCall call,
            ReplyFn done) override {
    if (participant == unreachable_ &&
        call.op == ParticipantCall::Op::kListUnresolved) {
      done(ParticipantReply{Status::Unavailable("dn unreachable")});
      return;
    }
    inner_.Call(participant, std::move(call), std::move(done));
  }
  void FetchTso(ReplyFn done) override { inner_.FetchTso(std::move(done)); }

 private:
  LocalParticipants inner_;
  uint32_t unreachable_;
};

TEST(InDoubtResolverTest, FailedListingReportsIncompleteSweep) {
  MiniCluster c(2);
  GlobalTxnId gid = Gid(kDeadCoord, 1);
  std::vector<TxnId> branches;
  c.PrepareGlobal(gid, kDeadCoord, {0, 1}, &branches);

  // Engine 2's listing fails: the sweep still resolves what it saw, but
  // reports itself incomplete, so the dead coordinator must not be reaped.
  FailingListing flaky(c.engines(), c.engine(1)->engine_id());
  InDoubtResolver partial(&flaky);
  ResolutionStats first = partial.Resolve({kDeadCoord});
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.branches_found, 1u);
  EXPECT_EQ(first.branches_aborted, 1u);
  Result<TxnState> hidden = c.engine(1)->StateOf(branches[1]);
  ASSERT_TRUE(hidden.ok());
  EXPECT_EQ(*hidden, TxnState::kPrepared) << "unlisted branch was touched";

  // A later complete sweep finds the hidden branch and follows the abort
  // decision the first sweep recorded.
  InDoubtResolver full(c.engines());
  ResolutionStats second = full.Resolve({kDeadCoord});
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.branches_found, 1u);
  EXPECT_EQ(second.branches_aborted, 1u);
  Result<TxnState> st = c.engine(1)->StateOf(branches[1]);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(*st, TxnState::kAborted);

  // Nothing left: a complete sweep that finds nothing is what lets the
  // caller forget the dead coordinator.
  ResolutionStats third = full.Resolve({kDeadCoord});
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
