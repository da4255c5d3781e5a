// Tests for the distributed 2PC coordinator under HLC-SI and TSO-SI:
// atomicity across shards, snapshot consistency, the §IV visibility proof
// scenario, randomized multi-shard SI invariants, and recovery of a
// coordinator stopped at every 2PC step.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "tests/txn_cluster.h"

namespace polarx {
namespace {

constexpr TableId kTable = TxnCluster::kTable;

class SchemeTest : public ::testing::TestWithParam<TsScheme> {
 protected:
  TsScheme scheme() const { return GetParam(); }
};

TEST_P(SchemeTest, CrossShardCommitIsAtomic) {
  TxnCluster c(3, scheme());
  SyncCoordinator coord = c.Coordinator(scheme());
  DistributedTxn txn = coord.Begin();
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(coord
                    .Insert(&txn, c.engine(i), kTable,
                            {int64_t(i), int64_t(100 + i)})
                    .ok());
  }
  ASSERT_TRUE(coord.Commit(&txn).ok());
  EXPECT_GT(txn.commit_ts(), 0u);

  c.TickAll();
  DistributedTxn reader = coord.Begin();
  for (size_t i = 0; i < 3; ++i) {
    Row row;
    ASSERT_TRUE(
        coord.Read(&reader, c.engine(i), kTable, EncodeKey({int64_t(i)}),
                   &row)
            .ok());
    EXPECT_EQ(std::get<int64_t>(row[1]), int64_t(100 + i));
  }
  ASSERT_TRUE(coord.Commit(&reader).ok());
}

TEST_P(SchemeTest, AbortRollsBackAllShards) {
  TxnCluster c(2, scheme());
  SyncCoordinator coord = c.Coordinator(scheme());
  DistributedTxn txn = coord.Begin();
  ASSERT_TRUE(coord.Insert(&txn, c.engine(0), kTable, {int64_t{1}, int64_t{1}}).ok());
  ASSERT_TRUE(coord.Insert(&txn, c.engine(1), kTable, {int64_t{2}, int64_t{2}}).ok());
  ASSERT_TRUE(coord.Abort(&txn).ok());

  c.TickAll();
  DistributedTxn reader = coord.Begin();
  Row row;
  EXPECT_TRUE(coord.Read(&reader, c.engine(0), kTable, EncodeKey({int64_t{1}}), &row)
                  .IsNotFound());
  EXPECT_TRUE(coord.Read(&reader, c.engine(1), kTable, EncodeKey({int64_t{2}}), &row)
                  .IsNotFound());
}

TEST_P(SchemeTest, PrepareConflictAbortsEverywhere) {
  TxnCluster c(2, scheme());
  SyncCoordinator coord = c.Coordinator(scheme());
  // t1 writes shard0 key 1; t2 writes shard1 key 2 then conflicts on shard0.
  DistributedTxn t1 = coord.Begin();
  ASSERT_TRUE(coord.Update(&t1, c.engine(0), kTable, {int64_t{1}, int64_t{10}}).ok());
  DistributedTxn t2 = coord.Begin();
  ASSERT_TRUE(coord.Update(&t2, c.engine(1), kTable, {int64_t{2}, int64_t{20}}).ok());
  EXPECT_TRUE(coord.Update(&t2, c.engine(0), kTable, {int64_t{1}, int64_t{99}})
                  .IsConflict());
  ASSERT_TRUE(coord.Abort(&t2).ok());
  ASSERT_TRUE(coord.Commit(&t1).ok());

  c.TickAll();
  DistributedTxn reader = coord.Begin();
  Row row;
  ASSERT_TRUE(
      coord.Read(&reader, c.engine(0), kTable, EncodeKey({int64_t{1}}), &row).ok());
  EXPECT_EQ(std::get<int64_t>(row[1]), 10);
  EXPECT_TRUE(coord.Read(&reader, c.engine(1), kTable, EncodeKey({int64_t{2}}), &row)
                  .IsNotFound());
}

TEST_P(SchemeTest, SnapshotSeesAllOrNothingOfConcurrentCommit) {
  // The fundamental cross-shard SI test: a reader must never observe a
  // distributed transaction's write on one shard but not the other.
  TxnCluster c(2, scheme());
  SyncCoordinator coord = c.Coordinator(scheme());
  {
    DistributedTxn init = coord.Begin();
    ASSERT_TRUE(coord.Insert(&init, c.engine(0), kTable, {int64_t{1}, int64_t{0}}).ok());
    ASSERT_TRUE(coord.Insert(&init, c.engine(1), kTable, {int64_t{2}, int64_t{0}}).ok());
    ASSERT_TRUE(coord.Commit(&init).ok());
  }
  for (int round = 1; round <= 50; ++round) {
    c.TickAll();
    DistributedTxn writer = coord.Begin();
    ASSERT_TRUE(
        coord.Update(&writer, c.engine(0), kTable, {int64_t{1}, int64_t(round)}).ok());
    ASSERT_TRUE(
        coord.Update(&writer, c.engine(1), kTable, {int64_t{2}, int64_t(round)}).ok());
    ASSERT_TRUE(coord.Commit(&writer).ok());

    DistributedTxn reader = coord.Begin();
    Row a, b;
    ASSERT_TRUE(coord.Read(&reader, c.engine(0), kTable, EncodeKey({int64_t{1}}), &a).ok());
    ASSERT_TRUE(coord.Read(&reader, c.engine(1), kTable, EncodeKey({int64_t{2}}), &b).ok());
    EXPECT_EQ(std::get<int64_t>(a[1]), std::get<int64_t>(b[1]))
        << "torn snapshot in round " << round;
    ASSERT_TRUE(coord.Commit(&reader).ok());
  }
}

TEST_P(SchemeTest, OneShardCommitUsesFastPath) {
  TxnCluster c(2, scheme());
  SyncCoordinator coord = c.Coordinator(scheme());
  DistributedTxn txn = coord.Begin();
  ASSERT_TRUE(coord.Insert(&txn, c.engine(0), kTable, {int64_t{1}, int64_t{1}}).ok());
  ASSERT_TRUE(coord.Commit(&txn).ok());
  EXPECT_EQ(coord.stats().committed, 1u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeTest,
                         ::testing::Values(TsScheme::kHlcSi,
                                           TsScheme::kTsoSi),
                         [](const auto& info) {
                           return info.param == TsScheme::kHlcSi ? "HlcSi"
                                                                 : "TsoSi";
                         });

TEST(HlcSiTest, WorksUnderSevereClockSkew) {
  // DN clocks skewed by seconds: HLC-SI must still give consistent
  // snapshots (the whole point of hybrid clocks vs Clock-SI).
  TxnCluster c(2, TsScheme::kHlcSi, {100, 60000});
  SyncCoordinator coord = c.Coordinator(TsScheme::kHlcSi);
  {
    DistributedTxn init = coord.Begin();
    ASSERT_TRUE(coord.Insert(&init, c.engine(0), kTable, {int64_t{1}, int64_t{0}}).ok());
    ASSERT_TRUE(coord.Insert(&init, c.engine(1), kTable, {int64_t{2}, int64_t{0}}).ok());
    ASSERT_TRUE(coord.Commit(&init).ok());
  }
  for (int round = 1; round <= 30; ++round) {
    c.TickAll();
    DistributedTxn writer = coord.Begin();
    ASSERT_TRUE(coord.Update(&writer, c.engine(0), kTable, {int64_t{1}, int64_t(round)}).ok());
    ASSERT_TRUE(coord.Update(&writer, c.engine(1), kTable, {int64_t{2}, int64_t(round)}).ok());
    ASSERT_TRUE(coord.Commit(&writer).ok());
    DistributedTxn reader = coord.Begin();
    Row a, b;
    ASSERT_TRUE(coord.Read(&reader, c.engine(0), kTable, EncodeKey({int64_t{1}}), &a).ok());
    ASSERT_TRUE(coord.Read(&reader, c.engine(1), kTable, EncodeKey({int64_t{2}}), &b).ok());
    EXPECT_EQ(std::get<int64_t>(a[1]), std::get<int64_t>(b[1]));
    ASSERT_TRUE(coord.Commit(&reader).ok());
  }
}

TEST(HlcSiTest, CommitTsIsMaxOfPrepareTs) {
  TxnCluster c(3, TsScheme::kHlcSi, {1000, 5000, 3000});
  SyncCoordinator coord = c.Coordinator(TsScheme::kHlcSi);
  DistributedTxn txn = coord.Begin();
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(coord.Insert(&txn, c.engine(i), kTable, {int64_t(i), int64_t(i)}).ok());
  }
  ASSERT_TRUE(coord.Commit(&txn).ok());
  // The fastest clock (shard 1 at 5000ms) dominates the commit timestamp.
  EXPECT_GE(hlc_layout::Pt(txn.commit_ts()), 5000u);
  // The coordinator clock absorbed the max.
  EXPECT_GE(c.cn_hlc.Peek(), txn.commit_ts());
}

TEST(HlcSiTest, VisibilityRuleMatchesPaperProof) {
  // Construct the §IV proof scenario directly: T2's snapshot is taken, then
  // T1 (still ACTIVE on the shared shard when T2 reads) must be invisible
  // and must receive commit_ts > T2.snapshot_ts.
  TxnCluster c(2, TsScheme::kHlcSi);
  SyncCoordinator coord = c.Coordinator(TsScheme::kHlcSi);
  {
    DistributedTxn init = coord.Begin();
    ASSERT_TRUE(coord.Insert(&init, c.engine(0), kTable, {int64_t{1}, int64_t{0}}).ok());
    ASSERT_TRUE(coord.Commit(&init).ok());
  }
  c.TickAll();
  DistributedTxn t1 = coord.Begin();
  ASSERT_TRUE(coord.Update(&t1, c.engine(0), kTable, {int64_t{1}, int64_t{111}}).ok());
  // T1 ACTIVE, not yet prepared.
  DistributedTxn t2 = coord.Begin();
  Row row;
  ASSERT_TRUE(coord.Read(&t2, c.engine(0), kTable, EncodeKey({int64_t{1}}), &row).ok());
  EXPECT_EQ(std::get<int64_t>(row[1]), 0) << "ACTIVE T1 must be invisible";
  // Force a second participant so commit runs full 2PC.
  ASSERT_TRUE(coord.Update(&t1, c.engine(1), kTable, {int64_t{9}, int64_t{9}}).ok());
  ASSERT_TRUE(coord.Commit(&t1).ok());
  EXPECT_GT(t1.commit_ts(), t2.snapshot_ts())
      << "paper invariant: T1.commit_ts > T2.snapshot_ts";
  ASSERT_TRUE(coord.Commit(&t2).ok());
}

TEST(TsoSiTest, EveryTxnCallsTso) {
  TxnCluster c(2, TsScheme::kTsoSi);
  SyncCoordinator coord = c.Coordinator(TsScheme::kTsoSi);
  for (int i = 0; i < 5; ++i) {
    c.TickAll();
    DistributedTxn txn = coord.Begin();
    ASSERT_TRUE(coord.Update(&txn, c.engine(0), kTable, {int64_t{1}, int64_t(i)}).ok());
    ASSERT_TRUE(coord.Update(&txn, c.engine(1), kTable, {int64_t{2}, int64_t(i)}).ok());
    ASSERT_TRUE(coord.Commit(&txn).ok());
  }
  // snapshot + commit per transaction.
  EXPECT_EQ(coord.stats().tso_calls, 10u);
  EXPECT_EQ(c.tso.requests_served(), 10u);
}

// Randomized multi-shard bank: transfers across shards, snapshot audits in
// between. Total balance must be invariant in every audit under both
// schemes and arbitrary clock skews.
struct BankParam {
  TsScheme scheme;
  uint64_t seed;
  std::vector<uint64_t> skews;
};

class DistributedBankTest : public ::testing::TestWithParam<BankParam> {};

TEST_P(DistributedBankTest, SnapshotAuditsAlwaysBalance) {
  const BankParam& p = GetParam();
  constexpr int kShards = 4;
  constexpr int kAccountsPerShard = 4;
  constexpr int64_t kInitial = 1000;
  TxnCluster c(kShards, p.scheme, p.skews);
  SyncCoordinator coord = c.Coordinator(p.scheme);
  {
    DistributedTxn init = coord.Begin();
    for (int s = 0; s < kShards; ++s) {
      for (int a = 0; a < kAccountsPerShard; ++a) {
        ASSERT_TRUE(coord
                        .Insert(&init, c.engine(s), kTable,
                                {int64_t(a), kInitial})
                        .ok());
      }
    }
    ASSERT_TRUE(coord.Commit(&init).ok());
  }

  Rng rng(p.seed);
  int committed = 0;
  for (int iter = 0; iter < 300; ++iter) {
    c.TickAll(rng.Uniform(3));
    if (rng.Bernoulli(0.25)) {
      DistributedTxn audit = coord.Begin();
      int64_t total = 0;
      for (int s = 0; s < kShards; ++s) {
        for (int a = 0; a < kAccountsPerShard; ++a) {
          Row row;
          ASSERT_TRUE(coord
                          .Read(&audit, c.engine(s), kTable,
                                EncodeKey({int64_t(a)}), &row)
                          .ok());
          total += std::get<int64_t>(row[1]);
        }
      }
      EXPECT_EQ(total, int64_t(kShards) * kAccountsPerShard * kInitial)
          << "iter " << iter;
      ASSERT_TRUE(coord.Commit(&audit).ok());
      continue;
    }
    int from_shard = int(rng.Uniform(kShards));
    int to_shard = int(rng.Uniform(kShards));
    int64_t from_acc = int64_t(rng.Uniform(kAccountsPerShard));
    int64_t to_acc = int64_t(rng.Uniform(kAccountsPerShard));
    if (from_shard == to_shard && from_acc == to_acc) continue;
    int64_t amount = rng.UniformRange(1, 20);
    DistributedTxn txn = coord.Begin();
    Row from_row, to_row;
    if (!coord.Read(&txn, c.engine(from_shard), kTable,
                    EncodeKey({from_acc}), &from_row)
             .ok() ||
        !coord.Read(&txn, c.engine(to_shard), kTable, EncodeKey({to_acc}),
                    &to_row)
             .ok()) {
      coord.Abort(&txn);
      continue;
    }
    Status s1 = coord.Update(&txn, c.engine(from_shard), kTable,
                             {from_acc, std::get<int64_t>(from_row[1]) - amount});
    Status s2 = coord.Update(&txn, c.engine(to_shard), kTable,
                             {to_acc, std::get<int64_t>(to_row[1]) + amount});
    if (!s1.ok() || !s2.ok()) {
      coord.Abort(&txn);
      continue;
    }
    if (coord.Commit(&txn).ok()) ++committed;
  }
  EXPECT_GT(committed, 50);
}

TEST(CoordinatorStatsTest, AbortsSplitByPreparePhase) {
  TxnCluster c(2);
  SyncCoordinator coord = c.Coordinator(TsScheme::kHlcSi);

  // Abort before any branch prepared: the cheap case, nothing in doubt.
  DistributedTxn t1 = coord.Begin();
  ASSERT_TRUE(coord.Update(&t1, c.engine(0), kTable, {int64_t{1}, int64_t{1}}).ok());
  ASSERT_TRUE(coord.Update(&t1, c.engine(1), kTable, {int64_t{2}, int64_t{2}}).ok());
  ASSERT_TRUE(coord.Abort(&t1).ok());
  EXPECT_EQ(coord.stats().aborted, 1u);
  EXPECT_EQ(coord.stats().aborts_before_prepare, 1u);
  EXPECT_EQ(coord.stats().aborts_after_prepare, 0u);

  // Abort after prepare: an in-doubt resolver presumed this coordinator
  // dead and fenced its second branch with an abort decision, so Commit
  // prepares the first branch and then has the second prepare refused.
  c.TickAll();
  DistributedTxn t2 = coord.Begin();
  ASSERT_TRUE(coord.Update(&t2, c.engine(0), kTable, {int64_t{3}, int64_t{3}}).ok());
  ASSERT_TRUE(coord.Update(&t2, c.engine(1), kTable, {int64_t{4}, int64_t{4}}).ok());
  ASSERT_TRUE(c.engine(1)->DecideAbort(t2.global_id()).ok());
  EXPECT_TRUE(coord.Commit(&t2).IsAborted());
  EXPECT_EQ(coord.stats().aborted, 2u);
  EXPECT_EQ(coord.stats().aborts_before_prepare, 1u);
  EXPECT_EQ(coord.stats().aborts_after_prepare, 1u);
}

// The in-process twin of the simulated cluster's coordinator-kill sweep:
// stop the coordinator at each 2PC step boundary its scheme fires, let the
// in-doubt resolver finish its transaction over the same engines, and check
// atomicity. From the scheme's commit point on (kAllPrepared under HLC-SI,
// kDecided under TSO-SI) the transaction is committed, and from
// kFirstCommitAcked on the coordinator has already acknowledged it.
struct StepCase {
  TsScheme scheme;
  CommitStep stop_at;
};

void PrintTo(const StepCase& c, std::ostream* os) {
  *os << (c.scheme == TsScheme::kHlcSi ? "HlcSi/" : "TsoSi/")
      << int(c.stop_at);
}

class StepHookTest : public ::testing::TestWithParam<StepCase> {};

TEST_P(StepHookTest, ResolverCompletesStoppedCommitAtomically) {
  const auto [scheme, stop_at] = GetParam();
  constexpr uint32_t kCoordinatorId = 77;
  TxnCluster c(3);
  SyncCoordinator coord = c.Coordinator(scheme, kCoordinatorId);
  coord.set_step_hook(
      [stop_at](CommitStep step, GlobalTxnId) { return step != stop_at; });

  DistributedTxn txn = coord.Begin();
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        coord.Update(&txn, c.engine(i), kTable, {int64_t(i), int64_t(7)})
            .ok());
  }
  const CommitStep commit_point = scheme == TsScheme::kHlcSi
                                      ? CommitStep::kAllPrepared
                                      : CommitStep::kDecided;
  const bool acked = stop_at >= CommitStep::kFirstCommitAcked;
  EXPECT_EQ(coord.Commit(&txn).ok(), acked)
      << "acknowledged exactly when the step follows the commit point";

  c.Resolve({kCoordinatorId});

  const bool committed = stop_at >= commit_point;
  for (size_t i = 0; i < 3; ++i) {
    Result<TxnInfo> info =
        c.engine(i)->InfoOf(txn.branches().at(c.engine(i)->engine_id()));
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->state,
              committed ? TxnState::kCommitted : TxnState::kAborted)
        << "shard " << i;
  }

  // Every row is writable again: no intent of the stopped coordinator is
  // left behind.
  c.TickAll();
  SyncCoordinator next = c.Coordinator(scheme);
  DistributedTxn writer = next.Begin();
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        next.Update(&writer, c.engine(i), kTable, {int64_t(i), int64_t(8)})
            .ok())
        << "shard " << i;
  }
  ASSERT_TRUE(next.Commit(&writer).ok());
}

const char* StepName(CommitStep step) {
  switch (step) {
    case CommitStep::kBeforePrepare:
      return "BeforePrepare";
    case CommitStep::kSomePrepared:
      return "SomePrepared";
    case CommitStep::kAllPrepared:
      return "AllPrepared";
    case CommitStep::kDecided:
      return "Decided";
    case CommitStep::kFirstCommitAcked:
      return "FirstCommitAcked";
    case CommitStep::kPhaseTwoDone:
      return "PhaseTwoDone";
  }
  return "Unknown";
}

// Every step each scheme fires: HLC-SI has no kDecided.
INSTANTIATE_TEST_SUITE_P(
    EveryStep, StepHookTest,
    ::testing::Values(
        StepCase{TsScheme::kHlcSi, CommitStep::kBeforePrepare},
        StepCase{TsScheme::kHlcSi, CommitStep::kSomePrepared},
        StepCase{TsScheme::kHlcSi, CommitStep::kAllPrepared},
        StepCase{TsScheme::kHlcSi, CommitStep::kFirstCommitAcked},
        StepCase{TsScheme::kHlcSi, CommitStep::kPhaseTwoDone},
        StepCase{TsScheme::kTsoSi, CommitStep::kBeforePrepare},
        StepCase{TsScheme::kTsoSi, CommitStep::kSomePrepared},
        StepCase{TsScheme::kTsoSi, CommitStep::kAllPrepared},
        StepCase{TsScheme::kTsoSi, CommitStep::kDecided},
        StepCase{TsScheme::kTsoSi, CommitStep::kFirstCommitAcked},
        StepCase{TsScheme::kTsoSi, CommitStep::kPhaseTwoDone}),
    [](const auto& info) {
      return std::string(info.param.scheme == TsScheme::kHlcSi ? "HlcSi_"
                                                                : "TsoSi_") +
             StepName(info.param.stop_at);
    });

// The cluster's inline transport, except that every phase-2 commit is
// parked until Release().
class ParkedCommitParticipants : public TxnParticipants {
 public:
  explicit ParkedCommitParticipants(TxnParticipants* inner) : inner_(inner) {}

  std::vector<uint32_t> participant_ids() const override {
    return inner_->participant_ids();
  }
  void Call(uint32_t participant, ParticipantCall call,
            ReplyFn done) override {
    if (call.op != ParticipantCall::Op::kCommit) {
      inner_->Call(participant, std::move(call), std::move(done));
      return;
    }
    parked_.push_back([this, participant, call, done] {
      inner_->Call(participant, call, done);
    });
  }
  void FetchTso(ReplyFn done) override { inner_->FetchTso(std::move(done)); }

  size_t parked() const { return parked_.size(); }
  void Release() {
    std::vector<std::function<void()>> calls = std::move(parked_);
    parked_.clear();
    for (auto& call : calls) call();
  }

 private:
  TxnParticipants* inner_;
  std::vector<std::function<void()>> parked_;
};

// Under HLC-SI the commit is acknowledged once every branch is PREPARED,
// before any branch commits, and no decision record is written: the
// prepare records, each naming every participant, are the decision. An
// acknowledged write is never
// invisible: until phase 2 lands, a later snapshot waits on the PREPARED
// branch instead of reading past it.
TEST(AckAtCommitPointTest, AckedWriteIsWaitedOnUntilPhaseTwoLands) {
  constexpr uint32_t kCoordinatorId = 91;
  TxnCluster c(3);
  ParkedCommitParticipants transport(&c.transport);
  SyncCoordinator coord(&transport, TsScheme::kHlcSi, &c.cn_hlc,
                        kCoordinatorId);

  // The caller owns its transaction only until the acknowledgement.
  auto txn = std::make_unique<DistributedTxn>(coord.NewTxn());
  Status snapshot = Status::Unavailable("no snapshot");
  coord.AcquireSnapshot(txn.get(), [&snapshot](Status s) { snapshot = s; });
  ASSERT_TRUE(snapshot.ok());
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(coord
                    .Update(txn.get(), c.engine(i), kTable,
                            {int64_t(i), int64_t(42)})
                    .ok());
  }
  Status acked = Status::Unavailable("not acknowledged");
  coord.CommitAsync(txn.get(), [&acked](Status s) { acked = s; });
  ASSERT_TRUE(acked.ok()) << acked.ToString();
  EXPECT_EQ(coord.stats().committed, 1u);
  ASSERT_EQ(transport.parked(), 3u);
  const std::map<uint32_t, TxnId> branches = txn->branches();
  const Timestamp commit_ts = txn->commit_ts();
  const GlobalTxnId global_id = txn->global_id();
  txn.reset();

  // Every branch is still PREPARED and names every participant; no engine
  // holds a decision record, and commit_ts is the largest prepare_ts.
  Timestamp max_prepare_ts = 0;
  for (const auto& [engine_id, branch] : branches) {
    Result<TxnInfo> info = c.engine(engine_id - 1)->InfoOf(branch);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->state, TxnState::kPrepared) << "engine " << engine_id;
    EXPECT_EQ(info->commit_owner, 0u) << "engine " << engine_id;
    EXPECT_EQ(info->participants, (std::vector<uint32_t>{1, 2, 3}))
        << "engine " << engine_id;
    EXPECT_TRUE(
        c.engine(engine_id - 1)->DecisionOf(global_id).status().IsNotFound())
        << "engine " << engine_id;
    max_prepare_ts = std::max(max_prepare_ts, info->prepare_ts);
  }
  EXPECT_EQ(commit_ts, max_prepare_ts);

  // A snapshot above commit_ts is blocked by each writer's branch: the
  // DN answers the reader's first statement Busy, naming the writer, on
  // the branch that statement started.
  c.TickAll();
  SyncCoordinator next = c.Coordinator(TsScheme::kHlcSi);
  DistributedTxn reader = next.Begin();
  ASSERT_GT(reader.snapshot_ts(), commit_ts);
  std::map<uint32_t, TxnId> reads;
  for (const auto& [engine_id, branch] : branches) {
    ParticipantCall read{ParticipantCall::Op::kStatement};
    read.statement = {.kind = Statement::Kind::kRead,
                      .table = kTable,
                      .key = EncodeKey({int64_t(engine_id - 1)})};
    read.global_id = reader.global_id();
    read.coordinator = next.coordinator_id();
    read.snapshot_ts = reader.snapshot_ts();
    read.clock_update = true;
    ParticipantReply r = ServeParticipantCall(c.engine(engine_id - 1), read);
    EXPECT_TRUE(r.status.IsBusy()) << "engine " << engine_id;
    EXPECT_EQ(r.blocker, branch) << "engine " << engine_id;
    EXPECT_FALSE(r.await_durable) << "engine " << engine_id;
    ASSERT_NE(r.branch, kInvalidTxnId) << "engine " << engine_id;
    reads[engine_id] = r.branch;
  }

  // Phase 2 lands; the same snapshot now reads the write.
  transport.Release();
  EXPECT_EQ(coord.stats().commit_failures_after_ack, 0u);
  for (const auto& [engine_id, branch] : branches) {
    TxnEngine* e = c.engine(engine_id - 1);
    Result<TxnInfo> info = e->InfoOf(branch);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->state, TxnState::kCommitted) << "engine " << engine_id;
    EXPECT_EQ(info->commit_ts, commit_ts) << "engine " << engine_id;
    Row row;
    ASSERT_TRUE(e->Read(reads[engine_id], kTable,
                        EncodeKey({int64_t(engine_id - 1)}), &row)
                    .ok())
        << "engine " << engine_id;
    EXPECT_EQ(std::get<int64_t>(row[1]), 42);
  }
}

// The DN side of a statement: the first statement on a participant starts
// the branch, and a retry of it finds the same branch (BeginBranch dedups
// by global id); a statement on a branch the DN no longer has is refused,
// so a transaction never continues with half its writes missing.
TEST(StatementCallTest, FirstStatementStartsTheBranchOnce) {
  TxnCluster c(1);
  ParticipantCall call{ParticipantCall::Op::kStatement};
  call.statement = {.kind = Statement::Kind::kUpdate,
                    .table = kTable,
                    .row = {int64_t{1}, int64_t{1}}};
  call.global_id = 77;
  call.coordinator = 5;
  call.snapshot_ts = c.cn_hlc.Now();
  ParticipantReply first = ServeParticipantCall(c.engine(0), call);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.await_durable);
  ParticipantReply retry = ServeParticipantCall(c.engine(0), call);
  ASSERT_TRUE(retry.status.ok()) << retry.status.ToString();
  EXPECT_EQ(retry.branch, first.branch);

  call.branch = first.branch + 1;  // not this global's branch
  EXPECT_TRUE(ServeParticipantCall(c.engine(0), call).status.IsAborted());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesSeedsSkews, DistributedBankTest,
    ::testing::Values(
        BankParam{TsScheme::kHlcSi, 7, {}},
        BankParam{TsScheme::kHlcSi, 21, {500, 90000, 1000, 444}},
        BankParam{TsScheme::kHlcSi, 1234, {1, 1, 1, 1}},
        BankParam{TsScheme::kTsoSi, 7, {}},
        BankParam{TsScheme::kTsoSi, 21, {500, 90000, 1000, 444}}),
    [](const auto& info) {
      const BankParam& p = info.param;
      std::string name =
          p.scheme == TsScheme::kHlcSi ? "HlcSi" : "TsoSi";
      name += "_seed" + std::to_string(p.seed);
      name += p.skews.empty() ? "_noskew" : "_skewed";
      return name;
    });

}  // namespace
}  // namespace polarx
