// Tests for Paxos-with-leader-lease redo replication (§III): DLSN safety,
// asynchronous commit, batching/pipelining, leader election, old-leader
// cleanup, logger role, and DC-disaster survival.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "src/consensus/paxos.h"
#include "src/sim/network.h"
#include "src/storage/key_codec.h"

namespace polarx {
namespace {

RedoRecord TestRecord(TxnId txn, int64_t id) {
  RedoRecord rec;
  rec.type = RedoType::kInsert;
  rec.txn_id = txn;
  rec.table_id = 1;
  rec.key = EncodeKey({id});
  rec.row = {id, std::string("value-") + std::to_string(id)};
  return rec;
}

/// A 3-DC deployment: leader in DC0, follower in DC1, follower or logger in
/// DC2, as in the paper's production topology.
struct GroupFixture {
  sim::Scheduler sched;
  sim::Network net;
  std::vector<std::unique_ptr<RedoLog>> logs;
  std::unique_ptr<PaxosGroup> group;
  PaxosMember* leader = nullptr;
  PaxosMember* f1 = nullptr;
  PaxosMember* f2 = nullptr;

  explicit GroupFixture(PaxosConfig cfg = {}, bool third_is_logger = false)
      : net(&sched, [] {
          sim::NetworkConfig nc;
          nc.jitter = 0;
          return nc;
        }()) {
    group = std::make_unique<PaxosGroup>(&net, cfg);
    for (int i = 0; i < 3; ++i) logs.push_back(std::make_unique<RedoLog>());
    NodeId n0 = net.AddNode(0, "dn-leader");
    NodeId n1 = net.AddNode(1, "dn-f1");
    NodeId n2 = net.AddNode(2, third_is_logger ? "dn-logger" : "dn-f2");
    leader = group->AddMember(n0, PaxosRole::kLeader, logs[0].get());
    f1 = group->AddMember(n1, PaxosRole::kFollower, logs[1].get());
    f2 = group->AddMember(
        n2, third_is_logger ? PaxosRole::kLogger : PaxosRole::kFollower,
        logs[2].get());
    group->Start();
  }

  void RunFor(sim::SimTime us) { sched.RunUntil(sched.Now() + us); }
};

TEST(PaxosTest, ReplicatesToFollowersAndAdvancesDlsn) {
  GroupFixture g;
  MtrHandle h = g.leader->Append({TestRecord(1, 1), TestRecord(1, 2)});
  g.RunFor(50 * sim::kUsPerMs);
  EXPECT_GE(g.leader->dlsn(), h.end_lsn);
  EXPECT_EQ(g.f1->log()->current_lsn(), g.leader->log()->current_lsn());
  EXPECT_EQ(g.f2->log()->current_lsn(), g.leader->log()->current_lsn());
  EXPECT_GE(g.f1->dlsn(), h.end_lsn);
}

TEST(PaxosTest, FollowerLogBytesIdenticalToLeader) {
  GroupFixture g;
  for (int i = 0; i < 50; ++i) g.leader->Append({TestRecord(1, i)});
  g.RunFor(50 * sim::kUsPerMs);
  std::string leader_bytes, f1_bytes;
  g.leader->log()->ReadBytes(1, g.leader->log()->current_lsn(),
                             &leader_bytes);
  g.f1->log()->ReadBytes(1, g.f1->log()->current_lsn(), &f1_bytes);
  EXPECT_EQ(leader_bytes, f1_bytes);
}

TEST(PaxosTest, DlsnRequiresMajorityNotAll) {
  GroupFixture g;
  g.RunFor(5 * sim::kUsPerMs);
  g.net.SetNodeUp(g.f2->node(), false);  // one of three down
  MtrHandle h = g.leader->Append({TestRecord(1, 1)});
  g.RunFor(20 * sim::kUsPerMs);
  EXPECT_GE(g.leader->dlsn(), h.end_lsn) << "leader+f1 are a majority";
  EXPECT_LT(g.f2->log()->current_lsn(), h.end_lsn);
}

TEST(PaxosTest, NoDlsnAdvanceWithoutMajority) {
  GroupFixture g;
  g.RunFor(5 * sim::kUsPerMs);
  Lsn before = g.leader->dlsn();
  g.net.SetNodeUp(g.f1->node(), false);
  g.net.SetNodeUp(g.f2->node(), false);
  MtrHandle h = g.leader->Append({TestRecord(1, 1)});
  g.RunFor(50 * sim::kUsPerMs);
  EXPECT_LT(g.leader->dlsn(), h.end_lsn);
  EXPECT_GE(g.leader->dlsn(), before);
}

TEST(PaxosTest, AsyncCommitterFiresOnDurability) {
  GroupFixture g;
  AsyncCommitter committer(g.leader);
  std::vector<int> completed;
  MtrHandle h1 = g.leader->Append({TestRecord(1, 1)});
  committer.Submit(h1.end_lsn, [&] { completed.push_back(1); });
  MtrHandle h2 = g.leader->Append({TestRecord(2, 2)});
  committer.Submit(h2.end_lsn, [&] { completed.push_back(2); });
  EXPECT_TRUE(completed.empty()) << "must not complete before majority ack";
  g.RunFor(20 * sim::kUsPerMs);
  EXPECT_EQ(completed, (std::vector<int>{1, 2}));
  EXPECT_EQ(committer.pending(), 0u);
}

TEST(PaxosTest, AsyncCommitterImmediateWhenAlreadyDurable) {
  GroupFixture g;
  MtrHandle h = g.leader->Append({TestRecord(1, 1)});
  g.RunFor(20 * sim::kUsPerMs);
  AsyncCommitter committer(g.leader);
  bool fired = false;
  committer.Submit(h.end_lsn, [&] { fired = true; });
  EXPECT_TRUE(fired);
}

TEST(PaxosTest, FollowersApplyOnlyUpToDlsn) {
  GroupFixture g;
  std::vector<TxnId> applied;
  g.f1->SetApplyFn([&](const RedoRecord& rec) {
    applied.push_back(rec.txn_id);
  });
  g.leader->Append({TestRecord(7, 1)});
  g.RunFor(50 * sim::kUsPerMs);
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0], 7u);
  EXPECT_LE(g.f1->applied_lsn(), g.f1->dlsn());
}

TEST(PaxosTest, LargeMtrBatchedInto16KbFrames) {
  PaxosConfig cfg;
  cfg.max_batch_bytes = 16 * 1024;
  GroupFixture g(cfg);
  // ~100 records of ~500 bytes: several frames needed.
  std::vector<RedoRecord> records;
  for (int i = 0; i < 100; ++i) {
    RedoRecord rec = TestRecord(1, i);
    rec.row[1] = std::string(400, 'x');
    records.push_back(rec);
  }
  uint64_t frames_before = g.leader->frames_sent();
  MtrHandle h = g.leader->Append(records);
  g.RunFor(50 * sim::kUsPerMs);
  uint64_t frames = g.leader->frames_sent() - frames_before;
  size_t total_bytes = h.end_lsn - h.start_lsn;
  EXPECT_GE(frames, 2 * (total_bytes / (16 * 1024)));  // 2 followers
  EXPECT_GE(g.leader->dlsn(), h.end_lsn);
  // Frame boundaries never split a record: followers can parse everything.
  std::vector<RedoRecord> parsed;
  ASSERT_TRUE(
      g.f1->log()->ReadRecords(1, g.f1->log()->current_lsn(), &parsed).ok());
  EXPECT_EQ(parsed.size(), 100u);
}

TEST(PaxosTest, PipeliningBeatsStopAndWait) {
  // With ~1ms RTT, pipelined replication of N MTRs should converge much
  // faster than one-frame-at-a-time.
  auto run = [](size_t max_inflight) {
    PaxosConfig cfg;
    cfg.max_inflight = max_inflight;
    cfg.max_batch_bytes = 256;  // force many frames
    GroupFixture g(cfg);
    for (int i = 0; i < 50; ++i) g.leader->Append({TestRecord(1, i)});
    Lsn target = g.leader->log()->current_lsn();
    while (g.leader->dlsn() < target && g.sched.PendingEvents() > 0) {
      g.sched.Step();
    }
    return g.sched.Now();
  };
  sim::SimTime pipelined = run(PaxosConfig{}.max_inflight);
  sim::SimTime stop_and_wait = run(1);
  EXPECT_LT(pipelined * 3, stop_and_wait)
      << "pipelining must hide propagation delay";
}

TEST(PaxosTest, ElectsNewLeaderAfterLeaderFailure) {
  GroupFixture g;
  MtrHandle h = g.leader->Append({TestRecord(1, 1)});
  g.RunFor(20 * sim::kUsPerMs);
  ASSERT_GE(g.leader->dlsn(), h.end_lsn);

  g.net.SetNodeUp(g.leader->node(), false);
  g.RunFor(2000 * sim::kUsPerMs);
  PaxosMember* new_leader = g.group->CurrentLeader();
  ASSERT_NE(new_leader, nullptr);
  EXPECT_NE(new_leader, g.leader);
  // Committed (durable) entries survive the failover.
  EXPECT_GE(new_leader->log()->current_lsn(), h.end_lsn);
  std::vector<RedoRecord> recs;
  ASSERT_TRUE(new_leader->log()->ReadRecords(1, h.end_lsn, &recs).ok());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].txn_id, 1u);
}

TEST(PaxosTest, NewLeaderKeepsReplicating) {
  GroupFixture g;
  g.leader->Append({TestRecord(1, 1)});
  g.RunFor(20 * sim::kUsPerMs);
  g.net.SetNodeUp(g.leader->node(), false);
  g.RunFor(2000 * sim::kUsPerMs);
  PaxosMember* new_leader = g.group->CurrentLeader();
  ASSERT_NE(new_leader, nullptr);
  MtrHandle h2 = new_leader->Append({TestRecord(2, 2)});
  g.RunFor(2000 * sim::kUsPerMs);
  EXPECT_GE(new_leader->dlsn(), h2.end_lsn)
      << "two survivors still form a majority";
}

TEST(PaxosTest, DeposedLeaderTruncatesUnackedSuffix) {
  GroupFixture g;
  MtrHandle durable = g.leader->Append({TestRecord(1, 1)});
  g.RunFor(20 * sim::kUsPerMs);

  // Partition the leader, then write into the void (never majority-acked).
  g.net.SetNodeUp(g.leader->node(), false);
  MtrHandle lost = g.leader->Append({TestRecord(99, 99)});
  EXPECT_GT(g.leader->log()->current_lsn(), durable.end_lsn);

  g.RunFor(2000 * sim::kUsPerMs);
  PaxosMember* new_leader = g.group->CurrentLeader();
  ASSERT_NE(new_leader, nullptr);
  MtrHandle h2 = new_leader->Append({TestRecord(2, 2)});
  g.RunFor(2000 * sim::kUsPerMs);
  ASSERT_GE(new_leader->dlsn(), h2.end_lsn);

  // Old leader rejoins: must drop the unacked suffix and converge.
  g.net.SetNodeUp(g.leader->node(), true);
  g.leader->Recover();
  g.RunFor(5000 * sim::kUsPerMs);
  EXPECT_EQ(g.leader->log()->current_lsn(),
            new_leader->log()->current_lsn());
  std::string a, b;
  g.leader->log()->ReadBytes(durable.end_lsn, g.leader->log()->current_lsn(),
                             &a);
  new_leader->log()->ReadBytes(durable.end_lsn,
                               new_leader->log()->current_lsn(), &b);
  EXPECT_EQ(a, b) << "diverged suffix must be replaced, txn 99 gone";
  std::vector<RedoRecord> recs;
  ASSERT_TRUE(
      g.leader->log()->ReadRecords(1, g.leader->log()->current_lsn(), &recs)
          .ok());
  for (const auto& rec : recs) EXPECT_NE(rec.txn_id, 99u);
  (void)lost;
}

TEST(PaxosTest, FrameNeverAdvancesFollowerDlsnPastItsRange) {
  // The old leader holds ~40 KB of committed log plus a never-replicated
  // tail. While it is down the new leader's frames to it go unacked, so the
  // new leader keeps retransmitting the log from LSN 1 in 16 KB frames. The
  // old leader comes back just before such a retransmit, so the first frame
  // it sees ends far below its tail. A frame vouches only for its own
  // range: if the follower's DLSN covered its whole log, the tail would sit
  // under DLSN, the follower would refuse to truncate it, and it would nack
  // every later frame forever. So every DLSN the rejoined member reaches
  // covers bytes equal to the leader's stream, and its log converges.
  GroupFixture g;
  auto big = [](TxnId txn, int64_t id) {
    RedoRecord rec = TestRecord(txn, id);
    rec.row = {id, std::string(1000, char('a' + id % 26))};
    return rec;
  };
  for (int i = 0; i < 40; ++i) g.leader->Append({big(1, i)});
  g.RunFor(100 * sim::kUsPerMs);
  ASSERT_GE(g.leader->dlsn(), g.leader->log()->current_lsn());

  g.net.SetNodeUp(g.leader->node(), false);
  g.leader->Append({big(99, 99)});  // flushed locally, never replicated
  g.RunFor(2000 * sim::kUsPerMs);
  PaxosMember* new_leader = g.group->CurrentLeader();
  ASSERT_NE(new_leader, nullptr);
  ASSERT_NE(new_leader, g.leader);
  MtrHandle h;
  for (int i = 0; i < 5; ++i) h = new_leader->Append({big(2, 100 + i)});
  g.RunFor(500 * sim::kUsPerMs);
  ASSERT_GT(new_leader->dlsn(), g.leader->log()->current_lsn())
      << "the leader's DLSN must lie past the old leader's tail";

  // Only retransmits to the dead member send data frames now. Time two of
  // them and rejoin it shortly before the next one.
  auto next_retransmit = [&] {
    uint64_t sent = new_leader->frames_sent();
    while (new_leader->frames_sent() == sent && g.sched.Step()) {
    }
    return g.sched.Now();
  };
  sim::SimTime first = next_retransmit();
  sim::SimTime period = next_retransmit() - first;
  ASSERT_GT(period, 0u);
  g.RunFor(period - period / 8);

  int bad_advances = 0;
  g.leader->OnDlsnAdvance([&](Lsn dlsn) {
    std::string mine, theirs;
    g.leader->log()->ReadBytes(1, dlsn, &mine);
    new_leader->log()->ReadBytes(1, dlsn, &theirs);
    if (mine != theirs) ++bad_advances;
  });
  g.net.SetNodeUp(g.leader->node(), true);
  g.leader->Recover();
  g.RunFor(2000 * sim::kUsPerMs);

  EXPECT_EQ(bad_advances, 0) << "DLSN covered bytes no frame verified";
  ASSERT_EQ(g.group->CurrentLeader(), new_leader);
  EXPECT_EQ(g.leader->log()->current_lsn(), new_leader->log()->current_lsn());
  EXPECT_GE(g.leader->dlsn(), h.end_lsn);
}

TEST(PaxosTest, LoggerCountsTowardQuorumButNeverLeads) {
  GroupFixture g({}, /*third_is_logger=*/true);
  MtrHandle h = g.leader->Append({TestRecord(1, 1)});
  g.RunFor(20 * sim::kUsPerMs);
  EXPECT_GE(g.leader->dlsn(), h.end_lsn);

  // Kill leader AND the data follower: only the logger remains alive; it
  // must not elect itself.
  g.net.SetNodeUp(g.leader->node(), false);
  g.net.SetNodeUp(g.f1->node(), false);
  g.RunFor(5000 * sim::kUsPerMs);
  EXPECT_EQ(g.group->CurrentLeader(), nullptr);
  EXPECT_NE(g.f2->role(), PaxosRole::kLeader);
}

TEST(PaxosTest, LoggerQuorumEnablesDurabilityWithOneDataFollowerDown) {
  GroupFixture g({}, /*third_is_logger=*/true);
  g.RunFor(5 * sim::kUsPerMs);
  g.net.SetNodeUp(g.f1->node(), false);  // data follower down
  MtrHandle h = g.leader->Append({TestRecord(1, 1)});
  g.RunFor(20 * sim::kUsPerMs);
  EXPECT_GE(g.leader->dlsn(), h.end_lsn)
      << "leader + logger form a majority";
}

TEST(PaxosTest, SurvivesSingleDcDisaster) {
  GroupFixture g;
  MtrHandle h = g.leader->Append({TestRecord(1, 1)});
  g.RunFor(20 * sim::kUsPerMs);
  // Entire DC0 (the leader's datacenter) goes dark.
  g.net.SetDcUp(0, false);
  g.RunFor(3000 * sim::kUsPerMs);
  PaxosMember* new_leader = g.group->CurrentLeader();
  ASSERT_NE(new_leader, nullptr);
  EXPECT_GE(new_leader->log()->current_lsn(), h.end_lsn)
      << "entries below DLSN survive a datacenter disaster";
  MtrHandle h2 = new_leader->Append({TestRecord(2, 2)});
  g.RunFor(3000 * sim::kUsPerMs);
  EXPECT_GE(new_leader->dlsn(), h2.end_lsn);
}

TEST(PaxosTest, StableLeaderNeverDeposedWithoutFailure) {
  GroupFixture g;
  for (int i = 0; i < 20; ++i) {
    g.leader->Append({TestRecord(1, i)});
    g.RunFor(100 * sim::kUsPerMs);
  }
  EXPECT_EQ(g.group->CurrentLeader(), g.leader);
  EXPECT_EQ(g.f1->elections_started(), 0u);
  EXPECT_EQ(g.f2->elections_started(), 0u);
}

TEST(PaxosTest, ReorderedStaleFrameNeverTruncatesFollower) {
  // Duplicate every leader->f1 frame and delay-spike some copies so frames
  // from one epoch arrive well out of send order: a late copy carries a
  // leader_log_end that is stale by many appends. Truncating to it would
  // discard bytes f1 already flushed and acked (counted into the leader's
  // DLSN). In a single stable epoch a follower's log must only grow, so no
  // truncation of any kind may fire.
  GroupFixture g;
  sim::LinkFault fault;
  fault.dup_prob = 1.0;
  fault.delay_spike_prob = 0.5;
  fault.delay_spike_us = 20 * sim::kUsPerMs;
  g.net.SetLinkFault(g.leader->node(), g.f1->node(), fault);

  int f1_truncations = 0;
  g.f1->OnTruncate([&](Lsn) { ++f1_truncations; });

  for (int i = 0; i < 40; ++i) {
    g.leader->Append({TestRecord(1, i)});
    g.RunFor(2 * sim::kUsPerMs);
  }
  g.RunFor(300 * sim::kUsPerMs);

  EXPECT_EQ(f1_truncations, 0);
  EXPECT_EQ(g.f1->log()->current_lsn(), g.leader->log()->current_lsn());
  std::string leader_bytes, f1_bytes;
  g.leader->log()->ReadBytes(1, g.leader->log()->current_lsn(),
                             &leader_bytes);
  g.f1->log()->ReadBytes(1, g.f1->log()->current_lsn(), &f1_bytes);
  EXPECT_EQ(leader_bytes, f1_bytes);
  EXPECT_EQ(g.leader->epoch(), 1u) << "no election should have occurred";
}

TEST(PaxosTest, HeartbeatsPropagateDlsnToFollowers) {
  GroupFixture g;
  MtrHandle h = g.leader->Append({TestRecord(1, 1)});
  g.RunFor(200 * sim::kUsPerMs);  // several heartbeat periods
  EXPECT_GE(g.f1->dlsn(), h.end_lsn);
  EXPECT_GE(g.f2->dlsn(), h.end_lsn);
}

// ---------------------------------------------------------------------------
// Incremental quorum tracking (replaces the per-ack sort in HandleAck)
// ---------------------------------------------------------------------------

TEST(QuorumMatchTrackerTest, MatchesSortedRecomputeOverRandomAckOrders) {
  // The old DLSN computation collected every member's match LSN, sorted
  // descending, and took the quorum-th largest. The tracker must agree
  // with that after every single update, for any interleaving of
  // monotonically increasing per-member acks.
  for (uint64_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
    std::mt19937_64 rng(seed);
    for (size_t members : {3u, 5u, 7u}) {
      size_t quorum = members / 2 + 1;
      QuorumMatchTracker tracker;
      tracker.Reset(quorum);
      std::map<NodeId, Lsn> model;
      for (int step = 0; step < 400; ++step) {
        NodeId id = NodeId(rng() % members + 1);
        Lsn bump = rng() % 500;
        Lsn next = model.count(id) ? model[id] + bump : bump + 1;
        // Exercise the stale-ack path too: occasionally send a value at
        // or below the current match, which must be ignored.
        if (rng() % 4 == 0 && model.count(id)) next = model[id] - bump % 2;
        tracker.Set(id, next);
        model[id] = std::max(model[id], next);

        std::vector<Lsn> sorted;
        for (auto& [n, l] : model) sorted.push_back(l);
        std::sort(sorted.begin(), sorted.end(), std::greater<Lsn>());
        Lsn expected = sorted.size() < quorum ? 0 : sorted[quorum - 1];
        ASSERT_EQ(tracker.QuorumValue(), expected)
            << "seed=" << seed << " members=" << members << " step=" << step;
      }
    }
  }
}

TEST(QuorumMatchTrackerTest, BelowQuorumReportsZero) {
  QuorumMatchTracker tracker;
  tracker.Reset(2);
  EXPECT_EQ(tracker.QuorumValue(), 0u);
  tracker.Set(1, 100);
  EXPECT_EQ(tracker.QuorumValue(), 0u) << "one entry cannot form quorum 2";
  tracker.Set(2, 60);
  EXPECT_EQ(tracker.QuorumValue(), 60u);
  tracker.Set(2, 150);
  EXPECT_EQ(tracker.QuorumValue(), 100u);
}

// ---------------------------------------------------------------------------
// Follower ack coalescing (pipelined appends answered by cumulative acks)
// ---------------------------------------------------------------------------

TEST(PaxosTest, CoalescedAcksCoverPipelinedFrames) {
  PaxosConfig cfg;
  cfg.max_batch_bytes = 256;  // force many frames per burst
  GroupFixture g(cfg);
  // Burst appends faster than the follower's flush latency: frames arrive
  // while a flush is in flight and must fold into its ack window.
  for (int i = 0; i < 60; ++i) g.leader->Append({TestRecord(1, i)});
  g.RunFor(100 * sim::kUsPerMs);
  ASSERT_GE(g.leader->dlsn(), g.leader->log()->current_lsn());
  EXPECT_EQ(g.f1->log()->current_lsn(), g.leader->log()->current_lsn());
  // The whole point: far fewer acks (and follower flushes) than frames.
  EXPECT_GT(g.f1->frames_received(), g.f1->acks_sent())
      << "a burst must be answered by cumulative acks, not one per frame";
}

// ---------------------------------------------------------------------------
// Leader-side redo group commit
// ---------------------------------------------------------------------------

/// Appends one MTR to the leader's log WITHOUT flushing or replicating —
/// exactly what the DN engine does before its durability hook fires.
MtrHandle EngineAppend(PaxosMember* leader, TxnId txn, int64_t id) {
  return leader->log()->AppendMtr({TestRecord(txn, id)});
}

TEST(GroupCommitTest, ConcurrentSubmitsShareOneFlush) {
  GroupFixture g;
  GroupCommitConfig gcc;
  GroupCommitDriver driver(&g.sched, g.leader, gcc);
  AsyncCommitter committer(g.leader);
  int completed = 0;
  // A burst of 16 commits in the same instant: the first Submit opens a
  // flush; the other 15 accumulate behind it and ride the second flush.
  for (int i = 0; i < 16; ++i) {
    MtrHandle h = EngineAppend(g.leader, TxnId(i + 1), i);
    driver.Submit(h.end_lsn);
    committer.Submit(h.end_lsn, [&] { ++completed; });
  }
  g.RunFor(100 * sim::kUsPerMs);
  EXPECT_EQ(completed, 16);
  EXPECT_GE(g.leader->dlsn(), g.leader->log()->current_lsn());
  EXPECT_EQ(driver.submits(), 16u);
  EXPECT_LE(driver.flushes(), 2u) << "16 commits must not pay 16 flushes";
  EXPECT_GE(driver.max_group(), 15u);
}

TEST(GroupCommitTest, DisabledModeFlushesOncePerSubmit) {
  GroupFixture g;
  GroupCommitConfig gcc;
  gcc.enabled = false;
  GroupCommitDriver driver(&g.sched, g.leader, gcc);
  AsyncCommitter committer(g.leader);
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    MtrHandle h = EngineAppend(g.leader, TxnId(i + 1), i);
    driver.Submit(h.end_lsn);
    committer.Submit(h.end_lsn, [&] { ++completed; });
  }
  g.RunFor(100 * sim::kUsPerMs);
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(driver.flushes(), 8u)
      << "ablation baseline: one serialized flush per commit";
  EXPECT_EQ(driver.max_group(), 1u);
}

TEST(GroupCommitTest, ByteCapSplitsGroupsAtMtrBoundaries) {
  GroupFixture g;
  GroupCommitConfig gcc;
  gcc.max_group_bytes = 512;  // far below the burst's total
  GroupCommitDriver driver(&g.sched, g.leader, gcc);
  std::vector<Lsn> ends;
  for (int i = 0; i < 20; ++i) {
    MtrHandle h = EngineAppend(g.leader, TxnId(i + 1), i);
    ends.push_back(h.end_lsn);
    driver.Submit(h.end_lsn);
  }
  g.RunFor(100 * sim::kUsPerMs);
  EXPECT_GT(driver.flushes(), 2u) << "byte cap must split the burst";
  EXPECT_EQ(g.leader->log()->flushed_lsn(), ends.back());
  // Every flush target sat on an MTR boundary: the final flushed LSN
  // parses cleanly with no partial record tail.
  std::vector<RedoRecord> recs;
  ASSERT_TRUE(
      g.leader->log()->ReadRecords(1, g.leader->log()->flushed_lsn(), &recs)
          .ok());
  EXPECT_EQ(recs.size(), 20u);
}

TEST(GroupCommitTest, IdleSubmitFlushesWithoutWaitingForWindow) {
  GroupFixture g;
  GroupCommitDriver driver(&g.sched, g.leader);
  MtrHandle h = EngineAppend(g.leader, 1, 1);
  sim::SimTime before = g.sched.Now();
  driver.Submit(h.end_lsn);
  while (g.leader->log()->flushed_lsn() < h.end_lsn &&
         g.sched.PendingEvents() > 0) {
    g.sched.Step();
  }
  EXPECT_LE(g.sched.Now() - before,
            g.leader->config().flush_latency_us + 1)
      << "an idle driver fires immediately; the window only forms under "
         "load";
}

TEST(GroupCommitTest, TruncationVoidsInFlightFlush) {
  // The leader is partitioned mid-burst, a new leader takes over, and the
  // old one truncates its unacked suffix on rejoin. A group flush that was
  // in flight across the truncation must NOT mark the (reassigned) LSN
  // range flushed.
  GroupFixture g;
  GroupCommitDriver driver(&g.sched, g.leader, {});
  MtrHandle durable = g.leader->Append({TestRecord(1, 1)});
  g.RunFor(20 * sim::kUsPerMs);
  ASSERT_GE(g.leader->dlsn(), durable.end_lsn);

  g.net.SetNodeUp(g.leader->node(), false);
  MtrHandle lost = EngineAppend(g.leader, 99, 99);
  driver.Submit(lost.end_lsn);  // flush now in flight toward doomed bytes

  g.RunFor(2000 * sim::kUsPerMs);
  PaxosMember* new_leader = g.group->CurrentLeader();
  ASSERT_NE(new_leader, nullptr);
  MtrHandle h2 = new_leader->Append({TestRecord(2, 2)});
  g.RunFor(2000 * sim::kUsPerMs);
  ASSERT_GE(new_leader->dlsn(), h2.end_lsn);

  g.net.SetNodeUp(g.leader->node(), true);
  g.leader->Recover();
  g.RunFor(5000 * sim::kUsPerMs);
  // Old leader converged on the new history; txn 99 is gone and nothing
  // beyond the converged log is marked flushed.
  EXPECT_LE(g.leader->log()->flushed_lsn(), g.leader->log()->current_lsn());
  std::vector<RedoRecord> recs;
  ASSERT_TRUE(
      g.leader->log()->ReadRecords(1, g.leader->log()->current_lsn(), &recs)
          .ok());
  for (const auto& rec : recs) EXPECT_NE(rec.txn_id, 99u);
}

}  // namespace
}  // namespace polarx
