// Chaos suite for leader-side redo group commit (write-path batching): a DN
// Paxos leader is crashed in the middle of active group-commit windows —
// queued commits waiting on a shared flush, a flush in flight, acks being
// coalesced — and the cluster heals through election + failover promotion.
//
// Each transaction writes UNIQUE keys (above the preloaded table), so a
// CN-side commit acknowledgment maps 1:1 to rows that must exist later.
//
// Invariants, checked after the cluster quiesces:
//
//   G1  durability of the ack: every transaction whose commit was
//       acknowledged to the CN is visible on the serving engines after the
//       crash/failover — releasing a group-commit waiter early would lose
//       exactly these;
//   G2  boundary alignment: no member's log has a flush watermark inside
//       an MTR, and every log parses cleanly to its end — a partially
//       flushed group must never be replayed past its last complete MTR;
//   G3  catch-up: once faults heal, every member's log is byte-identical
//       to its serving leader's — a restarted member that never converges
//       leaves its DN without a spare replica.
//
// A deterministic fault plan that cuts a leader's replication links and
// then crashes it checks G1 where acking early would break it; the
// committed mutant tests/mutants/02-ack-before-durable.patch (acks sent
// before the group flush replicates) must fail it.
//
// A failing seed is replayable with POLARX_CHAOS_SEED=<seed>.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "src/cn/sim_cluster.h"
#include "src/sim/network.h"
#include "src/sim/scheduler.h"
#include "src/storage/key_codec.h"
#include "src/workload/sysbench.h"
#include "tests/chaos/chaos_util.h"
#include "tests/chaos/sim_cluster_checks.h"

namespace polarx {
namespace {

constexpr sim::SimTime kMs = 1000;  // microseconds per millisecond
constexpr TableId kTable = 1;       // SimCluster's sysbench table
constexpr int64_t kUniqueBase = 100000;  // above every preloaded row id

struct GroupCommitFixture {
  sim::Scheduler sched;
  sim::Network net;
  /// Indirection so the step hook can be assigned after the cluster exists.
  std::shared_ptr<std::function<void(int, int)>> step_hook =
      std::make_shared<std::function<void(int, int)>>();
  std::unique_ptr<SimCluster> cluster;
  /// Keys of every transaction whose commit the CN saw acknowledged.
  std::vector<int64_t> acked_keys;
  int64_t next_unique = kUniqueBase;
  /// Client loops; each refers to itself weakly, so the fixture is their
  /// only owner and frees them.
  std::vector<std::shared_ptr<std::function<void(int)>>> clients;

  explicit GroupCommitFixture(SimClusterConfig cfg)
      : net(&sched, [] {
          sim::NetworkConfig nc;
          nc.jitter = 0;
          return nc;
        }()) {
    cfg.num_dcs = 3;
    cfg.cns_per_dc = 1;
    cfg.num_dns = 3;
    cfg.table_size = 400;
    auto hook = step_hook;
    cfg.commit_step_hook = [hook](int cn, int step) {
      if (*hook) (*hook)(cn, step);
    };
    cluster = std::make_unique<SimCluster>(&sched, &net, cfg);
    cluster->LoadSysbenchTable();
  }

  void CrashNode(NodeId node) {
    net.SetNodeUp(node, false);
    cluster->HandleNodeCrash(node);
  }
  void RestartNode(NodeId node) {
    net.SetNodeUp(node, true);
    cluster->HandleNodeRestart(node);
  }

  /// A write transaction inserting `width` fresh unique keys (usually
  /// spanning DNs, so it runs full 2PC). On commit ack, the keys join
  /// acked_keys — the rows G1 demands back after the crash. With
  /// target_dn >= 0, only keys hashing to that DN are used, pinning the
  /// whole transaction (a one-phase commit under HLC-SI) to one leader
  /// log. on_ack, if set, runs after each successful commit ack.
  void StartUniqueKeyClient(int cn, int txns, int width, int target_dn = -1,
                            std::function<void()> on_ack = nullptr) {
    auto submit = std::make_shared<std::function<void(int)>>();
    clients.push_back(submit);
    std::weak_ptr<std::function<void(int)>> self = submit;
    *submit = [this, cn, width, target_dn, on_ack, self](int left) {
      if (left <= 0) return;
      SysbenchTxn txn;
      txn.read_only = false;
      std::vector<int64_t> keys;
      for (int w = 0; w < width; ++w) {
        int64_t key = next_unique++;
        while (target_dn >= 0 && cluster->DnOfKey(key) != target_dn) {
          key = next_unique++;
        }
        keys.push_back(key);
        txn.ops.push_back(
            {SysbenchOp::Type::kInsert, key, /*range_len=*/0});
      }
      cluster->SubmitTxn(
          cn, txn, [this, keys, on_ack, self, left](bool ok, sim::SimTime) {
            if (ok) {
              acked_keys.insert(acked_keys.end(), keys.begin(), keys.end());
              if (on_ack) on_ack();
            }
            if (auto next = self.lock()) (*next)(left - 1);
          });
    };
    (*submit)(txns);
  }

  void RunUntil(sim::SimTime horizon) {
    while (sched.Now() < horizon && sched.Step()) {
    }
  }

  /// G1: every acked key readable on its DN's serving engine. Returns the
  /// number of missing keys (0 required in the safe configuration).
  int MissingAckedKeys() {
    Timestamp everything = std::numeric_limits<Timestamp>::max();
    int missing = 0;
    for (int64_t key : acked_keys) {
      int d = cluster->DnOfKey(key);
      Row row;
      if (!cluster->dn_engine(d)
               ->ReadAt(everything, kTable, EncodeKey({key}), &row)
               .ok()) {
        ++missing;
      }
    }
    return missing;
  }

  /// G2: every member log's flush watermark sits on an MTR boundary and
  /// the log parses cleanly end to end.
  void CheckBoundaryAlignment() {
    for (int d = 0; d < cluster->num_dns(); ++d) {
      for (int m = 0; m < cluster->dn_member_count(d); ++m) {
        RedoLog* log = cluster->dn_member_log(d, m);
        EXPECT_EQ(log->BoundaryBefore(log->flushed_lsn()),
                  log->flushed_lsn())
            << "dn " << d << " member " << m
            << " flushed mid-MTR: a torn group would replay";
        std::vector<RedoRecord> recs;
        EXPECT_TRUE(
            log->ReadRecords(log->purged_before(), log->current_lsn(), &recs)
                .ok())
            << "dn " << d << " member " << m << " log does not parse";
      }
    }
  }
};

// ---- main sweep: DN leader killed while group-commit windows are hot ----

struct SweepTotals {
  uint64_t failovers = 0;
  uint64_t grouped_flushes = 0;
  uint64_t acked = 0;
};

void RunGroupCommitChaos(uint64_t seed, SweepTotals* totals) {
  SimClusterConfig cfg;
  cfg.seed = seed;
  GroupCommitFixture f(cfg);

  // Crash the victim DN's original leader at the first commit ack after a
  // seeded arming time — the instant a group-commit waiter was just
  // released, with the freshest commit records still inside their
  // replication window and more commits queued behind the next flush.
  const int victim_dn = int(seed % 3);
  const sim::SimTime arm_at = (5 + sim::SimTime(seed % 20)) * kMs;
  NodeId victim = f.cluster->dn_member_nodes(victim_dn)[0];
  GroupCommitFixture* fp = &f;
  auto armed = std::make_shared<bool>(false);
  auto crashed = std::make_shared<bool>(false);
  f.sched.ScheduleAfter(arm_at, [armed] { *armed = true; });
  *f.step_hook = [fp, victim, armed, crashed](int, int step) {
    if (!*armed || *crashed || step != int(CommitStep::kFirstCommitAcked)) {
      return;
    }
    *crashed = true;
    fp->CrashNode(victim);
  };
  f.sched.ScheduleAfter(arm_at + 900 * kMs, [fp, victim, crashed] {
    if (*crashed) fp->RestartNode(victim);
  });

  // Enough concurrent closed-loop writers that commits genuinely overlap:
  // several submits land inside one 40us flush window.
  for (int c = 0; c < 3; ++c) {
    for (int chain = 0; chain < 6; ++chain) {
      f.StartUniqueKeyClient(c, /*txns=*/6, /*width=*/2);
    }
  }
  // Horizon >> crash + election + failover promotion + retry-driven
  // completion of transactions caught mid-commit.
  f.RunUntil(6000 * kMs);

  // Telemetry before the invariants: batching must actually be happening,
  // or this sweep tests nothing.
  for (int d = 0; d < f.cluster->num_dns(); ++d) {
    totals->grouped_flushes += f.cluster->dn_group_commit(d)->grouped_flushes();
  }
  totals->failovers += f.cluster->stats().leader_failovers;
  totals->acked += f.acked_keys.size();

  EXPECT_EQ(f.MissingAckedKeys(), 0)
      << "an acknowledged commit vanished in the leader crash (G1); a "
         "group-commit waiter was released before its group was durable";
  f.CheckBoundaryAlignment();
  chaos::CheckMembersCaughtUp(f.cluster.get());
}

TEST(ChaosGroupCommitTest, LeaderCrashMidGroupCommitSweep) {
  SweepTotals totals;
  chaos::SeedSweep(50, [&](uint64_t seed) {
    RunGroupCommitChaos(seed, &totals);
  });
  if (std::getenv("POLARX_CHAOS_SEED") == nullptr) {
    EXPECT_GT(totals.failovers, 25u)
        << "most seeds must actually lose their leader";
    EXPECT_GT(totals.grouped_flushes, 0u)
        << "no flush ever covered more than one commit: the sweep never "
           "exercised group commit";
    EXPECT_GT(totals.acked, 0u);
  }
}

// ---- acking only once the group flush is durable loses no commit ----

TEST(ChaosGroupCommitTest, CutThenCrashLeaderLosesNoAckedCommit) {
  // A short deterministic fault window: the victim leader's outbound
  // replication links are cut a few ms into the burst, and the leader
  // crashes 4ms later. Acks need no follower, so a DN that replied as soon
  // as the engine op lands in its leader's volatile log would ack every
  // transaction inside the window with its records in the dead leader's
  // log only, and those rows would be gone after failover promotes a
  // follower. The committer refuses to ack until the group is
  // quorum-durable, which a cut link simply stalls, so nothing is lost.
  for (uint64_t seed : {2u, 5u, 9u, 13u, 21u}) {
    SCOPED_TRACE(seed);
    SimClusterConfig cfg;
    cfg.seed = seed;
    GroupCommitFixture f(cfg);

    // DN victim's leader shares a DC with CN victim_dn, so the whole
    // transaction (its statement and one-phase commit) is intra-DC and
    // fast: 4 chains of 60 keep the burst running through the fault
    // window.
    const int victim_dn = int(seed % 3);
    std::vector<NodeId> members = f.cluster->dn_member_nodes(victim_dn);
    GroupCommitFixture* fp = &f;
    const sim::SimTime block_at = (6 + sim::SimTime(seed % 4)) * kMs;
    f.sched.ScheduleAfter(block_at, [fp, members] {
      sim::LinkFault cut;
      cut.blocked = true;
      for (size_t i = 1; i < members.size(); ++i) {
        fp->net.SetLinkFault(members[0], members[i], cut);
      }
    });
    f.sched.ScheduleAfter(block_at + 4 * kMs, [fp, members] {
      for (size_t i = 1; i < members.size(); ++i) {
        fp->net.SetLinkFault(members[0], members[i], sim::LinkFault{});
      }
      fp->CrashNode(members[0]);
    });

    for (int chain = 0; chain < 4; ++chain) {
      f.StartUniqueKeyClient(victim_dn, /*txns=*/60, /*width=*/1, victim_dn);
    }
    f.RunUntil(6000 * kMs);
    EXPECT_GT(f.acked_keys.size(), 0u) << "no commit was acknowledged";
    EXPECT_EQ(f.MissingAckedKeys(), 0)
        << "an acknowledged commit vanished when its leader was cut off "
           "and crashed (G1)";
  }
}

}  // namespace
}  // namespace polarx
