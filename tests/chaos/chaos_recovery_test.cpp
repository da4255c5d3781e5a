// Chaos suite for end-to-end transaction survivability on the simulated
// multi-DC cluster (src/cn/sim_cluster.h): coordinator (CN) crashes at
// every 2PC step boundary of both timestamp schemes (HLC-SI's implicit
// commit at "all prepared" and one-phase commits, TSO-SI's explicit
// decision), DN Paxos leader flaps mid-commit, and TSO outages — all under
// the retryable RPC layer, GMS-lease-driven in-doubt recovery, and
// leader-failover-aware routing.
//
// Invariants, checked on every DN engine after the cluster quiesces:
//
//   R1  no branch is left PREPARED (in-doubt resolution terminates);
//   R2  no ACTIVE branch of a distributed transaction remains (write
//       intents of dead coordinators are released);
//   R3  all branches of one global transaction agree on the outcome —
//       all committed at the same commit_ts, or all aborted (atomicity);
//       and a committed transaction whose branches name their participants
//       (implicit commit) has a committed branch on every one of them;
//   R4  committed branches satisfy commit_ts >= prepare_ts (HLC-SI
//       monotonicity survives recovery and failover);
//   G3  once the flapped DN leader has rejoined, every member's log equals
//       its serving leader's (checked after the post-chaos probe).
//
// The committed mutant tests/mutants/01-no-recovery-daemon.patch (the
// recovery daemon never scheduled) must violate R1 in the kill sweep — the
// violation the survivability layer exists to prevent.
//
// A failing seed is replayable with POLARX_CHAOS_SEED=<seed>.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <utility>
#include <memory>
#include <string>
#include <vector>

#include "src/cn/sim_cluster.h"
#include "src/sim/network.h"
#include "src/sim/scheduler.h"
#include "src/workload/sysbench.h"
#include "tests/chaos/chaos_util.h"
#include "tests/chaos/sim_cluster_checks.h"

namespace polarx {
namespace {

constexpr sim::SimTime kMs = 1000;  // microseconds per millisecond

/// A small 3-DC cluster (one CN per DC, 3 DN groups) under a chaos seed.
struct ChaosFixture {
  sim::Scheduler sched;
  sim::Network net;
  /// Indirection so the hook can be (re)assigned after the cluster exists.
  std::shared_ptr<std::function<void(int, int)>> step_hook =
      std::make_shared<std::function<void(int, int)>>();
  std::unique_ptr<SimCluster> cluster;
  /// Client loops; each refers to itself weakly, so the fixture is their
  /// only owner and frees them.
  std::vector<std::shared_ptr<std::function<void(int)>>> clients;

  explicit ChaosFixture(SimClusterConfig cfg)
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

  /// Starts a closed-loop write client on CN `cn`; decrements *remaining
  /// per completion. If the CN dies mid-transaction the chain just stops.
  void StartClient(int cn, int txns, std::shared_ptr<int> remaining,
                   uint64_t seed) {
    Sysbench bench({.mode = SysbenchMode::kWriteOnly, .table_size = 400});
    auto rng = std::make_shared<Rng>(seed);
    auto submit = std::make_shared<std::function<void(int)>>();
    clients.push_back(submit);
    std::weak_ptr<std::function<void(int)>> self = submit;
    *submit = [this, cn, bench, rng, self, remaining](int left) {
      if (left <= 0) return;
      cluster->SubmitTxn(cn, bench.NextTxn(rng.get()),
                         [self, left, remaining](bool, sim::SimTime) {
                           --*remaining;
                           if (auto next = self.lock()) (*next)(left - 1);
                         });
    };
    (*submit)(txns);
  }

  void RunUntil(sim::SimTime horizon) {
    while (sched.Now() < horizon && sched.Step()) {
    }
  }
};

/// Checks invariants R1-R4 over every DN's transaction snapshot.
/// `dead_coordinator` is the coordinator incarnation killed mid-2PC (0 if
/// none); its branches especially must be fully resolved.
void CheckSurvivabilityInvariants(SimCluster* cluster,
                                  uint32_t dead_coordinator) {
  struct BranchView {
    int dn;
    TxnInfo info;
  };
  std::map<GlobalTxnId, std::vector<BranchView>> by_global;
  for (int d = 0; d < cluster->num_dns(); ++d) {
    for (const TxnInfo& info : cluster->dn_engine(d)->TxnsSnapshot()) {
      // R1: nothing in doubt anywhere.
      EXPECT_NE(info.state, TxnState::kPrepared)
          << "dn " << d << " branch " << info.id << " of global "
          << info.global_id << " (coordinator " << info.coordinator
          << ") left PREPARED";
      if (info.global_id == kInvalidGlobalTxnId) continue;
      // R2: no write intents held by unfinished distributed branches.
      EXPECT_NE(info.state, TxnState::kActive)
          << "dn " << d << " still holds intents of global "
          << info.global_id << " (coordinator " << info.coordinator << ")";
      by_global[info.global_id].push_back({d, info});
    }
  }
  for (const auto& [gid, branches] : by_global) {
    const bool dead = (gid >> 32) == dead_coordinator;
    bool any_committed = false, any_aborted = false;
    Timestamp commit_ts = 0;
    for (const BranchView& b : branches) {
      if (b.info.state == TxnState::kCommitted) {
        any_committed = true;
        if (commit_ts == 0) commit_ts = b.info.commit_ts;
        // R3a: committed branches share one commit timestamp.
        EXPECT_EQ(b.info.commit_ts, commit_ts)
            << "global " << gid << " committed at different timestamps"
            << (dead ? " (dead coordinator)" : "");
        // R4: HLC-SI monotonicity.
        EXPECT_GE(b.info.commit_ts, b.info.prepare_ts)
            << "global " << gid << " dn " << b.dn
            << " commit_ts below prepare_ts";
      } else if (b.info.state == TxnState::kAborted) {
        any_aborted = true;
      }
    }
    // R3: one outcome per global transaction.
    EXPECT_FALSE(any_committed && any_aborted)
        << "global " << gid << " committed on some DNs and aborted on others"
        << (dead ? " (dead coordinator)" : "");
    // R3: no participant of a committed transaction is missing its branch.
    if (!any_committed) continue;
    for (const BranchView& b : branches) {
      for (uint32_t participant : b.info.participants) {
        bool found = false;
        for (const BranchView& other : branches) {
          found |= other.dn + 1 == int(participant) &&
                   other.info.state == TxnState::kCommitted;
        }
        EXPECT_TRUE(found) << "global " << gid
                           << " committed without its branch on dn "
                           << participant - 1
                           << (dead ? " (dead coordinator)" : "");
      }
    }
  }
}

// ---- main sweep: coordinator killed at every 2PC step boundary while a
// DN leader flaps mid-run ----

struct SweepTotals {
  uint64_t rpc_retries = 0;
  uint64_t leader_failovers = 0;
  uint64_t recovery_resolved = 0;
  int seeds_with_kill = 0;
  std::set<std::pair<TsScheme, int>> killed_at;  // (scheme, step) that fired
};

/// Every step boundary each scheme fires: HLC-SI acknowledges at "all
/// prepared" and never records a decision.
const std::vector<CommitStep>& StepsOf(TsScheme scheme) {
  static const std::vector<CommitStep> kHlc = {
      CommitStep::kBeforePrepare, CommitStep::kSomePrepared,
      CommitStep::kAllPrepared, CommitStep::kFirstCommitAcked,
      CommitStep::kPhaseTwoDone};
  static const std::vector<CommitStep> kTso = {
      CommitStep::kBeforePrepare, CommitStep::kSomePrepared,
      CommitStep::kAllPrepared, CommitStep::kDecided,
      CommitStep::kFirstCommitAcked, CommitStep::kPhaseTwoDone};
  return scheme == TsScheme::kHlcSi ? kHlc : kTso;
}

void RunRecoveryChaos(uint64_t seed, SweepTotals* totals) {
  // Seeds alternate schemes in pairs (one of each pair restarts the
  // victim), and each scheme's seeds cycle through its every step.
  const TsScheme scheme =
      (seed >> 1) % 2 == 0 ? TsScheme::kHlcSi : TsScheme::kTsoSi;
  const std::vector<CommitStep>& steps = StepsOf(scheme);
  SimClusterConfig cfg;
  cfg.seed = seed;
  cfg.scheme = scheme;
  ChaosFixture f(cfg);

  const int victim_cn = int(seed % 3);
  const int target_step = int(steps[(seed >> 2) % steps.size()]);
  const int flap_dn = int((seed >> 2) % 3);

  // Kill the coordinator the instant its write transaction reaches the
  // target 2PC step. Capture the incarnation id for the invariant check.
  auto killed = std::make_shared<bool>(false);
  auto dead_coordinator = std::make_shared<uint32_t>(0);
  ChaosFixture* fp = &f;
  *f.step_hook = [fp, victim_cn, target_step, killed,
                  dead_coordinator](int cn, int step) {
    if (*killed || cn != victim_cn || step != target_step) return;
    *killed = true;
    *dead_coordinator = fp->cluster->cn_coordinator_id(victim_cn);
    fp->CrashNode(fp->cluster->cn_node(victim_cn));
  };

  // Flap the DN leader mid-run: crash the original leader node at 60ms,
  // bring it back (as a follower) at 700ms.
  NodeId flap_node = f.cluster->dn_member_nodes(flap_dn)[0];
  f.sched.ScheduleAfter(60 * kMs, [fp, flap_node] {
    fp->CrashNode(flap_node);
  });
  f.sched.ScheduleAfter(700 * kMs, [fp, flap_node] {
    fp->RestartNode(flap_node);
  });

  // Odd seeds also restart the victim CN (a NEW coordinator incarnation;
  // the old one's transactions still need lease-expiry recovery).
  if (seed % 2 == 1) {
    f.sched.ScheduleAfter(1200 * kMs, [fp, victim_cn, killed] {
      if (*killed) fp->RestartNode(fp->cluster->cn_node(victim_cn));
    });
  }

  auto remaining = std::make_shared<int>(3 * 8);
  for (int c = 0; c < 3; ++c) {
    f.StartClient(c, 8, remaining, seed * 131 + uint64_t(c));
  }
  // Drive by horizon, not completion: the dead CN's client never finishes.
  // 3 virtual seconds >> lease (100ms) + recovery poll (50ms) + flap window.
  f.RunUntil(3000 * kMs);

  CheckSurvivabilityInvariants(f.cluster.get(), *dead_coordinator);

  // The cluster must still do useful work afterwards: fresh transactions
  // from a surviving CN all complete.
  int live_cn = (victim_cn + 1) % 3;
  auto probe_left = std::make_shared<int>(10);
  f.StartClient(live_cn, 10, probe_left, seed + 9999);
  uint64_t committed_before = f.cluster->stats().committed;
  f.RunUntil(f.sched.Now() + 2000 * kMs);
  EXPECT_EQ(*probe_left, 0) << "cluster cannot make progress after chaos";
  EXPECT_GT(f.cluster->stats().committed, committed_before)
      << "post-chaos probe committed nothing";
  CheckSurvivabilityInvariants(f.cluster.get(), *dead_coordinator);
  // The flapped leader rejoined at 700ms: by now it holds its leader's log.
  chaos::CheckMembersCaughtUp(f.cluster.get());

  const SimClusterStats& stats = f.cluster->stats();
  totals->rpc_retries += stats.rpc_retries;
  totals->leader_failovers += stats.leader_failovers;
  totals->recovery_resolved +=
      stats.recovery_resolved_commits + stats.recovery_resolved_aborts;
  totals->seeds_with_kill += *killed ? 1 : 0;
  if (*killed) totals->killed_at.emplace(scheme, target_step);
}

TEST(ChaosRecoveryTest, CoordinatorKillsAtEveryStepSweep) {
  SweepTotals totals;
  chaos::SeedSweep(50, [&](uint64_t seed) {
    RunRecoveryChaos(seed, &totals);
  });
  // Across the sweep, every survivability mechanism must actually fire:
  // RPC retries (leader flaps force re-routing), leader failovers, and
  // recovery-resolved branches (killed coordinators leave in-doubt work).
  if (std::getenv("POLARX_CHAOS_SEED") == nullptr) {
    EXPECT_GT(totals.seeds_with_kill, 40);
    for (TsScheme scheme : {TsScheme::kHlcSi, TsScheme::kTsoSi}) {
      for (CommitStep step : StepsOf(scheme)) {
        EXPECT_EQ(totals.killed_at.count({scheme, int(step)}), 1u)
            << (scheme == TsScheme::kHlcSi ? "HLC-SI" : "TSO-SI")
            << " never killed a coordinator at step " << int(step);
      }
    }
    EXPECT_GT(totals.rpc_retries, 0u);
    EXPECT_GT(totals.leader_failovers, 0u);
    EXPECT_GT(totals.recovery_resolved, 0u);
  }
}

// ---- implicit commit with a prepare lost: the DN leaders outside the
// coordinator's DC crash just before it sends its prepares, and the
// coordinator dies at its first prepare ACK. The prepares to the crashed
// leaders never land, and failover presumes those ACTIVE branches aborted.
// The resolver must fence those participants and abort; committing at the
// listed max(prepare_ts) would commit one branch of a transaction whose
// other branches are aborted (R3). ----

TEST(ChaosRecoveryTest, LostPrepareIsFencedNotCommitted) {
  uint64_t resolved_aborts = 0;
  chaos::SeedSweep(12, [&](uint64_t seed) {
    SimClusterConfig cfg;
    cfg.seed = seed;
    ChaosFixture f(cfg);
    const int victim_cn = int(seed % 3);
    auto dns_crashed = std::make_shared<bool>(false);
    auto killed = std::make_shared<bool>(false);
    ChaosFixture* fp = &f;
    *f.step_hook = [fp, victim_cn, dns_crashed, killed](int cn, int step) {
      if (*killed || cn != victim_cn) return;
      if (!*dns_crashed && step == int(CommitStep::kBeforePrepare)) {
        // DN i leads in DC i, and CN i sits in DC i.
        *dns_crashed = true;
        for (int dn = 0; dn < fp->cluster->num_dns(); ++dn) {
          if (dn == victim_cn) continue;
          NodeId leader = fp->cluster->dn_member_nodes(dn)[0];
          fp->CrashNode(leader);
          fp->sched.ScheduleAfter(700 * kMs,
                                  [fp, leader] { fp->RestartNode(leader); });
        }
      } else if (*dns_crashed && step == int(CommitStep::kSomePrepared)) {
        *killed = true;
        fp->CrashNode(fp->cluster->cn_node(victim_cn));
      }
    };
    auto remaining = std::make_shared<int>(3 * 8);
    for (int c = 0; c < 3; ++c) {
      f.StartClient(c, 8, remaining, seed * 31 + uint64_t(c));
    }
    f.RunUntil(3000 * kMs);
    CheckSurvivabilityInvariants(f.cluster.get(), 0);
    resolved_aborts += f.cluster->stats().recovery_resolved_aborts;
  });
  if (std::getenv("POLARX_CHAOS_SEED") == nullptr) {
    EXPECT_GT(resolved_aborts, 0u) << "no lost prepare was ever fenced";
  }
}

// ---- pinned recovery footprint: one fixed schedule per kill point, with
// exact resolution, retry, message and event counts. The simulation is
// deterministic, so any change to the commit or recovery message sequence
// moves these. ----

struct RecoveryFootprint {
  uint64_t committed;
  uint64_t aborted;
  uint64_t recovery_resolved_commits;
  uint64_t recovery_resolved_aborts;
  uint64_t rpc_retries;
  uint64_t messages;
  uint64_t events;
};

struct RecoveryFootprintCase {
  const char* name;
  TsScheme scheme;
  CommitStep kill_at;
  bool flap_dn_leader;
  RecoveryFootprint expected;
};

void PrintTo(const RecoveryFootprintCase& c, std::ostream* os) {
  *os << c.name;
}

class RecoveryFootprintTest
    : public ::testing::TestWithParam<RecoveryFootprintCase> {};

TEST_P(RecoveryFootprintTest, MatchesPinnedCounts) {
  const RecoveryFootprintCase& c = GetParam();
  SimClusterConfig cfg;
  cfg.seed = 5;
  cfg.scheme = c.scheme;
  ChaosFixture f(cfg);

  auto killed = std::make_shared<bool>(false);
  ChaosFixture* fp = &f;
  const int kill_at = int(c.kill_at);
  *f.step_hook = [fp, killed, kill_at](int cn, int step) {
    if (*killed || cn != 0 || step != kill_at) return;
    *killed = true;
    fp->CrashNode(fp->cluster->cn_node(0));
  };
  if (c.flap_dn_leader) {
    NodeId flap_node = f.cluster->dn_member_nodes(1)[0];
    f.sched.ScheduleAfter(40 * kMs, [fp, flap_node] {
      fp->CrashNode(flap_node);
    });
    f.sched.ScheduleAfter(600 * kMs, [fp, flap_node] {
      fp->RestartNode(flap_node);
    });
  }

  auto remaining = std::make_shared<int>(3 * 8);
  for (int cn = 0; cn < 3; ++cn) {
    f.StartClient(cn, 8, remaining, 17 + uint64_t(cn));
  }
  f.RunUntil(3000 * kMs);
  ASSERT_TRUE(*killed) << "fault never triggered";
  CheckSurvivabilityInvariants(f.cluster.get(), 0);

  const SimClusterStats& stats = f.cluster->stats();
  RecoveryFootprint got{stats.committed,
                        stats.aborted,
                        stats.recovery_resolved_commits,
                        stats.recovery_resolved_aborts,
                        stats.rpc_retries,
                        f.net.messages_sent(),
                        f.sched.executed_events()};
  const RecoveryFootprint& want = c.expected;
  EXPECT_EQ(got.committed, want.committed);
  EXPECT_EQ(got.aborted, want.aborted);
  EXPECT_EQ(got.recovery_resolved_commits, want.recovery_resolved_commits);
  EXPECT_EQ(got.recovery_resolved_aborts, want.recovery_resolved_aborts);
  EXPECT_EQ(got.rpc_retries, want.rpc_retries);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.events, want.events);
  if (::testing::Test::HasFailure()) {
    std::printf("actual: {%llu, %llu, %llu, %llu, %llu, %llu, %llu}\n",
                (unsigned long long)got.committed,
                (unsigned long long)got.aborted,
                (unsigned long long)got.recovery_resolved_commits,
                (unsigned long long)got.recovery_resolved_aborts,
                (unsigned long long)got.rpc_retries,
                (unsigned long long)got.messages,
                (unsigned long long)got.events);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FixedSeed, RecoveryFootprintTest,
    ::testing::Values(
        RecoveryFootprintCase{"KillAtAllPrepared", TsScheme::kHlcSi,
                              CommitStep::kAllPrepared, false,
                              {16, 0, 2, 0, 0, 2504, 5043}},
        RecoveryFootprintCase{"KillAtSomePreparedWithLeaderFlap",
                              TsScheme::kHlcSi, CommitStep::kSomePrepared,
                              true, {16, 0, 2, 0, 12, 2455, 5013}},
        RecoveryFootprintCase{"KillAtDecidedWithLeaderFlap",
                              TsScheme::kTsoSi, CommitStep::kDecided, true,
                              {15, 1, 2, 0, 18, 2637, 5365}}),
    [](const auto& info) { return std::string(info.param.name); });

// ---- TSO outage: TSO-SI transactions retry with backoff then fail
// cleanly; HLC-SI is untouched by construction ----

TEST(ChaosRecoveryTest, TsoOutageFailsTsoSiTxnsCleanly) {
  SimClusterConfig cfg;
  cfg.seed = 11;
  cfg.scheme = TsScheme::kTsoSi;
  ChaosFixture f(cfg);

  ChaosFixture* fp = &f;
  f.sched.ScheduleAfter(30 * kMs, [fp] {
    fp->net.SetNodeUp(fp->cluster->tso_node(), false);
  });

  auto remaining = std::make_shared<int>(3 * 6);
  for (int c = 0; c < 3; ++c) {
    f.StartClient(c, 6, remaining, 23 + uint64_t(c));
  }
  // Every transaction must finish: committed before the outage, or aborted
  // after the retry budget (deadline 500ms) is exhausted — never hung.
  f.RunUntil(20000 * kMs);
  EXPECT_EQ(*remaining, 0)
      << "a TSO-SI transaction hung instead of failing cleanly";
  const SimClusterStats& stats = f.cluster->stats();
  EXPECT_EQ(stats.committed + stats.aborted, 18u);
  EXPECT_GT(stats.aborted, 0u) << "outage aborted nothing";
  EXPECT_GT(stats.rpc_retries, 0u) << "TSO calls never retried";
  CheckSurvivabilityInvariants(f.cluster.get(), 0);
}

TEST(ChaosRecoveryTest, TsoOutageDoesNotAffectHlcSi) {
  SimClusterConfig cfg;
  cfg.seed = 11;
  cfg.scheme = TsScheme::kHlcSi;
  ChaosFixture f(cfg);

  ChaosFixture* fp = &f;
  f.sched.ScheduleAfter(30 * kMs, [fp] {
    fp->net.SetNodeUp(fp->cluster->tso_node(), false);
  });

  auto remaining = std::make_shared<int>(3 * 8);
  for (int c = 0; c < 3; ++c) {
    f.StartClient(c, 8, remaining, 23 + uint64_t(c));
  }
  f.RunUntil(20000 * kMs);
  EXPECT_EQ(*remaining, 0) << "HLC-SI must not depend on the TSO";
  const SimClusterStats& stats = f.cluster->stats();
  EXPECT_EQ(stats.committed + stats.aborted, 24u);
  EXPECT_GT(stats.committed, 0u);
  EXPECT_EQ(f.cluster->tso()->requests_served(), 0u);
}

}  // namespace
}  // namespace polarx
