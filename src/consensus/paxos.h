// Paxos-with-leader-lease replication of the redo log stream across
// datacenters (§III). One PaxosGroup replicates one DN's redo log:
//
//  - Leader: executes transactions (its RedoLog is appended externally),
//    streams redo bytes to followers in MLOG_PAXOS-framed batches
//    (<= 16 KB of MTR payload per frame), pipelined without waiting for
//    prior acks.
//  - Follower: persists received bytes to its local log (modeled PolarFS
//    flush latency), acks, and applies records only up to DLSN.
//  - Logger: like a follower but holds no data and can never become leader;
//    it votes and its persisted log counts toward the majority.
//
// DLSN (durable LSN) is the majority-persisted watermark: entries below it
// survive any single-DC disaster. Transaction commit completion is driven
// by DLSN advancement (asynchronous commit, see AsyncCommitter), and the
// buffer pool may only flush pages whose newest modification <= DLSN.
//
// Election follows the leader-lease discipline: followers only start an
// election after the lease (no heartbeat for election_timeout) expires, and
// grant votes only to candidates whose log is at least as up-to-date as
// theirs. "Up-to-date" compares (epoch of the last log byte, log length)
// lexicographically — length alone would let a node holding a long but
// stale suffix from a dead leader win and overwrite committed bytes. Each
// member therefore tracks which epoch's replication stream produced every
// byte range of its log (epoch spans, the byte-stream analogue of Raft's
// per-entry terms); frames carry the origin epochs of their payload plus
// the epoch of the byte just before it, giving the same log-matching
// induction as Raft's prevLogTerm check.
// A deposed leader truncates its unacknowledged suffix and discards the
// corresponding dirty pages (§III "memory state cleaning").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/sim/network.h"
#include "src/sim/scheduler.h"
#include "src/storage/redo.h"

namespace polarx {

enum class PaxosRole : uint8_t { kLeader, kFollower, kLogger, kCandidate };

std::string_view PaxosRoleName(PaxosRole role);

struct PaxosConfig {
  /// Max MTR payload bytes per MLOG_PAXOS frame (§III: 16 KB).
  size_t max_batch_bytes = 16 * 1024;
  /// Max frames in flight per follower; 1 is stop-and-wait, each frame
  /// waiting for the previous frame's ack (A2 ablation).
  size_t max_inflight = 64;
  /// Simulated local PolarFS append latency for persisting log, on the
  /// leader (one per group-commit flush) and on followers alike.
  sim::SimTime flush_latency_us = 40;
  /// Leader heartbeat period (also carries DLSN advancement).
  sim::SimTime heartbeat_us = 20 * 1000;
  /// Follower election timeout (lease length); randomized +-50% per node.
  sim::SimTime election_timeout_us = 150 * 1000;
  /// If a peer with frames in flight has not acked for this long, assume
  /// the frames (or their acks) were lost and resend from its last match.
  sim::SimTime retransmit_timeout_us = 60 * 1000;
};

class PaxosGroup;

/// Incrementally maintained order statistics over per-node persisted LSNs.
/// The leader's DLSN is the quorum-th largest of {leader's flushed LSN,
/// every peer's match LSN}; recomputing that with a sort on every ack is
/// O(n log n) per ack. Values here only move up (match LSNs are monotonic
/// while a leader reigns), so a single bubble pass keeps a descending
/// array sorted in O(n) worst case and O(1) amortized, and the quorum
/// watermark is a direct index.
class QuorumMatchTracker {
 public:
  /// Clears all entries and fixes the quorum size (1-based rank of the
  /// value that a majority of nodes has persisted).
  void Reset(size_t quorum);

  /// Sets node `id`'s persisted LSN. Decreases are ignored: an older
  /// (reordered/duplicated) ack can never lower what a node vouched for.
  void Set(NodeId id, Lsn lsn);

  /// The quorum-th largest tracked value, or 0 if fewer than `quorum`
  /// nodes are tracked.
  Lsn QuorumValue() const;

  size_t size() const { return slots_.size(); }

 private:
  struct Slot {
    NodeId id;
    Lsn lsn;
  };
  std::vector<Slot> slots_;          // sorted by lsn, descending
  std::map<NodeId, size_t> index_;   // id -> position in slots_
  size_t quorum_ = 1;
};

/// One replica of the group.
class PaxosMember {
 public:
  PaxosMember(PaxosGroup* group, NodeId node, PaxosRole role,
              RedoLog* log);

  NodeId node() const { return node_; }
  PaxosRole role() const { return role_; }
  uint64_t epoch() const { return epoch_; }
  Lsn dlsn() const { return dlsn_; }
  RedoLog* log() { return log_; }
  bool is_leader() const { return role_ == PaxosRole::kLeader; }
  const PaxosConfig& config() const;

  /// Applied watermark: records below this have been handed to apply_fn.
  Lsn applied_lsn() const { return applied_lsn_; }

  /// Called by the group/leader-side driver when new bytes were appended to
  /// the leader's log; triggers replication.
  void NotifyNewData();

  /// Leader-side convenience: appends an MTR to the local log, schedules the
  /// local PolarFS flush (after which it counts toward the majority), and
  /// kicks replication. Returns the MTR handle (commit completion should be
  /// parked on handle.end_lsn via AsyncCommitter).
  MtrHandle Append(const std::vector<RedoRecord>& records);

  /// Installs a callback fired whenever this member's DLSN advances
  /// (async commit wakes up from here).
  void OnDlsnAdvance(std::function<void(Lsn)> fn) {
    dlsn_callbacks_.push_back(std::move(fn));
  }

  /// Installs a callback fired after this member truncates its log (leader
  /// deposition or crash recovery), with the new log end. Commit waiters
  /// parked beyond it must fail: those LSNs may be reassigned to different
  /// bytes by the new leader, so a later DLSN advance past them would
  /// otherwise acknowledge a transaction whose records are gone.
  void OnTruncate(std::function<void(Lsn)> fn) {
    truncate_callbacks_.push_back(std::move(fn));
  }

  /// Installs the apply hook: receives each redo record as it becomes
  /// applicable (i.e. once covered by DLSN).
  void SetApplyFn(std::function<void(const RedoRecord&)> fn) {
    apply_fn_ = std::move(fn);
  }

  /// Called after a crash/restart to rejoin with cleaned state.
  void Recover();

  /// Telemetry.
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t elections_started() const { return elections_started_; }
  uint64_t acks_sent() const { return acks_sent_; }

 private:
  friend class PaxosGroup;

  /// Bytes in (previous span's end, end) were produced by this epoch's
  /// leader; a member's span list covers its whole log starting at LSN 1.
  struct EpochSpan {
    uint64_t epoch;
    Lsn end;
  };
  struct AppendFrame {
    uint64_t epoch;
    PaxosMeta meta;       // the MLOG_PAXOS framing record
    std::string payload;  // raw redo bytes [meta.range_start, meta.range_end)
    Lsn leader_dlsn;
    /// The leader's log end when the frame was sent. A current-epoch
    /// leader's log contains every committed byte, so a follower holding a
    /// longer log is carrying a dead leader's un-acked residue and can
    /// discard the overhang (no future frame would ever overlap it).
    Lsn leader_log_end = 0;
    /// Epoch of the leader's byte at range_start - 1 (0 if none): the
    /// log-matching consistency check, as Raft's prevLogTerm.
    uint64_t prev_epoch = 0;
    /// Origin epochs of the payload bytes (leader's spans over the range).
    std::vector<EpochSpan> spans;
  };
  struct AppendAck {
    uint64_t epoch;
    bool ok;
    Lsn persisted_lsn;  // follower log end, or the rewind point on failure
    /// How many AppendFrames this (coalesced) ack answers; the leader
    /// opens its in-flight window by this much. Failure acks always
    /// cover exactly the frame that failed.
    uint32_t frames = 1;
  };
  struct VoteRequest {
    uint64_t epoch;
    Lsn log_end;
    uint64_t last_log_epoch;  // origin epoch of the candidate's last byte
    /// Pre-vote probe (Raft §9.6): "would you elect me at `epoch`?" —
    /// answered without changing any voter state. A node only bumps its
    /// epoch and runs a real election after a quorum says yes, so a
    /// rejoined node with a stale log can never inflate its epoch and
    /// depose a healthy leader it could not replace.
    bool prevote = false;
  };
  struct VoteReply {
    uint64_t epoch;
    bool granted;
    bool prevote = false;
  };

  // -- leader side --
  void BecomeLeader();
  void ReplicateTo(NodeId follower);
  void HandleAck(NodeId follower, const AppendAck& ack);
  void RecomputeDlsn();
  void SendHeartbeats();

  // -- follower side --
  void HandleAppend(NodeId from, const AppendFrame& frame);
  /// Folds one verified frame into the pending flush/ack window. One
  /// PolarFS flush (and one cumulative ack) answers every frame that
  /// arrived while the flush was in flight, instead of a flush + ack per
  /// frame — the follower half of pipelined replication.
  void QueueFlushAck(NodeId leader, Lsn flush_end, Lsn verified_end);
  /// Starts the modeled PolarFS flush closing the current ack window.
  void ScheduleAckFlush();
  /// Drops coalesced flush/ack state; pending claims are void after a
  /// truncation (the bytes they vouch for may be gone).
  void ResetAckWindow();
  /// Applies parked out-of-order frames whose prefix has arrived (each is
  /// re-verified exactly like a fresh delivery).
  void DrainOooFrames();
  void AdvanceDlsn(Lsn new_dlsn);
  void ApplyUpTo(Lsn lsn);
  void ResetElectionTimer();
  void MaybeStartElection(uint64_t timer_generation);
  void StartElection();
  void HandleVoteRequest(NodeId from, const VoteRequest& req);
  void HandleVoteReply(NodeId from, const VoteReply& reply);
  void StepDown(uint64_t new_epoch);
  void NotifyTruncated();

  // -- epoch-span bookkeeping (per-byte origin epochs) --
  /// Origin epoch of the member's last log byte (0 for an empty log).
  uint64_t LastLogEpoch() const;
  /// Origin epoch of byte `lsn`, or 0 if the spans don't cover it.
  uint64_t EpochAt(Lsn lsn) const;
  /// End of the span covering byte `lsn` (requires EpochAt(lsn) != 0).
  Lsn SpanEndAt(Lsn lsn) const;
  /// Records that bytes up to `end` originate from `epoch`'s stream.
  void ExtendSpans(uint64_t epoch, Lsn end);
  /// Drops span info beyond `end` (mirrors RedoLog::TruncateTo).
  void TrimSpans(Lsn end);
  /// The spans covering [from, to), clipped, for stamping a frame.
  std::vector<EpochSpan> SpansInRange(Lsn from, Lsn to) const;
  /// First LSN in [frame.range_start, limit) where our byte's origin epoch
  /// differs from the frame's, or `limit` if the overlap agrees.
  Lsn FirstEpochDivergence(const AppendFrame& frame, Lsn limit) const;
  /// Adopts the frame's origin epochs for bytes we just appended.
  void MergeFrameSpans(const AppendFrame& frame);

  PaxosGroup* group_;
  NodeId node_;
  PaxosRole role_;
  PaxosRole base_role_;  // kFollower or kLogger (what we revert to)
  RedoLog* log_;

  uint64_t epoch_ = 0;
  uint64_t voted_epoch_ = 0;
  Lsn dlsn_ = 1;
  Lsn applied_lsn_ = 1;
  /// Bumped on every log truncation; in-flight flush acks captured before a
  /// truncation are stale (they vouch for bytes that no longer exist) and
  /// check this counter before sending.
  uint64_t truncations_ = 0;
  /// Which epoch's replication stream produced each byte range of the log.
  std::vector<EpochSpan> epoch_spans_;
  /// Highest leader_log_end seen in frames from `leader_log_end_epoch_`'s
  /// leader. Frames can be duplicated or reordered in flight, so a single
  /// frame's leader_log_end may be stale; overhang truncation uses this
  /// per-epoch maximum so it never discards bytes a later frame delivered
  /// (they may already be flushed and acked into the leader's DLSN).
  uint64_t leader_log_end_epoch_ = 0;
  Lsn max_leader_log_end_ = 0;

  // Leader replication state.
  struct PeerProgress {
    Lsn next_lsn = 1;          // next byte to send
    Lsn match_lsn = 1;         // highest acked persisted lsn
    size_t inflight = 0;       // frames awaiting ack
    sim::SimTime last_ack_us = 0;  // when we last heard an ack from this peer
  };
  std::map<NodeId, PeerProgress> peers_;
  /// Incremental (leader flush, peer match) order statistics backing
  /// RecomputeDlsn; rebuilt on BecomeLeader.
  QuorumMatchTracker match_tracker_;
  uint64_t paxos_index_ = 0;

  // Follower-side coalesced flush/ack window (see QueueFlushAck).
  Lsn pending_flush_end_ = 0;      // highest log end to persist
  Lsn pending_ack_verified_ = 0;   // highest frame-verified byte to vouch for
  uint32_t pending_ack_frames_ = 0;
  bool ack_flush_scheduled_ = false;
  NodeId ack_to_ = 0;
  /// Pipelined frames that overtook their predecessor in flight, parked
  /// (keyed by range_start, with their sender) until the prefix lands;
  /// without this, every in-flight reordering turns into a nack, a leader
  /// rewind, and a resend of the whole window. Bounded by max_inflight.
  std::map<Lsn, std::pair<NodeId, AppendFrame>> ooo_frames_;

  // Election state. Granting voters are tracked by id so a duplicated
  // vote-reply delivery cannot be double-counted toward the quorum.
  uint64_t timer_generation_ = 0;
  sim::SimTime last_heard_ = 0;
  std::set<NodeId> vote_granted_by_;
  /// Pre-vote round state: the epoch we are probing for (0 = no round
  /// open) and who said they would grant it.
  uint64_t prevote_epoch_ = 0;
  std::set<NodeId> prevote_granted_by_;

  std::vector<std::function<void(Lsn)>> dlsn_callbacks_;
  std::vector<std::function<void(Lsn)>> truncate_callbacks_;
  std::function<void(const RedoRecord&)> apply_fn_;

  uint64_t frames_sent_ = 0;
  uint64_t frames_received_ = 0;
  uint64_t elections_started_ = 0;
  uint64_t acks_sent_ = 0;
};

/// The replication group: owns membership and wiring to the sim network.
class PaxosGroup {
 public:
  PaxosGroup(sim::Network* net, PaxosConfig config = {});

  /// Adds a member on network node `node` with its own redo log. The first
  /// member added with role kFollower/kLeader order: pass kLeader for the
  /// initial leader. Loggers hold a log but never data/apply.
  PaxosMember* AddMember(NodeId node, PaxosRole role, RedoLog* log);

  /// Starts timers (heartbeats, election timers). Call once after members
  /// are added.
  void Start();

  PaxosMember* member(NodeId node);
  const std::vector<std::unique_ptr<PaxosMember>>& members() const {
    return members_;
  }
  /// The current leader if any member believes it is leader, else nullptr.
  PaxosMember* CurrentLeader();

  sim::Network* network() { return net_; }
  sim::Scheduler* scheduler() { return net_->scheduler(); }
  const PaxosConfig& config() const { return config_; }

  /// Majority size (counting all members incl. loggers).
  size_t Quorum() const { return members_.size() / 2 + 1; }

 private:
  friend class PaxosMember;
  sim::Network* net_;
  PaxosConfig config_;
  std::vector<std::unique_ptr<PaxosMember>> members_;
};

/// The paper's async_log_committer (§III): transactions park their
/// completion callbacks keyed by their last MTR's end LSN; DLSN advancement
/// releases them in order, so foreground threads never block on cross-DC
/// round trips. When the member truncates its log (deposed leader cleaning
/// un-acked suffix, crash recovery), waiters parked beyond the new end fail:
/// their records no longer exist and the LSN range may be reused for
/// different bytes by the new leader.
class AsyncCommitter {
 public:
  /// Attaches to a member's DLSN and truncation notifications.
  explicit AsyncCommitter(PaxosMember* member);

  /// Registers a transaction whose last MTR ends at `end_lsn`; `done` fires
  /// once DLSN >= end_lsn (immediately if already durable). `failed`, if
  /// set, fires instead when the member truncates below end_lsn before the
  /// entry becomes durable (the caller must retry or abort the transaction).
  void Submit(Lsn end_lsn, std::function<void()> done,
              std::function<void()> failed = nullptr);

  size_t pending() const { return pending_.size(); }
  uint64_t completed() const { return completed_; }
  uint64_t failed() const { return failed_count_; }

 private:
  struct Waiter {
    std::function<void()> done;
    std::function<void()> failed;
  };

  void OnDlsn(Lsn dlsn);
  void OnTruncated(Lsn new_end);

  PaxosMember* member_;
  std::multimap<Lsn, Waiter> pending_;
  uint64_t completed_ = 0;
  uint64_t failed_count_ = 0;
};

struct GroupCommitConfig {
  /// Off = the pre-batching write path: every commit pays its own PolarFS
  /// flush (FIFO-serialized, as one fsync at a time) and its own
  /// replication kick. On = all requests queued while a flush is in
  /// flight share the next flush and one replication kick.
  bool enabled = true;
  /// A single group flush covers at most this many log bytes; larger
  /// backlogs are split at an MTR boundary across several flushes.
  size_t max_group_bytes = 1 << 20;
};

/// Leader-side redo group commit (the delay-and-batch lever of §IV/STAR):
/// transaction commits no longer call MarkFlushed synchronously; they
/// Submit their MTR's end LSN here and park completion on the
/// AsyncCommitter. The driver runs at most one modeled PolarFS flush at a
/// time; everything submitted while a flush is in flight is coalesced
/// into the next one, and each completed flush issues a single
/// NotifyNewData so the whole group rides one replication kick. A
/// truncation (leader deposed, crash recovery) voids in-flight flushes:
/// their target LSNs may be rewound and refilled with different bytes, so
/// completing them would mark unverified bytes durable.
class GroupCommitDriver {
 public:
  GroupCommitDriver(sim::Scheduler* scheduler, PaxosMember* member,
                    GroupCommitConfig config = {});

  /// Requests durability (flush + replication kick) up to `end_lsn`.
  /// Completion is observed via the member's DLSN (AsyncCommitter), not
  /// returned from here.
  void Submit(Lsn end_lsn);

  /// Telemetry: batching effectiveness = submits() / flushes().
  uint64_t submits() const { return submits_; }
  uint64_t flushes() const { return flushes_; }
  uint64_t grouped_flushes() const { return grouped_flushes_; }
  uint64_t max_group() const { return max_group_; }

 private:
  void StartFlush();
  void FinishFlush(Lsn target, uint64_t gen);

  sim::Scheduler* scheduler_;
  PaxosMember* member_;
  GroupCommitConfig cfg_;

  bool flush_in_flight_ = false;
  /// Bumped when the member truncates its log; flushes started before a
  /// truncation must not complete (same discipline as PaxosMember's
  /// truncations_ counter).
  uint64_t truncation_gen_ = 0;

  // enabled mode: one coalesced window.
  Lsn pending_end_ = 0;
  uint64_t pending_count_ = 0;
  // disabled mode: per-commit FIFO flush queue.
  std::deque<Lsn> fifo_;

  uint64_t submits_ = 0;
  uint64_t flushes_ = 0;
  uint64_t grouped_flushes_ = 0;
  uint64_t max_group_ = 0;
};

}  // namespace polarx
