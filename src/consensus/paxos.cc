#include "src/consensus/paxos.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace polarx {

std::string_view PaxosRoleName(PaxosRole role) {
  switch (role) {
    case PaxosRole::kLeader:
      return "Leader";
    case PaxosRole::kFollower:
      return "Follower";
    case PaxosRole::kLogger:
      return "Logger";
    case PaxosRole::kCandidate:
      return "Candidate";
  }
  return "?";
}

// -------------------------------------------------- quorum match order --

void QuorumMatchTracker::Reset(size_t quorum) {
  slots_.clear();
  index_.clear();
  quorum_ = quorum == 0 ? 1 : quorum;
}

void QuorumMatchTracker::Set(NodeId id, Lsn lsn) {
  size_t pos;
  auto it = index_.find(id);
  if (it == index_.end()) {
    pos = slots_.size();
    slots_.push_back({id, lsn});
    index_[id] = pos;
  } else {
    pos = it->second;
    if (lsn <= slots_[pos].lsn) return;  // stale/duplicate ack
    slots_[pos].lsn = lsn;
  }
  // Bubble the raised value toward the front to restore descending order.
  while (pos > 0 && slots_[pos - 1].lsn < slots_[pos].lsn) {
    std::swap(slots_[pos - 1], slots_[pos]);
    index_[slots_[pos].id] = pos;
    index_[slots_[pos - 1].id] = pos - 1;
    --pos;
  }
}

Lsn QuorumMatchTracker::QuorumValue() const {
  if (slots_.size() < quorum_) return 0;
  return slots_[quorum_ - 1].lsn;
}

// ---------------------------------------------------------------- group --

PaxosGroup::PaxosGroup(sim::Network* net, PaxosConfig config)
    : net_(net), config_(config) {}

PaxosMember* PaxosGroup::AddMember(NodeId node, PaxosRole role,
                                   RedoLog* log) {
  members_.push_back(std::make_unique<PaxosMember>(this, node, role, log));
  return members_.back().get();
}

PaxosMember* PaxosGroup::member(NodeId node) {
  for (auto& m : members_) {
    if (m->node() == node) return m.get();
  }
  return nullptr;
}

PaxosMember* PaxosGroup::CurrentLeader() {
  for (auto& m : members_) {
    if (m->is_leader() && net_->IsNodeUp(m->node())) return m.get();
  }
  return nullptr;
}

void PaxosGroup::Start() {
  for (auto& m : members_) {
    if (m->is_leader()) {
      m->BecomeLeader();
    } else {
      m->ResetElectionTimer();
    }
  }
}

// --------------------------------------------------------------- member --

PaxosMember::PaxosMember(PaxosGroup* group, NodeId node, PaxosRole role,
                         RedoLog* log)
    : group_(group),
      node_(node),
      role_(role),
      base_role_(role == PaxosRole::kLogger ? PaxosRole::kLogger
                                            : PaxosRole::kFollower),
      log_(log) {
  last_heard_ = group_->scheduler()->Now();
}

const PaxosConfig& PaxosMember::config() const { return group_->config(); }

void PaxosMember::BecomeLeader() {
  role_ = PaxosRole::kLeader;
  if (epoch_ == 0) epoch_ = 1;
  ++timer_generation_;
  peers_.clear();
  match_tracker_.Reset(group_->Quorum());
  match_tracker_.Set(node_, log_->flushed_lsn());
  Lsn end = log_->current_lsn();
  for (auto& m : group_->members()) {
    if (m->node() == node_) continue;
    PeerProgress p;
    p.next_lsn = end;
    p.match_lsn = 1;
    p.last_ack_us = group_->scheduler()->Now();
    peers_[m->node()] = p;
    match_tracker_.Set(m->node(), p.match_lsn);
  }
  POLARX_INFO("node " << node_ << " becomes leader at epoch " << epoch_);
  SendHeartbeats();
}

void PaxosMember::NotifyNewData() {
  if (role_ != PaxosRole::kLeader) return;
  // Bytes appended to the leader's log (by Append or by the DN engine
  // writing redo directly) originate from the leader's current epoch.
  ExtendSpans(epoch_, log_->current_lsn());
  // Leader's own persistence is modeled by the external appender calling
  // MarkFlushed; here we just push to peers.
  for (auto& [peer, progress] : peers_) ReplicateTo(peer);
  RecomputeDlsn();
}

MtrHandle PaxosMember::Append(const std::vector<RedoRecord>& records) {
  MtrHandle h = log_->AppendMtr(records);
  uint64_t gen = timer_generation_;
  uint64_t trunc = truncations_;
  group_->scheduler()->ScheduleAfter(
      group_->config().flush_latency_us, [this, h, gen, trunc] {
        // If the log was truncated while this flush was in flight (we were
        // deposed, or crashed and recovered), the LSN range may hold a new
        // leader's bytes that were never flushed — marking them durable
        // would let a simulated crash wrongly preserve them.
        if (truncations_ != trunc) return;
        log_->MarkFlushed(h.end_lsn);
        if (gen == timer_generation_ && role_ == PaxosRole::kLeader &&
            group_->network()->IsNodeUp(node_)) {
          RecomputeDlsn();
        }
      });
  NotifyNewData();
  return h;
}

void PaxosMember::ReplicateTo(NodeId follower) {
  if (role_ != PaxosRole::kLeader) return;
  if (!group_->network()->IsNodeUp(node_)) return;
  // The DN engine appends redo to our log directly and may only call
  // NotifyNewData later; an ack-triggered send can reach those bytes
  // first. They are ours, so claim them for the current epoch before
  // reading spans — a frame whose payload outruns its spans would leave
  // the follower with bytes it has no origin info for.
  ExtendSpans(epoch_, log_->current_lsn());
  const PaxosConfig& cfg = group_->config();
  auto it = peers_.find(follower);
  if (it == peers_.end()) return;
  PeerProgress& p = it->second;

  while (p.inflight < cfg.max_inflight) {
    Lsn end = log_->current_lsn();
    if (p.next_lsn >= end) break;
    Lsn chunk_end = log_->ChunkEnd(p.next_lsn, cfg.max_batch_bytes);
    if (chunk_end <= p.next_lsn) break;

    AppendFrame frame;
    frame.epoch = epoch_;
    std::string payload;
    log_->ReadBytes(p.next_lsn, chunk_end, &payload);
    if (payload.empty()) break;  // purged or raced; heartbeat will repair
    frame.meta.epoch = epoch_;
    frame.meta.index = ++paxos_index_;
    frame.meta.range_start = p.next_lsn;
    frame.meta.range_end = chunk_end;
    frame.meta.checksum = Crc32(payload.data(), payload.size());
    frame.payload = std::move(payload);
    frame.leader_dlsn = dlsn_;
    frame.leader_log_end = end;
    frame.prev_epoch = EpochAt(p.next_lsn - 1);
    frame.spans = SpansInRange(p.next_lsn, chunk_end);

    p.next_lsn = chunk_end;
    ++p.inflight;
    ++frames_sent_;
    NodeId self = node_;
    PaxosGroup* group = group_;
    // 64 bytes of MLOG_PAXOS framing plus the MTR payload (§III), sized
    // before the lambda capture below moves the payload out of `frame`.
    const size_t wire_bytes = 64 + frame.payload.size();
    group_->network()->Send(
        node_, follower, wire_bytes,
        [group, self, follower, frame = std::move(frame)]() mutable {
          PaxosMember* m = group->member(follower);
          if (m != nullptr) m->HandleAppend(self, frame);
        });
  }
}

void PaxosMember::HandleAppend(NodeId from, const AppendFrame& frame) {
  if (!group_->network()->IsNodeUp(node_)) return;
  ++frames_received_;
  AppendAck ack;
  ack.epoch = epoch_;
  ack.ok = false;
  ack.persisted_lsn = log_->current_lsn();

  if (frame.epoch < epoch_) {
    // Stale leader: reject with our epoch so it steps down.
    group_->network()->Send(node_, from, 32, [this, from, ack] {
      PaxosMember* m = group_->member(from);
      if (m != nullptr) m->HandleAck(node_, ack);
    });
    return;
  }
  if (frame.epoch > epoch_ ||
      role_ == PaxosRole::kLeader || role_ == PaxosRole::kCandidate) {
    StepDown(frame.epoch);
  }
  last_heard_ = group_->scheduler()->Now();
  // A live leader is talking to us: abandon any open pre-vote round so
  // late-arriving grants cannot assemble a quorum and depose it.
  prevote_epoch_ = 0;
  prevote_granted_by_.clear();

  // The leader's log holds every committed byte, so a suffix of ours past
  // its log end is a dead leader's un-acked residue that no frame would
  // ever overlap — discard it now or the logs can never converge. But
  // leader_log_end is only monotonic in SEND order: a duplicated or
  // delay-spiked frame can arrive after later frames were appended, and
  // truncating to its stale value would chop bytes we may already have
  // flushed AND acked (counted into the leader's DLSN). A leader's log end
  // never shrinks while it reigns, so the per-epoch maximum we have seen is
  // always a value its log really reached — truncate only above that.
  if (frame.epoch != leader_log_end_epoch_) {
    leader_log_end_epoch_ = frame.epoch;
    max_leader_log_end_ = 0;
  }
  max_leader_log_end_ = std::max(max_leader_log_end_, frame.leader_log_end);
  Lsn overhang_floor = std::max(
      {max_leader_log_end_, dlsn_, log_->purged_before()});
  if (log_->current_lsn() > overhang_floor) {
    log_->TruncateTo(overhang_floor);
    TrimSpans(overhang_floor);
    NotifyTruncated();
  }

  Lsn expected = log_->current_lsn();
  bool fail = false;
  Lsn rewind_to = expected;  // where the leader should resend from on failure
  if (frame.meta.range_start > expected) {
    // Gap. With pipelining this is usually frame k+1 overtaking frame k in
    // flight, not loss: park the frame so it can apply the moment its
    // prefix lands. Still nack — a genuinely lost prefix needs the leader's
    // prompt rewind — but the nack is suppressed at send time if the gap
    // has closed by then (the parked frame's cumulative ack supersedes it).
    if (ooo_frames_.size() < group_->config().max_inflight) {
      ooo_frames_.emplace(frame.meta.range_start,
                          std::make_pair(from, frame));
    }
    fail = true;
  } else if (Crc32(frame.payload.data(), frame.payload.size()) !=
             frame.meta.checksum) {
    fail = true;
  } else if (frame.meta.range_start > 1 &&
             frame.meta.range_start - 1 >= log_->purged_before() &&
             EpochAt(frame.meta.range_start - 1) != frame.prev_epoch) {
    // Log-matching check failed (Raft's prevLogTerm): the byte before this
    // range came from a different leader's stream than ours, so our suffix
    // diverged. Discard everything above our durable watermark — bytes
    // below it are majority-agreed and must match the leader — and tell
    // the leader to resend from there.
    Lsn safe = std::max(dlsn_, log_->purged_before());
    if (safe < expected) {
      log_->TruncateTo(safe);
      TrimSpans(safe);
      NotifyTruncated();
    }
    fail = true;
    rewind_to = safe;
  } else {
    // Prefix verified. Within the overlapped range, find where (if
    // anywhere) our copy's origin epochs diverge from the frame's: within
    // one epoch byte streams are identical, so agreeing epochs mean
    // agreeing bytes, and the first epoch mismatch is where a dead
    // leader's un-acked suffix starts.
    Lsn overlap_end = std::min(expected, frame.meta.range_end);
    Lsn diverge = FirstEpochDivergence(frame, overlap_end);
    if (diverge < overlap_end) {
      if (diverge < dlsn_) {
        POLARX_WARN("node " << node_ << " asked to truncate below dlsn");
        fail = true;
      } else {
        log_->TruncateTo(diverge);
        TrimSpans(diverge);
        NotifyTruncated();
        log_->AppendRaw(
            frame.payload.substr(diverge - frame.meta.range_start));
        MergeFrameSpans(frame);
      }
    } else if (frame.meta.range_end > expected) {
      log_->AppendRaw(
          frame.payload.substr(expected - frame.meta.range_start));
      MergeFrameSpans(frame);
    }
    // else: duplicate — every byte is already here.
  }

  Lsn new_end = log_->current_lsn();
  ack.epoch = epoch_;
  ack.ok = !fail;
  // A success ack vouches only for bytes this frame actually verified
  // (its range, as Raft's matchIndex): our log may extend past range_end
  // with bytes the leader has not yet compared against its own stream.
  ack.persisted_lsn = fail ? rewind_to : std::min(new_end, frame.meta.range_end);

  // DLSN can only cover bytes this frame verified against the leader's
  // stream: past range_end our log may hold a dead leader's unreplicated
  // tail, and a DLSN over it would refuse the truncation that discards it.
  if (!fail) AdvanceDlsn(std::min(frame.leader_dlsn, ack.persisted_lsn));

  // Persist to PolarFS (flush latency), then ack. The ack claims the bytes
  // up to new_end are durable here — if another leader truncated our log
  // while the flush was in flight, that claim is stale (the bytes are gone
  // or replaced) and sending it would let the old leader count phantom
  // bytes into DLSN; drop it and let retransmission resync.
  if (!fail) {
    // Verified frames share the pending flush window: one flush + one
    // cumulative ack answers every frame that arrived while the previous
    // flush was in flight.
    QueueFlushAck(from, new_end, ack.persisted_lsn);
    DrainOooFrames();
    return;
  }
  // Failure acks are never coalesced — the leader must learn the rewind
  // point promptly, and a cumulative success ack must not paper over it.
  NodeId self = node_;
  PaxosGroup* group = group_;
  uint64_t trunc = truncations_;
  group_->scheduler()->ScheduleAfter(
      group_->config().flush_latency_us,
      [group, self, from, ack, new_end, trunc] {
        PaxosMember* me = group->member(self);
        if (me == nullptr || !group->network()->IsNodeUp(self)) return;
        if (me->truncations_ != trunc) return;
        me->log_->MarkFlushed(new_end);
        // The nack reported our log end at arrival time. If verified bytes
        // have extended past it since (a parked out-of-order frame's prefix
        // landed and drained), the gap it reported is gone: the cumulative
        // success ack supersedes it, and sending the stale rewind would
        // make the leader resend an already-verified window.
        if (!ack.ok && me->log_->current_lsn() > ack.persisted_lsn) return;
        ++me->acks_sent_;
        group->network()->Send(self, from, 32, [group, self, from, ack] {
          PaxosMember* leader = group->member(from);
          if (leader != nullptr) leader->HandleAck(self, ack);
        });
      });
}

void PaxosMember::QueueFlushAck(NodeId leader, Lsn flush_end,
                                Lsn verified_end) {
  pending_flush_end_ = std::max(pending_flush_end_, flush_end);
  pending_ack_verified_ = std::max(pending_ack_verified_, verified_end);
  ++pending_ack_frames_;
  ack_to_ = leader;
  if (!ack_flush_scheduled_) ScheduleAckFlush();
}

void PaxosMember::ScheduleAckFlush() {
  ack_flush_scheduled_ = true;
  NodeId self = node_;
  PaxosGroup* group = group_;
  uint64_t trunc = truncations_;
  group_->scheduler()->ScheduleAfter(
      group_->config().flush_latency_us, [group, self, trunc] {
        PaxosMember* me = group->member(self);
        if (me == nullptr) return;
        me->ack_flush_scheduled_ = false;
        if (!group->network()->IsNodeUp(self)) {
          // Crash voided the window (Recover() resets it anyway).
          me->ResetAckWindow();
          return;
        }
        if (me->truncations_ != trunc) {
          // A truncation voided the window this flush was started for
          // (NotifyTruncated already dropped those claims). Frames that
          // arrived after the truncation are valid and still waiting:
          // restart their flush with full latency.
          if (me->pending_ack_frames_ > 0) me->ScheduleAckFlush();
          return;
        }
        AppendAck ack;
        ack.epoch = me->epoch_;
        ack.ok = true;
        ack.persisted_lsn = me->pending_ack_verified_;
        ack.frames = me->pending_ack_frames_;
        NodeId to = me->ack_to_;
        me->log_->MarkFlushed(me->pending_flush_end_);
        me->pending_ack_frames_ = 0;
        ++me->acks_sent_;
        group->network()->Send(self, to, 32, [group, self, to, ack] {
          PaxosMember* l = group->member(to);
          if (l != nullptr) l->HandleAck(self, ack);
        });
      });
}

void PaxosMember::ResetAckWindow() {
  // Claims accumulated before a truncation/crash vouch for bytes that may
  // no longer exist; keeping the high-water marks could flush or ack a
  // different leader's unverified bytes at the same LSNs.
  pending_flush_end_ = 0;
  pending_ack_verified_ = 0;
  pending_ack_frames_ = 0;
  // Parked frames would be re-verified on drain, but they belong to the
  // stream that was just truncated away; drop them and let the leader's
  // normal repair path resend whatever is still relevant.
  ooo_frames_.clear();
}

void PaxosMember::DrainOooFrames() {
  // Each iteration removes one parked frame, so the recursion through
  // HandleAppend (which calls back here on success) is bounded.
  while (!ooo_frames_.empty()) {
    auto it = ooo_frames_.begin();
    if (it->first > log_->current_lsn()) break;
    NodeId from = it->second.first;
    AppendFrame frame = std::move(it->second.second);
    ooo_frames_.erase(it);
    if (frame.meta.range_end > log_->current_lsn()) {
      // Re-runs every verification (epoch, checksum, log matching) exactly
      // as if the frame had just arrived; its bytes join the coalesced
      // flush/ack window like any other verified frame.
      HandleAppend(from, frame);
    }
    // else: the log already covers it (duplicate of repaired bytes); drop.
  }
}

void PaxosMember::HandleAck(NodeId follower, const AppendAck& ack) {
  if (!group_->network()->IsNodeUp(node_)) return;
  if (ack.epoch > epoch_) {
    StepDown(ack.epoch);
    return;
  }
  if (role_ != PaxosRole::kLeader) return;
  auto it = peers_.find(follower);
  if (it == peers_.end()) return;
  PeerProgress& p = it->second;
  p.last_ack_us = group_->scheduler()->Now();
  // A coalesced ack answers several frames at once; reopen the pipeline
  // window by however many it covers (clamped: duplicated deliveries must
  // not underflow).
  size_t covered = ack.frames == 0 ? 1 : ack.frames;
  p.inflight -= std::min(p.inflight, covered);
  if (ack.ok) {
    p.match_lsn = std::max(p.match_lsn, ack.persisted_lsn);
    match_tracker_.Set(follower, p.match_lsn);
    RecomputeDlsn();
  } else {
    // Rewind to the follower's actual end and retry. The follower's
    // position is a record boundary in ITS stream, not necessarily in
    // ours (its tail may be a dead leader's bytes) — realign down to one
    // of our own boundaries or ChunkEnd would be framing mid-record.
    p.next_lsn =
        log_->BoundaryBefore(std::min(ack.persisted_lsn, log_->current_lsn()));
  }
  ReplicateTo(follower);
}

void PaxosMember::RecomputeDlsn() {
  if (role_ != PaxosRole::kLeader) return;
  // The tracker keeps {leader's flushed LSN, every peer's match LSN} in
  // descending order incrementally; the majority-persisted watermark is a
  // direct index instead of a per-ack sort.
  match_tracker_.Set(node_, log_->flushed_lsn());
  AdvanceDlsn(match_tracker_.QuorumValue());
}

void PaxosMember::AdvanceDlsn(Lsn new_dlsn) {
  if (new_dlsn <= dlsn_) return;
  dlsn_ = new_dlsn;
  ApplyUpTo(dlsn_);
  for (auto& fn : dlsn_callbacks_) fn(dlsn_);
}

void PaxosMember::ApplyUpTo(Lsn lsn) {
  if (role_ == PaxosRole::kLogger) return;  // loggers hold no data
  if (apply_fn_ == nullptr) {
    applied_lsn_ = std::max(applied_lsn_, lsn);
    return;
  }
  if (lsn <= applied_lsn_) return;
  std::vector<RedoRecord> records;
  Status s = log_->ReadRecords(applied_lsn_, lsn, &records);
  if (!s.ok()) {
    POLARX_ERROR("apply failed on node " << node_ << ": " << s.ToString());
    return;
  }
  for (const auto& rec : records) apply_fn_(rec);
  applied_lsn_ = lsn;
}

void PaxosMember::SendHeartbeats() {
  if (role_ != PaxosRole::kLeader) return;
  if (group_->network()->IsNodeUp(node_)) {
    sim::SimTime now = group_->scheduler()->Now();
    ExtendSpans(epoch_, log_->current_lsn());  // cover engine-appended bytes
    for (auto& [peer, p] : peers_) {
      // A peer with frames in flight but no ack for a while lost either
      // the frames or the acks (lossy link, crash): the inflight window
      // would otherwise stay leaked forever and replication to that peer
      // would stall. Resend from its last confirmed position; duplicates
      // are recognized by the receiver and acked with its real end.
      if (p.inflight > 0 &&
          now - p.last_ack_us > group_->config().retransmit_timeout_us) {
        p.inflight = 0;
        p.next_lsn = log_->BoundaryBefore(
            std::min(p.match_lsn, log_->current_lsn()));
        p.last_ack_us = now;
      }
      // Data frames double as heartbeats; otherwise send an empty frame
      // carrying the current DLSN.
      if (p.next_lsn < log_->current_lsn()) {
        ReplicateTo(peer);
        continue;
      }
      AppendFrame frame;
      frame.epoch = epoch_;
      frame.meta.epoch = epoch_;
      frame.meta.range_start = p.next_lsn;
      frame.meta.range_end = p.next_lsn;
      frame.meta.checksum = 0;
      frame.leader_dlsn = dlsn_;
      frame.leader_log_end = log_->current_lsn();
      frame.prev_epoch = EpochAt(p.next_lsn - 1);
      NodeId self = node_;
      PaxosGroup* group = group_;
      NodeId target = peer;
      group_->network()->Send(node_, peer, 64,
                              [group, self, target, frame] {
                                PaxosMember* m = group->member(target);
                                if (m != nullptr) m->HandleAppend(self, frame);
                              });
    }
  }
  uint64_t gen = timer_generation_;
  group_->scheduler()->ScheduleAfter(group_->config().heartbeat_us,
                                     [this, gen] {
                                       if (gen != timer_generation_) return;
                                       if (role_ == PaxosRole::kLeader) {
                                         SendHeartbeats();
                                       }
                                     });
}

void PaxosMember::ResetElectionTimer() {
  uint64_t gen = ++timer_generation_;
  // Jitter the timeout per node AND per retry so elections rarely collide
  // twice in a row. (Pre-vote keeps epoch_ constant across failed rounds,
  // so the epoch alone would re-draw the same timeout forever and two
  // colliding candidates would stay in lockstep.)
  Rng rng(node_ * 7919 + epoch_ * 104729 + gen * 31 + 13);
  sim::SimTime timeout = group_->config().election_timeout_us;
  timeout += rng.Uniform(timeout);  // [T, 2T)
  group_->scheduler()->ScheduleAfter(
      timeout, [this, gen] { MaybeStartElection(gen); });
}

void PaxosMember::MaybeStartElection(uint64_t timer_generation) {
  if (timer_generation != timer_generation_) return;
  if (role_ == PaxosRole::kLeader) return;
  if (!group_->network()->IsNodeUp(node_)) {
    ResetElectionTimer();
    return;
  }
  sim::SimTime now = group_->scheduler()->Now();
  sim::SimTime lease = group_->config().election_timeout_us;
  if (now - last_heard_ < lease) {
    ResetElectionTimer();  // leader lease still fresh
    return;
  }
  if (base_role_ == PaxosRole::kLogger) {
    // Loggers vote but never stand for election (§III).
    ResetElectionTimer();
    return;
  }
  // Pre-vote round: probe whether a quorum would elect us before touching
  // our epoch. A failed real election (still candidate) reverts to
  // follower and must pass the probe again.
  if (role_ == PaxosRole::kCandidate) role_ = base_role_;
  prevote_epoch_ = epoch_ + 1;
  prevote_granted_by_.clear();
  prevote_granted_by_.insert(node_);
  if (prevote_granted_by_.size() >= group_->Quorum()) {
    StartElection();
    return;
  }
  VoteRequest req{prevote_epoch_, log_->current_lsn(), LastLogEpoch(), true};
  for (auto& m : group_->members()) {
    if (m->node() == node_) continue;
    NodeId self = node_;
    NodeId target = m->node();
    PaxosGroup* group = group_;
    group_->network()->Send(node_, target, 32, [group, self, target, req] {
      PaxosMember* peer = group->member(target);
      if (peer != nullptr) peer->HandleVoteRequest(self, req);
    });
  }
  ResetElectionTimer();  // re-probe if this round stalls
}

void PaxosMember::StartElection() {
  prevote_epoch_ = 0;
  prevote_granted_by_.clear();
  role_ = PaxosRole::kCandidate;
  ++epoch_;
  voted_epoch_ = epoch_;
  vote_granted_by_.clear();
  vote_granted_by_.insert(node_);  // self-vote
  ++elections_started_;
  POLARX_INFO("node " << node_ << " starts election for epoch " << epoch_);
  VoteRequest req{epoch_, log_->current_lsn(), LastLogEpoch(), false};
  for (auto& m : group_->members()) {
    if (m->node() == node_) continue;
    NodeId self = node_;
    NodeId target = m->node();
    PaxosGroup* group = group_;
    group_->network()->Send(node_, target, 32, [group, self, target, req] {
      PaxosMember* peer = group->member(target);
      if (peer != nullptr) peer->HandleVoteRequest(self, req);
    });
  }
  ResetElectionTimer();  // retry with a fresh epoch if this one stalls
}

void PaxosMember::HandleVoteRequest(NodeId from, const VoteRequest& req) {
  if (!group_->network()->IsNodeUp(node_)) return;
  bool granted = false;
  sim::SimTime now = group_->scheduler()->Now();
  bool lease_fresh =
      role_ != PaxosRole::kCandidate &&
      now - last_heard_ < group_->config().election_timeout_us;
  if (req.prevote) {
    // Answer the probe without mutating anything: no StepDown, no
    // voted_epoch_ — several candidates may hold pre-votes for the same
    // epoch; only the real vote below is binding.
    bool up_to_date = req.last_log_epoch > LastLogEpoch() ||
                      (req.last_log_epoch == LastLogEpoch() &&
                       req.log_end >= log_->current_lsn());
    granted = req.epoch > epoch_ && !lease_fresh && up_to_date;
    VoteReply reply{epoch_, granted, true};
    NodeId self = node_;
    PaxosGroup* group = group_;
    group_->network()->Send(node_, from, 32, [group, self, from, reply] {
      PaxosMember* candidate = group->member(from);
      if (candidate != nullptr) candidate->HandleVoteReply(self, reply);
    });
    return;
  }
  if (req.epoch > epoch_ && !lease_fresh) {
    StepDown(req.epoch);
    // Grant only to candidates whose log is at least as up-to-date as
    // ours, comparing (last byte's origin epoch, length) — this is what
    // guarantees the new leader holds everything below DLSN. Raw length
    // would let a long stale suffix from a dead leader outrank committed
    // bytes and win.
    bool up_to_date =
        req.last_log_epoch > LastLogEpoch() ||
        (req.last_log_epoch == LastLogEpoch() &&
         req.log_end >= log_->current_lsn());
    if (voted_epoch_ < req.epoch && up_to_date) {
      voted_epoch_ = req.epoch;
      granted = true;
    }
  }
  VoteReply reply{epoch_, granted, false};
  NodeId self = node_;
  PaxosGroup* group = group_;
  group_->network()->Send(node_, from, 32, [group, self, from, reply] {
    PaxosMember* candidate = group->member(from);
    if (candidate != nullptr) candidate->HandleVoteReply(self, reply);
  });
}

void PaxosMember::HandleVoteReply(NodeId from, const VoteReply& reply) {
  if (!group_->network()->IsNodeUp(node_)) return;
  if (reply.prevote) {
    if (role_ == PaxosRole::kLeader || role_ == PaxosRole::kCandidate ||
        prevote_epoch_ == 0) {
      return;  // round is over (we got elected, or moved on)
    }
    if (reply.epoch >= prevote_epoch_) {
      // The voter is already past the epoch we probed for: adopt it and
      // abandon the round — any grants collected were for a lost cause.
      epoch_ = reply.epoch;
      prevote_epoch_ = 0;
      prevote_granted_by_.clear();
      return;
    }
    if (!reply.granted) return;
    prevote_granted_by_.insert(from);
    if (prevote_granted_by_.size() >= group_->Quorum()) StartElection();
    return;
  }
  if (reply.epoch > epoch_) {
    StepDown(reply.epoch);
    return;
  }
  if (role_ != PaxosRole::kCandidate || reply.epoch != epoch_ ||
      !reply.granted) {
    return;
  }
  // Set-based counting: a duplicated delivery of the same grant must not
  // manufacture a quorum.
  vote_granted_by_.insert(from);
  if (vote_granted_by_.size() >= group_->Quorum()) BecomeLeader();
}

void PaxosMember::StepDown(uint64_t new_epoch) {
  bool was_leader = role_ == PaxosRole::kLeader;
  epoch_ = std::max(epoch_, new_epoch);
  // Any open pre-vote round probed for an epoch that is now stale; late
  // grants must not be able to reach quorum and start an election.
  prevote_epoch_ = 0;
  prevote_granted_by_.clear();
  if (role_ == PaxosRole::kLeader || role_ == PaxosRole::kCandidate) {
    role_ = base_role_;
    peers_.clear();
  }
  if (was_leader) {
    // §III old-leader cleanup: entries beyond DLSN may not exist on the new
    // leader; discard them (the DN discards its buffer pool's dirty pages
    // past the same point from an OnTruncate callback).
    log_->TruncateTo(std::max(dlsn_, log_->purged_before()));
    TrimSpans(log_->current_lsn());
    POLARX_INFO("node " << node_ << " deposed; truncated to dlsn " << dlsn_);
    NotifyTruncated();
  }
  ResetElectionTimer();
}

void PaxosMember::Recover() {
  role_ = base_role_;
  peers_.clear();
  // §III: the crash loses whatever was not yet flushed to PolarFS, but
  // persisted bytes survive — they may back an acked commit whose DLSN
  // advance never reached us, and dropping them could leave the majority
  // without a copy. Any stale flushed suffix is repaired later by the
  // log-matching checks.
  log_->TruncateTo(
      std::max({dlsn_, log_->flushed_lsn(), log_->purged_before()}));
  TrimSpans(log_->current_lsn());
  NotifyTruncated();
  last_heard_ = group_->scheduler()->Now();
  ResetElectionTimer();
}

void PaxosMember::NotifyTruncated() {
  ++truncations_;
  ResetAckWindow();
  Lsn end = log_->current_lsn();
  for (auto& fn : truncate_callbacks_) fn(end);
}

// ------------------------------------------------------- epoch spans --

uint64_t PaxosMember::LastLogEpoch() const {
  return epoch_spans_.empty() ? 0 : epoch_spans_.back().epoch;
}

uint64_t PaxosMember::EpochAt(Lsn lsn) const {
  if (lsn < 1) return 0;
  for (const auto& s : epoch_spans_) {
    if (lsn < s.end) return s.epoch;
  }
  return 0;
}

Lsn PaxosMember::SpanEndAt(Lsn lsn) const {
  for (const auto& s : epoch_spans_) {
    if (lsn < s.end) return s.end;
  }
  return lsn;
}

void PaxosMember::ExtendSpans(uint64_t epoch, Lsn end) {
  Lsn have = epoch_spans_.empty() ? 1 : epoch_spans_.back().end;
  if (end <= have) return;
  if (!epoch_spans_.empty() && epoch_spans_.back().epoch == epoch) {
    epoch_spans_.back().end = end;
  } else {
    epoch_spans_.push_back({epoch, end});
  }
}

void PaxosMember::TrimSpans(Lsn end) {
  while (!epoch_spans_.empty()) {
    size_t n = epoch_spans_.size();
    Lsn start = n > 1 ? epoch_spans_[n - 2].end : 1;
    if (start >= end) {
      epoch_spans_.pop_back();
    } else {
      if (epoch_spans_.back().end > end) epoch_spans_.back().end = end;
      break;
    }
  }
}

std::vector<PaxosMember::EpochSpan> PaxosMember::SpansInRange(
    Lsn from, Lsn to) const {
  std::vector<EpochSpan> out;
  for (const auto& s : epoch_spans_) {
    if (s.end <= from) continue;
    out.push_back({s.epoch, std::min(s.end, to)});
    if (s.end >= to) break;
  }
  return out;
}

Lsn PaxosMember::FirstEpochDivergence(const AppendFrame& frame,
                                      Lsn limit) const {
  Lsn pos = frame.meta.range_start;
  size_t fi = 0;
  while (pos < limit) {
    while (fi < frame.spans.size() && frame.spans[fi].end <= pos) ++fi;
    if (fi == frame.spans.size()) break;  // no origin info: stop comparing
    uint64_t mine = EpochAt(pos);
    if (mine != frame.spans[fi].epoch) return pos;
    pos = std::min({frame.spans[fi].end, SpanEndAt(pos), limit});
  }
  return limit;
}

void PaxosMember::MergeFrameSpans(const AppendFrame& frame) {
  Lsn end = log_->current_lsn();
  for (const auto& s : frame.spans) {
    ExtendSpans(s.epoch, std::min(s.end, end));
  }
}

// ----------------------------------------------------- async committer --

AsyncCommitter::AsyncCommitter(PaxosMember* member) : member_(member) {
  member_->OnDlsnAdvance([this](Lsn dlsn) { OnDlsn(dlsn); });
  member_->OnTruncate([this](Lsn new_end) { OnTruncated(new_end); });
}

void AsyncCommitter::Submit(Lsn end_lsn, std::function<void()> done,
                            std::function<void()> failed) {
  if (member_->dlsn() >= end_lsn) {
    ++completed_;
    done();
    return;
  }
  pending_.emplace(end_lsn, Waiter{std::move(done), std::move(failed)});
}

void AsyncCommitter::OnDlsn(Lsn dlsn) {
  auto end = pending_.upper_bound(dlsn);
  for (auto it = pending_.begin(); it != end; ++it) {
    ++completed_;
    it->second.done();
  }
  pending_.erase(pending_.begin(), end);
}

void AsyncCommitter::OnTruncated(Lsn new_end) {
  // Entries past the new log end can never become durable as-submitted:
  // their bytes were discarded, and the same LSN range may be refilled with
  // a different leader's records.
  auto it = pending_.upper_bound(new_end);
  for (auto cur = it; cur != pending_.end(); ++cur) {
    ++failed_count_;
    if (cur->second.failed) cur->second.failed();
  }
  pending_.erase(it, pending_.end());
}

// ------------------------------------------------- group commit driver --

GroupCommitDriver::GroupCommitDriver(sim::Scheduler* scheduler,
                                     PaxosMember* member,
                                     GroupCommitConfig config)
    : scheduler_(scheduler), member_(member), cfg_(config) {
  member_->OnTruncate([this](Lsn new_end) {
    ++truncation_gen_;
    // Requests beyond the new end can never be satisfied as-submitted
    // (AsyncCommitter fails their waiters); don't flush toward them.
    pending_end_ = std::min(pending_end_, new_end);
    for (Lsn& l : fifo_) l = std::min(l, new_end);
  });
}

void GroupCommitDriver::Submit(Lsn end_lsn) {
  ++submits_;
  if (!cfg_.enabled) {
    fifo_.push_back(end_lsn);
    if (!flush_in_flight_) StartFlush();
    return;
  }
  pending_end_ = std::max(pending_end_, end_lsn);
  ++pending_count_;
  // Idle: flush now. Loaded: the in-flight flush's FinishFlush starts the
  // next group, which covers this request.
  if (!flush_in_flight_) StartFlush();
}

void GroupCommitDriver::StartFlush() {
  RedoLog* log = member_->log();
  Lsn base = log->flushed_lsn();
  Lsn target = 0;
  uint64_t group = 0;
  if (!cfg_.enabled) {
    // Per-commit fsync discipline: each request pays its own serialized
    // flush, even when a predecessor's flush already covered its bytes
    // (the syscall still queues behind the device).
    if (fifo_.empty()) return;
    target = fifo_.front();
    fifo_.pop_front();
    group = 1;
  } else {
    if (pending_end_ <= base) {
      pending_count_ = 0;
      return;
    }
    target = pending_end_;
    if (target - base > cfg_.max_group_bytes) {
      Lsn cut = log->BoundaryBefore(base + cfg_.max_group_bytes);
      // A single MTR larger than the cap still flushes whole (the cap
      // splits groups, never records).
      if (cut > base) target = cut;
    }
    group = pending_count_;
    if (target >= pending_end_) pending_count_ = 0;
  }
  flush_in_flight_ = true;
  ++flushes_;
  if (group > 1) ++grouped_flushes_;
  max_group_ = std::max(max_group_, group);
  uint64_t gen = truncation_gen_;
  scheduler_->ScheduleAfter(
      member_->config().flush_latency_us,
      [this, target, gen] { FinishFlush(target, gen); });
}

void GroupCommitDriver::FinishFlush(Lsn target, uint64_t gen) {
  flush_in_flight_ = false;
  if (gen == truncation_gen_) {
    member_->log()->MarkFlushed(target);
    // One replication kick (and DLSN recompute) for the whole group.
    member_->NotifyNewData();
  }
  bool more = cfg_.enabled ? pending_end_ > member_->log()->flushed_lsn()
                           : !fifo_.empty();
  if (more) StartFlush();
}

}  // namespace polarx
