// The CN-side distributed transaction coordinator (§IV): two-phase commit
// over multiple DN transaction engines, with pluggable timestamping:
//
//  - HLC-SI (the paper's contribution): snapshot_ts = coordinator
//    ClockNow(); each participant returns prepare_ts = ClockAdvance();
//    commit_ts = max(prepare_ts). The coordinator calls ClockUpdate exactly
//    once, with that max (the paper's second optimization), then fans
//    commit_ts out to participants, whose engines ClockUpdate on commit.
//    commit_ts is fixed once every branch is PREPARED, and each prepare
//    record names every participant, so "all prepared" is the commit point
//    (implicit commit): the write is acknowledged there and no decision
//    record is written. A write with a single branch commits in one phase.
//
//  - TSO-SI (Percolator/TiDB baseline): snapshot_ts and commit_ts are both
//    fetched from the central TsoService. commit_ts is fetched after
//    prepare, so the decision is recorded at a commit owner before the
//    acknowledgement.
//
// The 2PC state machine is written once, in continuation-passing style,
// against the TxnParticipants interface, and so is the DN side of every
// call (ServeParticipantCall). A statement is one more call: it carries
// the branch context the coordinator holds, and the branch's first
// statement ships snapshot_ts to the DN, which starts the branch there
// (§IV step 3). Two transports implement the interface: LocalParticipants
// calls TxnEngines in-process and completes every call inline (the
// synchronous Begin/Read/.../Commit/Abort below), and SimCluster
// (src/cn/sim_cluster.h) sends each call as a retried RPC over the
// simulated network, where every TSO fetch is a round trip to the TSO's
// datacenter. The only statement logic a transport adds is the
// prepared-wait: a point read blocked by a PREPARED writer is served again
// once the writer resolves. The in-doubt resolver (src/txn/recovery.h)
// runs over the same interface.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/clock/hlc.h"
#include "src/clock/tso.h"
#include "src/common/status.h"
#include "src/txn/engine.h"

namespace polarx {

/// Which snapshot-isolation timestamping scheme a coordinator uses.
enum class TsScheme { kHlcSi, kTsoSi };

/// 2PC step boundaries at which the coordinator fires its step hook — the
/// exact instants chaos tests kill coordinators at. Under HLC-SI the commit
/// point is kAllPrepared: the write is acknowledged right after it passes,
/// and kDecided never fires (a one-phase write fires kAllPrepared once its
/// only branch has committed, and no phase-2 step). Under TSO-SI the
/// acknowledgement follows kDecided. A coordinator killed at or after its
/// scheme's commit point leaves a committed transaction, which the
/// in-doubt resolver finishes.
enum class CommitStep : int {
  kBeforePrepare = 1,     // write txn entering 2PC, nothing sent yet
  kSomePrepared = 2,      // one prepare ACKed, others still outstanding
  kAllPrepared = 3,       // every branch ACKed prepare
  kDecided = 4,           // TSO-SI: decision durable; client not yet acked
  kFirstCommitAcked = 5,  // acked; one branch committed, others prepared
  kPhaseTwoDone = 6       // every phase-2 commit answered
};

/// One statement of a transaction branch. Writes install versions without
/// an existence check, except Insert, which refuses a visible key.
struct Statement {
  enum class Kind { kRead, kScan, kInsert, kUpdate, kDelete };
  Kind kind = Kind::kRead;
  TableId table = 0;
  EncodedKey key{};  // read, delete; the start of a scan
  EncodedKey end{};  // scan: exclusive end (empty = unbounded)
  Row row{};         // insert, update
};

/// One coordinator or resolver call to a participant DN.
struct ParticipantCall {
  enum class Op {
    kStatement,
    kPrepare,
    kCommitOnePhase,
    kDecideCommit,
    kCommit,
    kAbort,
    kListUnresolved,
    kDecisionOrPresumeAbort,
    kFence,
  };
  explicit ParticipantCall(Op o) : op(o) {}
  Op op;
  /// Prepare, one-phase, commit, abort; a statement's known branch, or
  /// none before its first statement on this participant.
  TxnId branch = kInvalidTxnId;
  GlobalTxnId global_id = kInvalidGlobalTxnId;  // statement, decide, fence
  Timestamp commit_ts = kInvalidTimestamp;       // decide, commit
  uint32_t commit_owner = 0;                     // prepare (TSO-SI)
  std::vector<uint32_t> participants;            // prepare (HLC-SI)
  std::set<uint32_t> dead_coordinators;          // list-unresolved
  Statement statement;                           // statement
  Timestamp snapshot_ts = kInvalidTimestamp;     // statement
  uint32_t coordinator = 0;                      // statement
  /// Statement (HLC-SI): the DN clock takes ClockUpdate(snapshot_ts)
  /// before it starts the branch.
  bool clock_update = false;
  /// Issued by the in-doubt resolver, whose failed calls are retried by
  /// its next sweep, rather than by a coordinator, whose calls after the
  /// commit point must land.
  bool resolving = false;
};

/// A participant's answer to one call (fields used depend on the call).
struct ParticipantReply {
  ParticipantReply() = default;
  ParticipantReply(Status s, Timestamp t = 0)  // NOLINT(runtime/explicit)
      : status(std::move(s)), ts(t) {}
  Status status;
  Timestamp ts = 0;  // prepare_ts, commit_ts, or a TSO timestamp
  CommitDecision decision;          // decision-or-presume-abort
  std::vector<TxnInfo> unresolved;  // list-unresolved: branch metadata
  TxnInfo info;                     // fence: the global's branch, as it is
  TxnId branch = kInvalidTxnId;     // statement: the branch it ran on
  Row row;                          // point read: the row read
  /// Point read answered Busy: the PREPARED writer it must wait for.
  TxnId blocker = kInvalidTxnId;
  /// DN side only: the answer reports state or a record this call logged,
  /// so a replicated DN holds it until its log is majority-durable.
  bool await_durable = false;
};
using ReplyFn = std::function<void(ParticipantReply)>;

/// What a participant DN does for `call` — the one DN-side implementation
/// every transport runs.
ParticipantReply ServeParticipantCall(TxnEngine* engine,
                                      const ParticipantCall& call);

/// The participants (named by engine id) and the TSO, as the coordinator
/// and the resolver reach them. Every callback fires exactly once, or never
/// if the calling CN died.
class TxnParticipants {
 public:
  virtual ~TxnParticipants() = default;
  /// Every participant's engine id, ascending.
  virtual std::vector<uint32_t> participant_ids() const = 0;
  virtual void Call(uint32_t participant, ParticipantCall call,
                    ReplyFn done) = 0;
  /// One timestamp from the TSO (TSO-SI).
  virtual void FetchTso(ReplyFn done) = 0;
  /// Whether `participant` is served from the caller's own datacenter. The
  /// coordinator prefers such a branch as commit owner, so the commit-point
  /// round trip stays inside the datacenter.
  virtual bool IsLocal(uint32_t /*participant*/) const { return false; }
};

/// In-process transport: calls the engines directly, so every callback
/// fires inline. A point read blocked by a PREPARED writer blocks the
/// calling thread until the writer resolves, then runs again (bounded).
class LocalParticipants : public TxnParticipants {
 public:
  explicit LocalParticipants(TsoService* tso = nullptr,
                             const std::vector<TxnEngine*>& engines = {});
  void Add(TxnEngine* engine) { engines_[engine->engine_id()] = engine; }

  std::vector<uint32_t> participant_ids() const override;
  void Call(uint32_t participant, ParticipantCall call,
            ReplyFn done) override;
  void FetchTso(ReplyFn done) override;

 private:
  TsoService* tso_;
  std::map<uint32_t, TxnEngine*> engines_;
};

/// Coordinator-side state of one distributed transaction.
class DistributedTxn {
 public:
  Timestamp snapshot_ts() const { return snapshot_ts_; }
  Timestamp commit_ts() const { return commit_ts_; }
  bool resolved() const { return resolved_; }
  GlobalTxnId global_id() const { return global_id_; }
  /// Committed by one one-phase call to its only participant.
  bool one_phase() const { return one_phase_; }
  /// Participant engine id -> branch id, ascending.
  const std::map<uint32_t, TxnId>& branches() const { return branches_; }

 private:
  friend class TxnCoordinator;
  Timestamp snapshot_ts_ = 0;
  Timestamp commit_ts_ = 0;
  GlobalTxnId global_id_ = kInvalidGlobalTxnId;
  bool resolved_ = false;
  bool one_phase_ = false;
  bool prepare_started_ = false;  // at least one branch reached PREPARED
  std::map<uint32_t, TxnId> branches_;
};

/// Aggregate coordinator statistics.
struct CoordinatorStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  /// Split of `aborted` by where in 2PC the abort happened: before any
  /// branch was prepared (cheap, nothing was in doubt) vs after (the
  /// in-doubt window recovery exists for).
  uint64_t aborts_before_prepare = 0;
  uint64_t aborts_after_prepare = 0;
  uint64_t tso_calls = 0;
  /// Phase-2 commits that failed after the transaction was acknowledged.
  /// The decision is durable, so the transport re-drives them or the
  /// in-doubt resolver finishes the branch; the caller never hears of it.
  uint64_t commit_failures_after_ack = 0;
};

/// Distributed transaction coordinator: the 2PC state machine over a
/// TxnParticipants transport.
class TxnCoordinator {
 public:
  /// Fired at each CommitStep of the transaction `global_id`; returns false
  /// if the coordinator died there, which stops the machine (its callbacks
  /// then never fire).
  using StepHook = std::function<bool(CommitStep, GlobalTxnId global_id)>;

  /// In-process coordinator over LocalParticipants. For kHlcSi, `cn_hlc`
  /// is this CN's clock and `tso` may be null. For kTsoSi, `tso` must be
  /// non-null. `coordinator_id` identifies this coordinator incarnation in
  /// prepare records (what in-doubt recovery matches dead coordinators
  /// against) and namespaces global txn ids.
  TxnCoordinator(TsScheme scheme, Hlc* cn_hlc, TsoService* tso,
                 uint32_t coordinator_id = 0);
  /// Coordinator over any transport. The synchronous statement methods
  /// below need one that answers inline.
  TxnCoordinator(TxnParticipants* participants, TsScheme scheme, Hlc* cn_hlc,
                 uint32_t coordinator_id);

  uint32_t coordinator_id() const { return coordinator_id_; }
  void set_step_hook(StepHook hook) { step_hook_ = std::move(hook); }

  // ---- the state machine (any transport) ----

  /// Mints a transaction's global id; its snapshot comes separately.
  DistributedTxn NewTxn();
  /// Takes snapshot_ts: ClockNow under HLC-SI (inline), one TSO fetch
  /// under TSO-SI.
  void AcquireSnapshot(DistributedTxn* txn, std::function<void(Status)> done);
  /// Runs `statement` on `participant`'s branch of `txn`; the first
  /// statement there starts the branch. `done` gets the reply (the row of
  /// a point read) once the branch it ran on is recorded in `txn`.
  void ExecuteAsync(DistributedTxn* txn, uint32_t participant,
                    Statement statement, ReplyFn done);
  /// Commits across every branch. `done` fires once with the outcome. Ok
  /// fires at the commit point: every branch PREPARED (HLC-SI), the single
  /// branch committed (HLC-SI, one branch), or the decision durable at the
  /// commit owner (TSO-SI). Phase 2 then runs off the caller's path, and
  /// the caller may destroy `txn` once `done` returns. On a failed prepare
  /// or a lost commit point the branches are aborted first.
  void CommitAsync(DistributedTxn* txn, std::function<void(Status)> done);
  /// Presumed abort: aborts every branch, then fires `done`.
  void AbortAsync(DistributedTxn* txn, std::function<void(Status)> done);

  // ---- synchronous in-process API ----

  /// Starts a distributed transaction (acquires snapshot_ts).
  DistributedTxn Begin();

  /// ExecuteAsync run to completion on `engine`'s branch. A point read
  /// blocked by a PREPARED writer waits for it (bounded).
  Status Read(DistributedTxn* txn, TxnEngine* engine, TableId table,
              const EncodedKey& key, Row* out);
  Status Insert(DistributedTxn* txn, TxnEngine* engine, TableId table,
                const Row& row);
  Status Update(DistributedTxn* txn, TxnEngine* engine, TableId table,
                const Row& row);

  /// CommitAsync/AbortAsync run to completion. If the step hook stopped
  /// the coordinator before it acknowledged, returns Unavailable with the
  /// branches left as they were for the in-doubt resolver.
  Status Commit(DistributedTxn* txn);
  Status Abort(DistributedTxn* txn);

  CoordinatorStats stats() const { return stats_; }

 private:
  struct Run;
  using RunPtr = std::shared_ptr<Run>;

  /// ExecuteAsync on `engine`'s branch, run to completion; fills `out`
  /// with the row a point read returns.
  Status Execute(DistributedTxn* txn, TxnEngine* engine, Statement statement,
                 Row* out = nullptr);
  bool Step(CommitStep step, GlobalTxnId global_id) {
    return !step_hook_ || step_hook_(step, global_id);
  }
  void FetchTso(ReplyFn done);
  void PrepareBranches(RunPtr run);
  void CommitOnePhase(RunPtr run);
  void Decide(RunPtr run);
  /// Answers the caller Ok at `commit_ts`; phase 2 then runs on the Run's
  /// own copy of the branches.
  void Acknowledge(const RunPtr& run, Timestamp commit_ts);
  void CommitBranches(RunPtr run);
  void AbortBranches(RunPtr run);

  std::unique_ptr<LocalParticipants> local_;  // in-process transport
  TxnParticipants* participants_;
  TsScheme scheme_;
  Hlc* cn_hlc_;
  const uint32_t coordinator_id_;
  uint64_t next_global_ = 1;
  StepHook step_hook_;
  CoordinatorStats stats_;
};

}  // namespace polarx
