// In-doubt transaction resolution (Spanner-style participant-led recovery).
//
// When a coordinator (CN) dies mid-2PC, its branches are stranded: prepared
// ones hold write intents that block every later writer and only the
// coordinator knew the outcome; active ones hold row locks nobody will
// release. GMS detects the dead coordinator via lease expiry; a surviving
// CN then lists every participant's unresolved branches of dead
// coordinators, groups them by global transaction, and resolves each one.
//
// Explicit decision (TSO-SI: the prepare records name a commit owner):
//   commit-point record present  -> follow it on every branch;
//   no record                    -> presumed abort, but FIRST durably win
//                                   the DecideAbort race at the owner, so a
//                                   partitioned-but-alive coordinator that
//                                   wakes up later cannot commit what we
//                                   aborted (split-brain safety).
//
// Implicit commit (HLC-SI: the prepare records name every participant),
// and any global none of whose listed branches is prepared: every
// participant whose branch is not listed PREPARED is fenced (see
// TxnEngine::FenceUnprepared), which reports a PREPARED or COMMITTED branch
// as it is and otherwise records an abort decision that refuses any later
// prepare. Then:
//   some branch COMMITTED        -> commit every branch at its commit_ts;
//   some fence recorded an abort -> abort every branch;
//   every participant PREPARED   -> commit at max(prepare_ts);
//   participants still unknown   -> left for the next sweep, whose listing
//                                   shows the branch that was found
//                                   prepared, with its prepare record.
//
// The resolver runs over the TxnParticipants interface (distributed.h); in
// SimCluster each of its calls is a simulated RPC.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "src/txn/distributed.h"

namespace polarx {

struct ResolutionStats {
  uint64_t globals_resolved = 0;  // distinct global txns decided
  uint64_t branches_found = 0;    // unresolved branches the listings named
  uint64_t branches_committed = 0;
  uint64_t branches_aborted = 0;
  /// Every participant answered its listing. An incomplete sweep may have
  /// missed branches, so its dead coordinators must not be forgotten yet.
  bool complete = true;
};

class InDoubtResolver {
 public:
  /// `participants` must outlive the sweeps.
  explicit InDoubtResolver(TxnParticipants* participants);

  /// One sweep over every branch whose coordinator is in
  /// `dead_coordinators`. Idempotent; safe to repeat. `done` fires once
  /// with the sweep's counts, or never if the CN running it died.
  void ResolveAsync(const std::set<uint32_t>& dead_coordinators,
                    std::function<void(ResolutionStats)> done);

 private:
  TxnParticipants* participants_;
};

}  // namespace polarx
