// Invariant checks over a quiesced SimCluster, shared by the chaos suites
// that crash and restart DN members.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cn/sim_cluster.h"

namespace polarx::chaos {

/// G3 catch-up: once faults heal, every member log of every DN holds
/// exactly its serving leader's bytes. A restarted member that never
/// converges leaves its DN without a spare replica.
inline void CheckMembersCaughtUp(SimCluster* cluster) {
  for (int d = 0; d < cluster->num_dns(); ++d) {
    std::vector<NodeId> nodes = cluster->dn_member_nodes(d);
    auto serving = std::find(nodes.begin(), nodes.end(),
                             cluster->dn_serving_node(d));
    ASSERT_NE(serving, nodes.end()) << "dn " << d;
    RedoLog* leader = cluster->dn_member_log(d, int(serving - nodes.begin()));
    std::string want;
    leader->ReadBytes(leader->purged_before(), leader->current_lsn(), &want);
    for (int m = 0; m < cluster->dn_member_count(d); ++m) {
      RedoLog* log = cluster->dn_member_log(d, m);
      std::string got;
      log->ReadBytes(leader->purged_before(), log->current_lsn(), &got);
      EXPECT_EQ(log->current_lsn(), leader->current_lsn())
          << "dn " << d << " member " << m
          << " did not catch up with its leader (G3)";
      EXPECT_TRUE(got == want) << "dn " << d << " member " << m
                               << " log differs from its leader's (G3)";
    }
  }
}

}  // namespace polarx::chaos
