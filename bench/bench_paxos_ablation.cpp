// Ablation A2 (§III): the design choices in Paxos redo replication —
// asynchronous commit, MLOG_PAXOS batching, and pipelining — measured on
// the discrete-event simulator over a 3-DC group with 1 ms inter-DC RTT.
//
//  - async vs blocking commit: with B foreground threads, a blocking leader
//    parks a thread per in-flight commit for a full cross-DC round trip;
//    async parks only the transaction context (the async_log_committer
//    pattern), so commit throughput is not bounded by B / RTT.
//  - batching: MTRs are a few hundred bytes; framing each with a 64-byte
//    MLOG_PAXOS head wastes bandwidth and messages. Batches up to 16 KB
//    amortize it.
//  - pipelining: sending frame k+1 before frame k is acked hides the
//    propagation delay.
#include <cstdio>
#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "src/consensus/paxos.h"
#include "src/sim/network.h"
#include "src/storage/key_codec.h"

namespace polarx {
namespace {

RedoRecord MakeRecord(int64_t i, size_t payload) {
  RedoRecord rec;
  rec.type = RedoType::kInsert;
  rec.txn_id = uint64_t(i) + 1;
  rec.table_id = 1;
  rec.key = EncodeKey({i});
  rec.row = {i, std::string(payload, 'x')};
  return rec;
}

struct Group {
  sim::Scheduler sched;
  sim::Network net;
  RedoLog logs[3];
  std::unique_ptr<PaxosGroup> group;
  PaxosMember* leader;
  std::unique_ptr<AsyncCommitter> committer;

  explicit Group(PaxosConfig cfg)
      : net(&sched, [] {
          sim::NetworkConfig nc;
          nc.inter_dc_one_way_us = 500;
          nc.jitter = 0.02;
          return nc;
        }()) {
    group = std::make_unique<PaxosGroup>(&net, cfg);
    leader = group->AddMember(net.AddNode(0, "L"), PaxosRole::kLeader,
                              &logs[0]);
    group->AddMember(net.AddNode(1, "F1"), PaxosRole::kFollower, &logs[1]);
    group->AddMember(net.AddNode(2, "F2"), PaxosRole::kFollower, &logs[2]);
    group->Start();
    committer = std::make_unique<AsyncCommitter>(leader);
  }
};

/// Async commit: `threads` foreground workers each append a txn's redo,
/// park the commit on the AsyncCommitter, and immediately take the next
/// transaction. Returns committed txns per second (virtual time).
double RunAsync(int threads, int txns_per_thread, size_t payload) {
  Group g({});
  int total = threads * txns_per_thread;
  int committed = 0;
  int started = 0;
  std::function<void()> start_one = [&] {
    if (started >= total) return;
    int64_t id = started++;
    MtrHandle h = g.leader->Append({MakeRecord(id, payload)});
    g.committer->Submit(h.end_lsn, [&] { ++committed; });
    // The foreground thread is free right away: it starts the next txn
    // after only the local work (modeled at 10us).
    g.sched.ScheduleAfter(10, start_one);
  };
  for (int t = 0; t < threads; ++t) start_one();
  while (committed < total && g.sched.Step()) {
  }
  return double(total) / (double(g.sched.Now()) / 1e6);
}

/// Blocking commit: each worker waits for its own commit's durability
/// before starting the next transaction.
double RunBlocking(int threads, int txns_per_thread, size_t payload) {
  Group g({});
  int total = threads * txns_per_thread;
  int committed = 0;
  int started = 0;
  std::function<void()> start_one = [&] {
    if (started >= total) return;
    int64_t id = started++;
    MtrHandle h = g.leader->Append({MakeRecord(id, payload)});
    g.committer->Submit(h.end_lsn, [&] {
      ++committed;
      g.sched.ScheduleAfter(10, start_one);  // thread freed only now
    });
  };
  for (int t = 0; t < threads; ++t) start_one();
  while (committed < total && g.sched.Step()) {
  }
  return double(total) / (double(g.sched.Now()) / 1e6);
}

/// The default per-follower window; stop-and-wait is a window of 1.
const size_t kPipelined = PaxosConfig{}.max_inflight;

/// Replication throughput for a batch-size setting and window: how fast a
/// burst of small MTRs becomes durable.
double RunBatching(size_t max_batch, int mtrs, size_t payload,
                   size_t max_inflight) {
  PaxosConfig cfg;
  cfg.max_batch_bytes = max_batch;
  cfg.max_inflight = max_inflight;
  Group g(cfg);
  for (int i = 0; i < mtrs; ++i) {
    g.leader->Append({MakeRecord(i, payload)});
  }
  Lsn target = g.leader->log()->current_lsn();
  while (g.leader->dlsn() < target && g.sched.Step()) {
  }
  double seconds = double(g.sched.Now()) / 1e6;
  return double(mtrs) / seconds;
}

/// E5 leg: time-to-durable for a burst of small MTRs with the write-path
/// knobs applied — group commit governs how leader flushes coalesce, the
/// pipeline depth how many frames ride each follower link concurrently.
double RunWritePath(bool group_commit, int pipeline, int mtrs,
                    size_t payload) {
  PaxosConfig cfg;
  if (pipeline > 0) cfg.max_inflight = size_t(pipeline);
  Group g(cfg);
  GroupCommitConfig gcc;
  gcc.enabled = group_commit;
  GroupCommitDriver gc(&g.sched, g.leader, gcc);
  for (int i = 0; i < mtrs; ++i) {
    MtrHandle h = g.logs[0].AppendMtr({MakeRecord(i, payload)});
    gc.Submit(h.end_lsn);
  }
  Lsn target = g.leader->log()->current_lsn();
  while (g.leader->dlsn() < target && g.sched.Step()) {
  }
  return double(mtrs) / (double(g.sched.Now()) / 1e6);
}

std::string WritePathAblation(const BenchFlags& flags) {
  struct Config {
    std::string name;
    bool gc;
    int pipe;
  };
  std::vector<Config> grid;
  if (flags.single_config()) {
    std::ostringstream name;
    name << "gc=" << (flags.group_commit ? "on " : "off") << " pipe="
         << (flags.pipeline > 0 ? std::to_string(flags.pipeline) : "default");
    grid.push_back({name.str(), flags.group_commit, flags.pipeline});
  } else {
    grid = {{"gc=off pipe=1", false, 1},
            {"gc=off pipe=4", false, 4},
            {"gc=on  pipe=1", true, 1},
            {"gc=on  pipe=4", true, 4}};
  }
  const int mtrs = flags.smoke ? 512 : 4096;

  std::printf("\n=== E5: write-path ablation (%d x 120-byte MTR burst) ===\n",
              mtrs);
  std::printf("%-16s %16s\n", "config", "mtrs/sec");
  std::ostringstream json;
  json << "{\n  \"bench\": \"paxos_ablation\",\n  \"mode\": \""
       << (flags.smoke ? "smoke" : "full") << "\",\n  \"grid\": [\n";
  double off1 = 0, on4 = 0;
  bool first = true;
  for (const Config& c : grid) {
    double rate = RunWritePath(c.gc, c.pipe, mtrs, 120);
    std::printf("%-16s %16.0f\n", c.name.c_str(), rate);
    if (!c.gc && c.pipe == 1) off1 = rate;
    if (c.gc && c.pipe == 4) on4 = rate;
    if (!first) json << ",\n";
    first = false;
    json << "    {\"group_commit\": " << (c.gc ? "true" : "false")
         << ", \"pipeline\": " << c.pipe << ", \"mtrs_per_sec\": " << rate
         << "}";
  }
  double speedup = on4 / std::max(1.0, off1);
  if (!flags.single_config()) {
    std::printf("burst durability: off/1 %.0f vs on/4 %.0f mtrs/sec (%.2fx)\n",
                off1, on4, speedup);
  }
  json << "\n  ],\n  \"mtrs\": " << mtrs
       << ",\n  \"rate_off_pipe1\": " << off1
       << ",\n  \"rate_on_pipe4\": " << on4
       << ",\n  \"speedup_on4_vs_off1\": " << speedup << "\n}\n";
  return json.str();
}

}  // namespace
}  // namespace polarx

int main(int argc, char** argv) {
  using namespace polarx;
  BenchFlags flags = ParseBenchFlags(argc, argv);
  if (!flags.json_path.empty() || flags.smoke || flags.single_config()) {
    std::printf("E5 — write-path ablation (bench_paxos_ablation)\n");
    std::string json = WritePathAblation(flags);
    WriteBenchJson(flags, json);
    return 0;
  }
  std::printf("A2 — Paxos replication ablations (§III), 3 DCs, 1ms RTT\n\n");

  std::printf("async vs blocking commit (200-byte txns):\n");
  std::printf("%-10s %16s %16s %10s\n", "threads", "async tps",
              "blocking tps", "speedup");
  for (int threads : {4, 16, 64, 256}) {
    double async_tps = RunAsync(threads, 50, 200);
    double blocking_tps = RunBlocking(threads, 50, 200);
    std::printf("%-10d %16.0f %16.0f %9.1fx\n", threads, async_tps,
                blocking_tps, async_tps / blocking_tps);
  }

  std::printf("\nMLOG_PAXOS batching (4096 small MTRs, pipelined):\n");
  std::printf("%-16s %16s\n", "batch bytes", "mtrs/sec");
  for (size_t batch : {256u, 1024u, 4096u, 16384u, 65536u}) {
    std::printf("%-16zu %16.0f\n", size_t(batch),
                RunBatching(batch, 4096, 120, kPipelined));
  }

  std::printf("\npipelining (4096 small MTRs, 16KB batches):\n");
  double piped = RunBatching(16384, 4096, 120, kPipelined);
  double stop_wait = RunBatching(16384, 4096, 120, 1);
  std::printf("pipelined: %.0f mtrs/sec, stop-and-wait: %.0f mtrs/sec "
              "(%.1fx)\n",
              piped, stop_wait, piped / stop_wait);
  return 0;
}
