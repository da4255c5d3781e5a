// Micro-benchmark A3 (§II-C): RW -> RO physical replication.
//   - read throughput scales with the number of RO replicas (each replica
//     serves reads from its own mirror; aggregate ~linear in replicas);
//   - session consistency (wait-for-LSN) costs a bounded wait at the RO;
//   - a lagging replica is detected and kicked out so the RW can purge.
//
// E5 mode (--smoke / --json / explicit --group_commit / --pipeline): the
// write-path ablation instead — closed-loop writers committing through
// the leader's group-commit driver and async committer on a 3-DC Paxos
// group, sweeping group commit {off,on} x pipeline depth {1,4}.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_flags.h"
#include "src/clock/hlc.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/consensus/paxos.h"
#include "src/replication/rw_ro.h"
#include "src/sim/network.h"
#include "src/storage/buffer_pool.h"
#include "src/txn/engine.h"

namespace polarx {
namespace {

constexpr TableId kTable = 1;
constexpr int64_t kRows = 50000;

Schema KvSchema() {
  return Schema({{"id", ValueType::kInt64, false},
                 {"v", ValueType::kString, false}},
                {0});
}

struct Rw {
  TableCatalog catalog;
  Hlc hlc;
  RedoLog log;
  CountingPageStore store;
  BufferPool pool;
  TxnEngine engine;

  Rw()
      : hlc(SystemClockMs()),
        pool(&store),
        engine(1, &catalog, &hlc, &log, &pool) {
    catalog.CreateTable(kTable, "kv", KvSchema(), 0);
    Rng rng(3);
    // Bulk load: one MTR for the whole table instead of 50k per-row
    // inserts, so fixture setup is not the dominant cost of every run.
    std::vector<Row> rows;
    rows.reserve(size_t(kRows));
    for (int64_t i = 0; i < kRows; ++i) {
      rows.push_back({i, rng.AlphaString(24)});
    }
    TxnId txn = engine.Begin();
    engine.BulkLoad(txn, kTable, rows);
    engine.CommitLocal(txn);
  }
};

double ReadThroughput(int num_replicas, int duration_ms) {
  Rw rw;
  RwRoReplication repl(&rw.log);
  std::vector<std::unique_ptr<RoReplica>> ros;
  for (int r = 0; r < num_replicas; ++r) {
    auto ro = std::make_unique<RoReplica>(uint32_t(r));
    ro->MirrorTable(kTable, "kv", KvSchema(), 0);
    repl.AddReplica(ro.get());
    ros.push_back(std::move(ro));
  }
  repl.SyncAll();

  // This host has 2 cores, so aggregate replica capacity is modeled by
  // timing one replica's single-threaded read rate and multiplying: each
  // RO is an independent machine in the deployment being modeled.
  std::atomic<uint64_t> reads{0};
  Rng rng(11);
  Row row;
  // Warm up first: the initial pass faults every page of the mirrored
  // table into cache, and timing it would understate steady-state reads.
  auto warm_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(duration_ms / 5);
  while (std::chrono::steady_clock::now() < warm_deadline) {
    int64_t key = int64_t(rng.Uniform(kRows));
    (void)ros[0]->Read(kTable, EncodeKey({key}), &row);
  }
  auto start = std::chrono::steady_clock::now();
  auto deadline = start + std::chrono::milliseconds(duration_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    int64_t key = int64_t(rng.Uniform(kRows));
    if (ros[0]->Read(kTable, EncodeKey({key}), &row).ok()) {
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  }
  double secs = duration_ms / 1000.0;
  return double(reads.load()) / secs * num_replicas;
}

void SessionConsistencyCost() {
  Rw rw;
  RwRoReplication repl(&rw.log);
  RoReplica ro(1);
  ro.MirrorTable(kTable, "kv", KvSchema(), 0);
  repl.AddReplica(&ro);
  repl.SyncAll();

  // Background applier with a small delay models the RO lag.
  std::atomic<bool> stop{false};
  std::thread applier([&] {
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ro.PullFrom(rw.log);
    }
  });

  Histogram wait_us;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    TxnId txn = rw.engine.Begin();
    rw.engine.Update(txn, kTable,
                     {int64_t(rng.Uniform(kRows)), std::string("w")});
    rw.engine.CommitLocal(txn);
    Lsn rw_lsn = rw.log.current_lsn();
    auto start = std::chrono::steady_clock::now();
    ro.WaitForLsn(rw_lsn, 1000);
    wait_us.Record(double(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  stop.store(true);
  applier.join();
  std::printf(
      "session-consistency wait (RO applier on a 2ms cadence): %s\n",
      wait_us.ToString().c_str());
}

void KickoutDemo() {
  Rw rw;
  RwRoReplication::Options opts;
  opts.max_lag_bytes = 1 << 16;
  RwRoReplication repl(&rw.log, opts);
  RoReplica fast(1), slow(2);
  fast.MirrorTable(kTable, "kv", KvSchema(), 0);
  slow.MirrorTable(kTable, "kv", KvSchema(), 0);
  repl.AddReplica(&fast);
  repl.AddReplica(&slow);
  repl.SyncAll();
  Lsn before_purge_bound = repl.MinRoLsn();

  // Write 64k+ bytes of redo; only the fast replica keeps consuming.
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    TxnId txn = rw.engine.Begin();
    rw.engine.Update(txn, kTable,
                     {int64_t(rng.Uniform(kRows)), rng.AlphaString(40)});
    rw.engine.CommitLocal(txn);
  }
  fast.PullFrom(rw.log);
  auto kicked = repl.KickLaggards();
  std::printf(
      "laggard kick-out: %zu replica(s) kicked (id %u), purge bound moved "
      "%llu -> %llu\n",
      kicked.size(), kicked.empty() ? 0u : kicked[0],
      static_cast<unsigned long long>(before_purge_bound),
      static_cast<unsigned long long>(repl.MinRoLsn()));
}

// ---- E5: write-path batching (group commit x pipelining) ----

/// A ~200-byte write transaction's redo, the paper's small-MTR regime.
RedoRecord WriteRecord(int64_t i) {
  RedoRecord rec;
  rec.type = RedoType::kInsert;
  rec.txn_id = uint64_t(i) + 1;
  rec.table_id = kTable;
  rec.key = EncodeKey({i});
  rec.row = {i, std::string(200, 'x')};
  return rec;
}

/// RW leader as a 3-DC Paxos group with the full write-path stack: engine
/// appends go to the leader log, durability flows through the
/// GroupCommitDriver, completion through the AsyncCommitter.
struct RwGroup {
  sim::Scheduler sched;
  sim::Network net;
  RedoLog logs[3];
  std::unique_ptr<PaxosGroup> group;
  PaxosMember* leader;
  std::unique_ptr<AsyncCommitter> committer;
  std::unique_ptr<GroupCommitDriver> gc;

  RwGroup(bool group_commit, int pipeline)
      : net(&sched, [] {
          sim::NetworkConfig nc;
          nc.inter_dc_one_way_us = 500;
          nc.jitter = 0.02;
          return nc;
        }()) {
    PaxosConfig pcfg;
    if (pipeline > 0) pcfg.max_inflight = size_t(pipeline);
    group = std::make_unique<PaxosGroup>(&net, pcfg);
    leader =
        group->AddMember(net.AddNode(0, "L"), PaxosRole::kLeader, &logs[0]);
    group->AddMember(net.AddNode(1, "F1"), PaxosRole::kFollower, &logs[1]);
    group->AddMember(net.AddNode(2, "F2"), PaxosRole::kFollower, &logs[2]);
    group->Start();
    committer = std::make_unique<AsyncCommitter>(leader);
    GroupCommitConfig gcc;
    gcc.enabled = group_commit;
    gc = std::make_unique<GroupCommitDriver>(&sched, leader, gcc);
  }
};

/// Closed-loop writers: append a small MTR, request durability through the
/// group-commit driver, park the commit on the async committer; the writer
/// starts its next transaction 10us after the previous one is durable.
/// Returns committed txns per second of virtual time.
double WriteThroughput(bool group_commit, int pipeline, int writers,
                       int txns_per_writer) {
  RwGroup g(group_commit, pipeline);
  const int total = writers * txns_per_writer;
  int committed = 0;
  int64_t started = 0;
  std::function<void()> start_one = [&] {
    if (started >= total) return;
    int64_t id = started++;
    MtrHandle h = g.logs[0].AppendMtr({WriteRecord(id)});
    g.gc->Submit(h.end_lsn);
    g.committer->Submit(h.end_lsn, [&] {
      ++committed;
      g.sched.ScheduleAfter(10, start_one);
    });
  };
  for (int w = 0; w < writers; ++w) start_one();
  while (committed < total && g.sched.Step()) {
  }
  return double(total) / (double(g.sched.Now()) / 1e6);
}

/// The E5 grid for this bench; returns the JSON fragment.
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
  std::vector<int> writer_counts =
      flags.smoke ? std::vector<int>{8} : std::vector<int>{4, 16, 64, 256};
  const int txns_per_writer = flags.smoke ? 50 : 200;

  std::printf(
      "\n=== E5: write-path ablation (200-byte commits, 3 DCs, 1ms RTT) "
      "===\n");
  std::printf("%-16s", "config");
  for (int w : writer_counts) std::printf(" %9d wr", w);
  std::printf("\n");

  std::ostringstream json;
  json << "{\n  \"bench\": \"replication\",\n  \"mode\": \""
       << (flags.smoke ? "smoke" : "full") << "\",\n  \"grid\": [\n";
  double off1_peak = 0, on4_peak = 0;
  bool first = true;
  for (const Config& c : grid) {
    std::printf("%-16s", c.name.c_str());
    for (int writers : writer_counts) {
      double tps = WriteThroughput(c.gc, c.pipe, writers, txns_per_writer);
      std::printf(" %12.0f", tps);
      if (writers == writer_counts.back()) {
        if (!c.gc && c.pipe == 1) off1_peak = tps;
        if (c.gc && c.pipe == 4) on4_peak = tps;
      }
      if (!first) json << ",\n";
      first = false;
      json << "    {\"group_commit\": " << (c.gc ? "true" : "false")
           << ", \"pipeline\": " << c.pipe << ", \"writers\": " << writers
           << ", \"tps\": " << tps << "}";
    }
    std::printf("\n");
  }
  double speedup = on4_peak / std::max(1.0, off1_peak);
  if (!flags.single_config()) {
    std::printf("write tps at %d writers: off/1 %.0f vs on/4 %.0f  (%.2fx)\n",
                writer_counts.back(), off1_peak, on4_peak, speedup);
  }
  json << "\n  ],\n  \"max_writers\": " << writer_counts.back()
       << ",\n  \"tps_off_pipe1\": " << off1_peak
       << ",\n  \"tps_on_pipe4\": " << on4_peak
       << ",\n  \"speedup_on4_vs_off1\": " << speedup << "\n}\n";
  return json.str();
}

}  // namespace
}  // namespace polarx

int main(int argc, char** argv) {
  using namespace polarx;
  BenchFlags flags = ParseBenchFlags(argc, argv);
  if (!flags.json_path.empty() || flags.smoke || flags.single_config()) {
    std::printf("E5 — write-path ablation (bench_replication)\n");
    std::string json = WritePathAblation(flags);
    WriteBenchJson(flags, json);
    return 0;
  }
  std::printf("A3 — RW->RO replication micro-benchmarks (§II-C)\n\n");
  std::printf("read scaling (aggregate reads/sec across replicas):\n");
  std::printf("%-10s %16s\n", "RO nodes", "reads/sec");
  double base = 0;
  for (int n : {1, 2, 4, 8}) {
    double tput = ReadThroughput(n, 1000);
    if (n == 1) base = tput;
    std::printf("%-10d %16.0f  (%.1fx)\n", n, tput, tput / base);
  }
  std::printf("\n");
  SessionConsistencyCost();
  KickoutDemo();
  return 0;
}
