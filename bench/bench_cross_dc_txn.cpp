// Experiment E1 (Fig. 7): HLC-SI vs TSO-SI under a 3-datacenter deployment.
//
// Setup mirrors §VII-A: 3 DCs with ~1 ms inter-DC RTT, 2 CN servers and one
// DN (Paxos leader + 2 cross-DC followers) per DC; for TSO-SI the oracle
// sits in DC 0. Sysbench oltp-write-only and oltp-read-only run closed-loop
// at increasing client counts; we report throughput (TPS) and mean latency
// per concurrency level, plus the peak-throughput ratio the paper quotes
// (HLC-SI peak write throughput ~19% above TSO-SI).
//
// Runs on the discrete-event simulator: results are deterministic and in
// virtual time.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_flags.h"
#include "src/cn/sim_cluster.h"

namespace polarx {
namespace {

/// Mean commit-path stages of the committed write transactions, in ms.
/// The first three are the client's path and sum to its mean latency
/// (decide is 0 under HLC-SI, which acknowledges once every branch is
/// prepared); the phase-2 tail runs after the acknowledgement. Also the
/// share of those writes committed in one phase (HLC-SI, one DN).
struct Breakdown {
  double statements_ms = 0;
  double prepare_ms = 0;
  double decide_ms = 0;
  double phase2_tail_ms = 0;
  double one_phase_share = 0;
};

struct Sample {
  int clients;
  double tps;
  double mean_latency_ms;
  double p95_latency_ms;
  Breakdown stages;
};

/// Write-path knobs for one run: group commit on/off and the Paxos
/// pipeline depth (1 = stop-and-wait). pipeline 0 keeps library defaults.
struct WritePathKnobs {
  bool group_commit = true;
  int pipeline = 0;
};

void ApplyKnobs(SimClusterConfig* cfg, const WritePathKnobs& k) {
  cfg->group_commit.enabled = k.group_commit;
  if (k.pipeline > 0) cfg->paxos.max_inflight = size_t(k.pipeline);
}

Sample RunOne(TsScheme scheme, SysbenchMode mode, int clients,
              sim::SimTime duration_us, WritePathKnobs knobs = {},
              sim::SimTime dn_op_us = 50) {
  sim::Scheduler sched;
  sim::NetworkConfig nc;
  nc.inter_dc_one_way_us = 500;  // 1 ms RTT between DCs
  nc.intra_dc_one_way_us = 50;
  nc.jitter = 0.05;
  sim::Network net(&sched, nc);
  SimClusterConfig cfg;
  cfg.scheme = scheme;
  cfg.table_size = 100000;
  cfg.dn_op_us = dn_op_us;  // E1: 50 (8-core DNs saturate in the sweep)
  ApplyKnobs(&cfg, knobs);
  SimCluster cluster(&sched, &net, cfg);
  cluster.LoadSysbenchTable();

  // Let followers replicate the preloaded table before any client starts:
  // at pipeline depth 1 the catch-up takes ~0.5 s of virtual time, and a
  // commit cannot be acknowledged until DLSN passes the preload, so
  // measuring during catch-up would zero out the stop-and-wait baseline.
  auto settled = [&cluster] {
    for (int d = 0; d < cluster.num_dns(); ++d) {
      Lsn end = cluster.dn_member_log(d, 0)->current_lsn();
      for (int m = 1; m < cluster.dn_member_count(d); ++m) {
        if (cluster.dn_member_log(d, m)->flushed_lsn() < end) return false;
      }
    }
    return true;
  };
  sim::SimTime settle_cap = sched.Now() + 5000 * sim::kUsPerMs;
  while (!settled() && sched.Now() < settle_cap && sched.Step()) {
  }

  Sysbench bench({.mode = mode, .table_size = cfg.table_size});
  auto rng = std::make_shared<Rng>(17);
  sim::SimTime warmup = duration_us / 5;

  // Closed-loop clients, round-robin over CNs.
  bool warmed = false;
  for (int c = 0; c < clients; ++c) {
    auto submit = std::make_shared<std::function<void()>>();
    *submit = [&cluster, &bench, rng, submit, c] {
      cluster.SubmitTxn(c, bench.NextTxn(rng.get()),
                        [submit](bool, sim::SimTime) { (*submit)(); });
    };
    (*submit)();
  }
  // Warm up, reset stats, then measure.
  sim::SimTime warm_end = sched.Now() + warmup;
  while (sched.Now() < warm_end && sched.Step()) {
  }
  cluster.ResetStats();
  warmed = true;
  (void)warmed;
  sim::SimTime end = warm_end + duration_us;
  while (sched.Now() < end && sched.Step()) {
  }

  const SimClusterStats& stats = cluster.stats();
  Sample s;
  s.clients = clients;
  s.tps = double(stats.committed) / (double(duration_us) / 1e6);
  s.mean_latency_ms = stats.latency_us.Mean() / 1000.0;
  s.p95_latency_ms = stats.latency_us.Percentile(0.95) / 1000.0;
  s.stages.statements_ms = stats.statements_us.Mean() / 1000.0;
  s.stages.prepare_ms = stats.prepare_us.Mean() / 1000.0;
  s.stages.decide_ms = stats.decide_us.Mean() / 1000.0;
  s.stages.phase2_tail_ms = stats.phase2_tail_us.Mean() / 1000.0;
  s.stages.one_phase_share =
      double(stats.one_phase_commits) /
      double(std::max<uint64_t>(1, stats.statements_us.count()));
  return s;
}

/// One cell's stages as a JSON object.
std::string BreakdownJson(const Breakdown& b) {
  std::ostringstream json;
  json << "{\"statements_ms\": " << b.statements_ms
       << ", \"prepare_ms\": " << b.prepare_ms
       << ", \"decide_ms\": " << b.decide_ms
       << ", \"phase2_tail_ms\": " << b.phase2_tail_ms
       << ", \"one_phase_share\": " << b.one_phase_share << "}";
  return json.str();
}

/// E5 — write-path ablation: group commit {off,on} x pipeline depth {1,4}
/// on sysbench write-only, TSO-SI (the TSO-coalescing path). Returns the
/// JSON fragment for BENCH_write_path.json.
std::string WritePathAblation(const BenchFlags& flags) {
  struct Config {
    std::string name;
    WritePathKnobs knobs;
  };
  std::vector<Config> grid;
  if (flags.single_config()) {
    // Explicit --group_commit/--pipeline: measure just that configuration.
    WritePathKnobs k{flags.group_commit, flags.pipeline > 0 ? flags.pipeline : 0};
    std::ostringstream name;
    name << "gc=" << (k.group_commit ? "on " : "off") << " pipe="
         << (k.pipeline > 0 ? std::to_string(k.pipeline) : "default");
    grid.push_back({name.str(), k});
  } else {
    grid = {{"gc=off pipe=1", {false, 1}},
            {"gc=off pipe=4", {false, 4}},
            {"gc=on  pipe=1", {true, 1}},
            {"gc=on  pipe=4", {true, 4}}};
  }
  // The top client count drives the cluster past the serialized-flush
  // capacity of the non-batched path; the ablation gap opens at saturation
  // (intrinsic 2PC latency is ~9 ms, so saturating a ~60k tps write path
  // takes north of a thousand closed-loop clients).
  std::vector<int> client_counts =
      flags.smoke ? std::vector<int>{8}
                  : std::vector<int>{48, 192, 384, 768, 1536};
  sim::SimTime duration =
      (flags.smoke ? 200 : 1000) * sim::kUsPerMs;

  std::printf("\n=== E5: write-path ablation (TSO-SI, oltp-write-only) ===\n");
  std::printf("%-16s", "config");
  for (int c : client_counts) std::printf(" %9d cl", c);
  std::printf("\n");

  std::ostringstream json;
  json << "{\n  \"bench\": \"cross_dc_txn\",\n  \"mode\": \""
       << (flags.smoke ? "smoke" : "full") << "\",\n  \"grid\": [\n";
  double off1_peak = 0, on4_peak = 0;
  bool first = true;
  for (const Config& c : grid) {
    std::printf("%-16s", c.name.c_str());
    for (int clients : client_counts) {
      // E1 models 50us row ops so DN CPU saturates within the sweep; this
      // ablation isolates the redo-durability path, so DN CPU is cheap
      // (10us) and the first resource to saturate is the one under test:
      // the serialized leader flush and the per-follower append window.
      Sample s = RunOne(TsScheme::kTsoSi, SysbenchMode::kWriteOnly, clients,
                        duration, c.knobs, /*dn_op_us=*/10);
      std::printf(" %12.0f", s.tps);
      if (clients == client_counts.back()) {
        if (!c.knobs.group_commit && c.knobs.pipeline == 1) off1_peak = s.tps;
        if (c.knobs.group_commit && c.knobs.pipeline == 4) on4_peak = s.tps;
      }
      if (!first) json << ",\n";
      first = false;
      json << "    {\"group_commit\": "
           << (c.knobs.group_commit ? "true" : "false")
           << ", \"pipeline\": " << c.knobs.pipeline
           << ", \"clients\": " << clients << ", \"tps\": " << s.tps
           << ", \"mean_latency_ms\": " << s.mean_latency_ms
           << ", \"p95_latency_ms\": " << s.p95_latency_ms
           << ", \"breakdown\": " << BreakdownJson(s.stages) << "}";
    }
    std::printf("\n");
  }
  // Both schemes on the default write path (group commit on, library
  // pipeline depth) at one load, so the scheme's commit path shows in the
  // stages: HLC-SI has no decide stage and commits single-DN writes in one
  // phase.
  const int scheme_clients = flags.smoke ? 8 : 192;
  json << "\n  ],\n  \"schemes\": [\n";
  first = true;
  for (TsScheme scheme : {TsScheme::kHlcSi, TsScheme::kTsoSi}) {
    Sample s = RunOne(scheme, SysbenchMode::kWriteOnly, scheme_clients,
                      duration, WritePathKnobs{}, /*dn_op_us=*/10);
    const char* name = scheme == TsScheme::kHlcSi ? "hlc_si" : "tso_si";
    std::printf("%s, %d clients: %.0f tps, stages %.2f / %.2f / %.2f | "
                "%.2f ms, one-phase share %.3f\n",
                name, scheme_clients, s.tps, s.stages.statements_ms,
                s.stages.prepare_ms, s.stages.decide_ms,
                s.stages.phase2_tail_ms, s.stages.one_phase_share);
    if (!first) json << ",\n";
    first = false;
    json << "    {\"scheme\": \"" << name << "\", \"clients\": "
         << scheme_clients << ", \"tps\": " << s.tps
         << ", \"mean_latency_ms\": " << s.mean_latency_ms
         << ", \"p95_latency_ms\": " << s.p95_latency_ms
         << ", \"breakdown\": " << BreakdownJson(s.stages) << "}";
  }
  double speedup = on4_peak / std::max(1.0, off1_peak);
  if (!flags.single_config()) {
    std::printf(
        "write tps at %d clients: off/1 %.0f vs on/4 %.0f  (%.2fx)\n",
        client_counts.back(), off1_peak, on4_peak, speedup);
  }
  json << "\n  ],\n  \"max_clients\": " << client_counts.back()
       << ",\n  \"tps_off_pipe1\": " << off1_peak
       << ",\n  \"tps_on_pipe4\": " << on4_peak
       << ",\n  \"speedup_on4_vs_off1\": " << speedup << "\n}\n";
  return json.str();
}

void RunSweep(SysbenchMode mode, const char* mode_name) {
  std::printf("\n=== Fig.7: sysbench %s, 3 DCs, 1ms inter-DC RTT ===\n",
              mode_name);
  std::printf("%-10s %10s %12s %12s %12s %12s %12s\n", "clients",
              "HLC tps", "HLC lat(ms)", "TSO tps", "TSO lat(ms)",
              "tps ratio", "winner");
  const int kClientCounts[] = {16, 48, 96, 192, 384};
  double hlc_peak = 0, tso_peak = 0;
  std::vector<std::pair<Sample, Sample>> rows;
  for (int clients : kClientCounts) {
    Sample hlc = RunOne(TsScheme::kHlcSi, mode, clients,
                        1500 * sim::kUsPerMs);
    Sample tso = RunOne(TsScheme::kTsoSi, mode, clients,
                        1500 * sim::kUsPerMs);
    rows.emplace_back(hlc, tso);
    hlc_peak = std::max(hlc_peak, hlc.tps);
    tso_peak = std::max(tso_peak, tso.tps);
    std::printf("%-10d %10.0f %12.2f %12.0f %12.2f %12.3f %12s\n", clients,
                hlc.tps, hlc.mean_latency_ms, tso.tps, tso.mean_latency_ms,
                hlc.tps / std::max(1.0, tso.tps),
                hlc.tps > tso.tps ? "HLC-SI" : "TSO-SI");
  }
  std::printf("peak throughput: HLC-SI %.0f vs TSO-SI %.0f  (+%.1f%%)\n",
              hlc_peak, tso_peak,
              100.0 * (hlc_peak - tso_peak) / std::max(1.0, tso_peak));
  if (mode == SysbenchMode::kReadOnly) return;  // no 2PC, no stages
  std::printf("commit-path stages, mean ms: statements / prepare / decide "
              "(client path) | phase-2 tail (after the ack) | one-phase "
              "share\n");
  std::printf("%-10s %-41s %-41s\n", "clients", "HLC-SI", "TSO-SI");
  for (const auto& [hlc, tso] : rows) {
    std::printf("%-10d", hlc.clients);
    for (const Sample* s : {&hlc, &tso}) {
      std::printf(" %6.2f / %6.2f / %6.2f | %6.2f | %4.2f ",
                  s->stages.statements_ms, s->stages.prepare_ms,
                  s->stages.decide_ms, s->stages.phase2_tail_ms,
                  s->stages.one_phase_share);
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace polarx

int main(int argc, char** argv) {
  polarx::BenchFlags flags = polarx::ParseBenchFlags(argc, argv);
  if (!flags.json_path.empty() || flags.smoke || flags.single_config()) {
    // E5 ablation run: the grid is the product, Fig.7 would only slow CI.
    std::printf("E5 — write-path ablation (bench_cross_dc_txn)\n");
    std::string json = polarx::WritePathAblation(flags);
    polarx::WriteBenchJson(flags, json);
    return 0;
  }
  std::printf("E1 / Fig.7 — Cross-DC transactions: HLC-SI vs TSO-SI\n");
  std::printf("paper: HLC-SI peak write throughput ~19%% above TSO-SI\n");
  polarx::RunSweep(polarx::SysbenchMode::kWriteOnly, "oltp-write-only");
  polarx::RunSweep(polarx::SysbenchMode::kReadOnly, "oltp-read-only");
  return 0;
}
