// Workload oltp_xdc: sysbench oltp_write_only in open loop on SimCluster
// (default config: HLC-SI, group commit on, 3 DCs, 2 CNs per DC, 3 DN
// Paxos groups) over a network of 0.5 ms inter-DC / 50 us intra-DC
// one-way latency with 5% jitter. Arrivals are Poisson at a fixed rate on
// the virtual clock, round-robin over the CNs. All latencies are virtual
// time and repeat exactly for a seed; only set-up and host cost are wall
// time.
//
// One run makes a series of probes, each on a freshly set-up cluster so
// that no probe inherits another's backlog:
//   - the nominal probe at 40k txn/s (about 40% of the knee) gives the
//     latency percentiles and, in a traced run, the per-layer counters;
//   - a rate ladder and then a bisection find the highest rate that keeps
//     p99 <= 20 ms with no growing backlog, to within 2%.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "perfbench/src/bench.h"
#include "src/cn/sim_cluster.h"
#include "src/common/rng.h"
#include "src/sim/network.h"
#include "src/sim/scheduler.h"
#include "src/workload/sysbench.h"

namespace polarx::perfbench {
namespace {

constexpr double kNominalRate = 40000;
constexpr double kP99LimitMs = 20;
/// Share of in-window arrivals that must complete within the window.
constexpr double kKeepUpShare = 0.99;
/// Bisection stops when the failing rate is within this share of the
/// passing one.
constexpr double kBisectResolution = 0.02;
/// Attempts per logical transaction before it counts as failed: high
/// enough that conflict retries under overload never exhaust it.
constexpr int kMaxAttempts = 1000;
constexpr sim::SimTime kWarmupUs = 20 * sim::kUsPerMs;
constexpr sim::SimTime kDrainCapUs = 10 * 1000 * sim::kUsPerMs;

/// A set-up cluster: scheduler, network and SimCluster with the sysbench
/// table loaded and the followers caught up.
struct XdcCluster {
  sim::Scheduler sched;
  sim::Network net;
  SimCluster cluster;
  double setup_s = 0;

  explicit XdcCluster(uint64_t seed)
      : net(&sched, NetConfig(seed)), cluster(&sched, &net, Config(seed)) {}

  static sim::NetworkConfig NetConfig(uint64_t seed) {
    sim::NetworkConfig nc;
    nc.inter_dc_one_way_us = 500;
    nc.intra_dc_one_way_us = 50;
    nc.jitter = 0.05;
    nc.seed = seed;
    return nc;
  }
  static SimClusterConfig Config(uint64_t seed) {
    SimClusterConfig cfg;
    cfg.table_size = 100000;
    cfg.seed = seed;
    return cfg;
  }

  /// Loads the table and runs until every follower has flushed the
  /// preload (commits cannot be acknowledged before that).
  void SetUp() {
    cluster.LoadSysbenchTable();
    auto settled = [this] {
      for (int d = 0; d < cluster.num_dns(); ++d) {
        Lsn end = cluster.dn_member_log(d, 0)->current_lsn();
        for (int m = 1; m < cluster.dn_member_count(d); ++m) {
          if (cluster.dn_member_log(d, m)->flushed_lsn() < end) return false;
        }
      }
      return true;
    };
    sim::SimTime cap = sched.Now() + 5000 * sim::kUsPerMs;
    while (!settled() && sched.Now() < cap && sched.Step()) {
    }
  }
};

std::unique_ptr<XdcCluster> SetUpCluster(uint64_t seed) {
  Clock::time_point start = Clock::now();
  auto c = std::make_unique<XdcCluster>(seed);
  c->SetUp();
  c->setup_s = SecondsSince(start);
  return c;
}

/// Counter snapshot of the layers a write transaction crosses. max_group
/// is the largest redo group any DN has flushed since set-up.
struct Counters {
  uint64_t messages = 0, bytes = 0, retries = 0, conflicts = 0,
           prepared_waits = 0, gc_submits = 0, gc_flushes = 0,
           redo_bytes = 0, events = 0, committed = 0, max_group = 0;

  static Counters Read(XdcCluster& c) {
    Counters k;
    k.messages = c.net.messages_sent();
    k.bytes = c.net.bytes_sent();
    k.retries = c.cluster.stats().rpc_retries;
    k.committed = c.cluster.stats().committed;
    k.events = c.sched.executed_events();
    for (int d = 0; d < c.cluster.num_dns(); ++d) {
      TxnEngineStats es = c.cluster.dn_engine(d)->stats();
      k.conflicts += es.conflicts;
      k.prepared_waits += es.prepared_waits;
      k.gc_submits += c.cluster.dn_group_commit(d)->submits();
      k.gc_flushes += c.cluster.dn_group_commit(d)->flushes();
      k.max_group = std::max(k.max_group,
                             c.cluster.dn_group_commit(d)->max_group());
      k.redo_bytes += c.cluster.dn_member_log(d, 0)->current_lsn();
    }
    return k;
  }

  /// Deltas from `before` (max_group is kept as is).
  Counters Since(const Counters& b) const {
    return {messages - b.messages,     bytes - b.bytes,
            retries - b.retries,       conflicts - b.conflicts,
            prepared_waits - b.prepared_waits,
            gc_submits - b.gc_submits, gc_flushes - b.gc_flushes,
            redo_bytes - b.redo_bytes, events - b.events,
            committed - b.committed,   max_group};
  }
};

double FollowerLagBytes(XdcCluster& c) {
  double lag = 0;
  for (int d = 0; d < c.cluster.num_dns(); ++d) {
    Lsn end = c.cluster.dn_member_log(d, 0)->current_lsn();
    for (int m = 1; m < c.cluster.dn_member_count(d); ++m) {
      lag += double(end - c.cluster.dn_member_log(d, m)->flushed_lsn());
    }
  }
  return lag;
}

/// Outcome of one fixed-rate probe. A transaction is one logical sysbench
/// transaction: an attempt aborted by a write-write conflict is retried
/// at once on the same CN, as a sysbench client does, and the latency runs
/// from the arrival's due time to the commit of the last attempt.
struct Probe {
  uint64_t attempted = 0;  // arrivals, warm-up included
  uint64_t committed = 0;
  uint64_t failed = 0;     // still aborted after kMaxAttempts
  uint64_t retried = 0;    // aborted attempts that were retried
  uint64_t window_arrivals = 0;
  std::vector<sim::SimTime> arrivals;     // due times, all txns, in order
  std::vector<sim::SimTime> completions;  // commit times, all txns, in order
  std::vector<double> window_latency_ms;  // of in-window arrivals
  /// Traced probes: leader log end minus follower flushed LSN, summed
  /// over followers, sampled at every in-window completion.
  std::vector<double> follower_lag_bytes;
  sim::SimTime window_start = 0, window_end = 0;
  bool drained = false;
  double host_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;

  /// Completions in the window over the arrivals one median latency
  /// earlier: below kKeepUpShare the backlog grows. Shifting by the median
  /// latency cancels the Poisson edge effect of comparing against the
  /// window's own arrivals.
  double KeptUpShare() const {
    sim::SimTime shift = sim::SimTime(p50_ms * 1000);
    auto count = [](const std::vector<sim::SimTime>& v, sim::SimTime lo,
                    sim::SimTime hi) {
      return double(std::lower_bound(v.begin(), v.end(), hi) -
                    std::lower_bound(v.begin(), v.end(), lo));
    };
    double offered = count(arrivals, window_start - shift,
                           window_end - shift);
    return count(completions, window_start, window_end) /
           std::max(1.0, offered);
  }
  bool Passes() const {
    return drained && failed == 0 && window_arrivals > 0 &&
           p99_ms <= kP99LimitMs && KeptUpShare() >= kKeepUpShare;
  }
};

/// Offers Poisson arrivals at `rate` for a warm-up plus `window_us`, then
/// drains. Arrivals are submitted exactly when due, so the generator is
/// never late. With a tracer, every in-window transaction is recorded as a
/// virtual-time span and the per-layer counters are read around the
/// window.
Probe RunProbe(XdcCluster& c, double rate, sim::SimTime window_us,
               uint64_t seed, Tracer* tracer, Counters* window_delta) {
  struct Txn {
    SysbenchTxn body;
    sim::SimTime due = 0;
    bool in_window = false;
    int cn = 0;
    int attempts = 0;
  };
  struct State {
    XdcCluster* c;
    Probe probe;
    uint64_t outstanding = 0;
    bool record = false;
    std::vector<std::pair<sim::SimTime, sim::SimTime>> spans;

    void Submit(std::shared_ptr<State> self, std::shared_ptr<Txn> t) {
      ++t->attempts;
      c->cluster.SubmitTxn(t->cn, t->body, [self, t](bool ok, sim::SimTime) {
        self->Done(self, t, ok);
      });
    }
    void Done(std::shared_ptr<State> self, std::shared_ptr<Txn> t, bool ok) {
      if (!ok && t->attempts < kMaxAttempts) {
        ++probe.retried;
        Submit(std::move(self), std::move(t));
        return;
      }
      --outstanding;
      ok ? ++probe.committed : ++probe.failed;
      sim::SimTime now = c->sched.Now();
      probe.completions.push_back(now);
      if (!t->in_window) return;
      probe.window_latency_ms.push_back(double(now - t->due) / 1000.0);
      if (record) {
        spans.push_back({t->due, now});
        probe.follower_lag_bytes.push_back(FollowerLagBytes(*c));
      }
    }
  };
  auto st = std::make_shared<State>();
  st->c = &c;
  st->record = tracer != nullptr;
  Probe& probe = st->probe;
  probe.window_start = c.sched.Now() + kWarmupUs;
  probe.window_end = probe.window_start + window_us;
  Sysbench bench({.mode = SysbenchMode::kWriteOnly, .table_size = 100000});
  Rng arrivals(seed * 0x9E3779B97F4A7C15ULL + uint64_t(rate));
  Rng keys(seed * 0xBF58476D1CE4E5B9ULL + uint64_t(rate));
  const double mean_gap_us = 1e6 / rate;
  int next_cn = 0;

  Clock::time_point host_start = Clock::now();
  std::function<void()> arrive = [&] {
    auto t = std::make_shared<Txn>();
    t->body = bench.NextTxn(&keys);
    t->due = c.sched.Now();
    t->in_window = t->due >= probe.window_start;
    t->cn = next_cn;
    next_cn = (next_cn + 1) % c.cluster.num_cns();
    ++probe.attempted;
    ++st->outstanding;
    probe.arrivals.push_back(t->due);
    if (t->in_window) ++probe.window_arrivals;
    st->Submit(st, t);
    sim::SimTime next =
        t->due + sim::SimTime(arrivals.Exponential(mean_gap_us) + 0.5);
    if (next < probe.window_end) c.sched.ScheduleAt(next, arrive);
  };
  c.sched.ScheduleAt(c.sched.Now(), arrive);

  c.sched.RunUntil(probe.window_start);
  Counters before = Counters::Read(c);
  c.sched.RunUntil(probe.window_end);
  if (window_delta != nullptr) {
    *window_delta = Counters::Read(c).Since(before);
  }
  sim::SimTime cap = c.sched.Now() + kDrainCapUs;
  while (st->outstanding > 0 && c.sched.Now() < cap && c.sched.Step()) {
  }
  probe.drained = st->outstanding == 0;
  probe.host_s = SecondsSince(host_start);
  probe.p50_ms = Quantile(probe.window_latency_ms, 0.5);
  probe.p99_ms = Quantile(probe.window_latency_ms, 0.99);
  if (tracer != nullptr) {
    uint64_t id = 0;
    for (auto [due, done] : st->spans) {
      tracer->Add("xdc.txn", ++id, -1, int64_t(due) * 1000,
                  int64_t(done) * 1000, /*virtual_clock=*/true);
    }
  }
  return std::move(st->probe);
}

class OltpXdcBench {
 public:
  OltpXdcBench(const Args& args, RunResult* result)
      : args_(args), result_(result) {
    // Virtual windows scale with the run length: at 20 s the nominal
    // window is 200 ms (~8000 samples) and each max-rate probe 67 ms.
    nominal_window_us_ = sim::SimTime(args.seconds * 10 * sim::kUsPerMs);
    probe_window_us_ = sim::SimTime(args.seconds * 10 / 3 * sim::kUsPerMs);
  }

  /// Three set-ups per run, each carrying part of the work: the nominal
  /// probe, the rate ladder, and the bisection (traced runs: see
  /// RunTraced).
  void Run() {
    if (args_.trace) {
      RunTraced();
      return;
    }
    Probe nominal = Measure(*SetUp(), kNominalRate, nominal_window_us_);
    double max_rate = FindMaxRate();
    result_->Set("setup_s", Median(setup_s_) * speed_.Factor(), "s");
    result_->Set("latency_p50_ms", nominal.p50_ms, "ms");
    result_->Set("latency_tail_ms", nominal.p99_ms, "ms");
    result_->Set("throughput_per_s", max_rate, "1/s");
    result_->Detail("txn_p50_ms", nominal.p50_ms, "ms");
    result_->Detail("txn_p99_ms", nominal.p99_ms, "ms");
    result_->Detail("max_rate_tps", max_rate, "1/s");
    result_->Detail("setup_s_measured", Median(setup_s_), "s");
    result_->Detail("host_kernel_ms", speed_.KernelMs(), "ms");
    result_->Detail("nominal_samples",
                    double(nominal.window_latency_ms.size()), "count");
    result_->Detail("nominal_retried_attempts", double(nominal.retried),
                    "count");
  }

 private:
  /// Set-up is wall time: the host speed is sampled before each one.
  std::unique_ptr<XdcCluster> SetUp() {
    speed_.Sample();
    std::unique_ptr<XdcCluster> c = SetUpCluster(args_.seed);
    setup_s_.push_back(c->setup_s);
    return c;
  }

  /// One probe; folds its accounting into the result and checks that
  /// every arrival ended committed or failed.
  Probe Measure(XdcCluster& c, double rate, sim::SimTime window_us,
                Tracer* tracer = nullptr, Counters* delta = nullptr) {
    speed_.Sample();
    Probe p = RunProbe(c, rate, window_us, args_.seed, tracer, delta);
    result_->attempted += p.attempted;
    result_->failed += p.failed;
    if (!p.drained || p.committed + p.failed != p.attempted) {
      result_->Fail("probe at " + std::to_string(int64_t(rate)) +
                    " txn/s: committed " + std::to_string(p.committed) +
                    " + failed " + std::to_string(p.failed) +
                    " != attempted " + std::to_string(p.attempted));
    }
    std::printf("# probe %8.0f txn/s: p50 %6.3f p99 %7.3f ms, retried %llu, "
                "failed %llu, kept up %.4f, %s (%.2f s host)\n",
                rate, p.p50_ms, p.p99_ms, (unsigned long long)p.retried,
                (unsigned long long)p.failed, p.KeptUpShare(),
                p.Passes() ? "pass" : "FAIL", p.host_s);
    return p;
  }

  /// Ladder upward from 80k txn/s in 20k steps on one cluster, then bisect
  /// on another until the bracket is within kBisectResolution.
  double FindMaxRate() {
    double pass = kNominalRate, fail = 0;
    {
      std::unique_ptr<XdcCluster> c = SetUp();
      for (double rate = 80000;; rate += 20000) {
        if (!Measure(*c, rate, probe_window_us_).Passes()) {
          fail = rate;
          break;
        }
        pass = rate;
      }
    }
    std::unique_ptr<XdcCluster> c = SetUp();
    while (fail - pass > kBisectResolution * pass) {
      double mid = std::round((pass + fail) / 2);
      (Measure(*c, mid, probe_window_us_).Passes() ? pass : fail) = mid;
    }
    return pass;
  }

  /// The nominal probe on three identically seeded clusters: untraced
  /// (warms the process up), traced, untraced again. Virtual-time results
  /// must match exactly; the host-time difference between the last two is
  /// the tracing overhead.
  void RunTraced() {
    Probe cold = Measure(*SetUp(), kNominalRate, nominal_window_us_);
    Tracer tracer;
    Counters d;
    Probe traced =
        Measure(*SetUp(), kNominalRate, nominal_window_us_, &tracer, &d);
    Probe plain = Measure(*SetUp(), kNominalRate, nominal_window_us_);
    if (cold.window_latency_ms != traced.window_latency_ms ||
        plain.window_latency_ms != traced.window_latency_ms) {
      result_->Fail("traced probe diverged from the untraced ones");
    }
    double txns = double(std::max<uint64_t>(1, d.committed));
    result_->Set("sim.messages_per_txn", double(d.messages) / txns,
                 "count/txn");
    result_->Set("sim.bytes_per_txn", double(d.bytes) / txns, "B/txn");
    result_->Set("cn.rpc_retries_per_txn", double(d.retries) / txns,
                 "count/txn");
    result_->Set("txn.conflicts_per_txn", double(d.conflicts) / txns,
                 "count/txn");
    result_->Set("txn.prepared_waits_per_txn",
                 double(d.prepared_waits) / txns, "count/txn");
    result_->Set("consensus.commits_per_flush",
                 double(d.gc_submits) /
                     double(std::max<uint64_t>(1, d.gc_flushes)),
                 "ratio");
    result_->Set("consensus.max_group", double(d.max_group), "count");
    result_->Set("consensus.follower_lag_bytes",
                 Median(traced.follower_lag_bytes), "B");
    result_->Set("storage.redo_bytes_per_txn", double(d.redo_bytes) / txns,
                 "B/txn");
    result_->Set("storage.redo_flushes_per_txn", double(d.gc_flushes) / txns,
                 "count/txn");
    result_->Set("sim.events_per_txn", double(d.events) / txns, "count/txn");
    double plain_us = plain.host_s * 1e6 / double(plain.attempted);
    double traced_us = traced.host_s * 1e6 / double(traced.attempted);
    result_->Set("sim.host_us_per_txn", plain_us, "us/txn");
    result_->Set("trace.overhead_pct", 100.0 * (traced_us / plain_us - 1),
                 "%");
    if (!args_.trace_out.empty() && !tracer.WriteJson(args_.trace_out)) {
      result_->Fail("cannot write " + args_.trace_out);
    }
  }

  const Args& args_;
  RunResult* result_;
  sim::SimTime nominal_window_us_ = 0;
  sim::SimTime probe_window_us_ = 0;
  std::vector<double> setup_s_;
  HostSpeed speed_{HostSpeed::Kernel::kCompute};
};

}  // namespace

RunResult RunOltpXdc(const Args& args) {
  RunResult result;
  OltpXdcBench bench(args, &result);
  bench.Run();
  return result;
}

}  // namespace polarx::perfbench
