// Workload htap_tpcc: TP writes beside AP reads on real threads (E3's
// shape). One closed-loop TP thread runs the standard TPC-C-lite mix
// (TpccDb::RunNext) against one RW TxnEngine: 12 warehouses, 60 customers
// per district, 500 items, 4000 preloaded NewOrders. Meanwhile one
// closed-loop AP client pulls redo onto one RoReplica and sends an
// order_line-join-stock revenue aggregation through HtapRouter, which
// runs it as a sliced job on a QueryScheduler with 2 workers and
// ap_max_concurrency 1, isolation on. At most 4 threads are runnable: TP,
// the AP client (mostly waiting) and the two scheduler workers.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/clock/hlc.h"
#include "src/exec/operator.h"
#include "src/exec/scheduler.h"
#include "src/htap/router.h"
#include "src/replication/rw_ro.h"
#include "src/storage/buffer_pool.h"
#include "src/txn/engine.h"
#include "src/workload/tpcc.h"

namespace polarx::perfbench {
namespace {

constexpr int kSetups = 3;
constexpr int kPreloadNewOrders = 4000;
constexpr int kProfiles = 5;
constexpr int kSpeedSamples = 8;
const char* const kProfileNames[kProfiles] = {
    "new_order", "payment", "order_status", "delivery", "stock_level"};

/// The RW node, its one RO replica, and the HTAP entry point.
struct HtapNode {
  TableCatalog catalog;
  Hlc hlc{SystemClockMs()};
  RedoLog log;
  CountingPageStore store;
  BufferPool pool{&store};
  TxnEngine engine{1, &catalog, &hlc, &log, &pool};
  TpccDb tpcc{&engine, TpccConfig{.warehouses = 12,
                                   .districts_per_warehouse = 10,
                                   .customers_per_district = 60,
                                   .items = 500}};
  RoReplica replica{1};
  QueryScheduler scheduler{
      SchedulerOptions{.num_workers = 2, .ap_max_concurrency = 1}};
  HtapRouter router{&engine, &scheduler};
  double load_s = 0;
  double setup_s = 0;
};

std::unique_ptr<HtapNode> SetUpNode(uint64_t seed, RunResult* result) {
  Clock::time_point start = Clock::now();
  auto node = std::make_unique<HtapNode>();
  Rng rng(seed);
  Status s = node->tpcc.Load(&rng);
  for (int i = 0; s.ok() && i < kPreloadNewOrders; ++i) {
    s = node->tpcc.NewOrder(&rng);
  }
  node->load_s = SecondsSince(start);
  for (TableStore* t : node->catalog.AllTables()) {
    if (s.ok()) s = node->replica.MirrorTable(t->id(), t->name(), t->schema(),
                                              t->tenant());
  }
  if (s.ok()) s = node->replica.PullFrom(node->log).status();
  node->router.AddReplica(&node->replica);
  node->setup_s = SecondsSince(start);
  if (!s.ok()) result->Fail("set-up: " + s.ToString());
  return node;
}

/// Counter snapshot of the RW node's layers and the HTAP entry point.
struct Counters {
  uint64_t conflicts = 0, aborted = 0, committed = 0, redo_bytes = 0,
           bp_flushes = 0, bp_evictions = 0, demotions = 0, ap_routed = 0,
           tp_routed = 0;

  static Counters Read(HtapNode* n) {
    TxnEngineStats es = n->engine.stats();
    return {es.conflicts,
            es.aborted,
            es.committed,
            n->log.current_lsn(),
            n->pool.flushes(),
            n->pool.evictions(),
            n->scheduler.demotions_to_ap() + n->scheduler.demotions_to_slow(),
            n->router.ap_routed(),
            n->router.tp_routed()};
  }
  Counters Since(const Counters& b) const {
    return {conflicts - b.conflicts,   aborted - b.aborted,
            committed - b.committed,   redo_bytes - b.redo_bytes,
            bp_flushes - b.bp_flushes, bp_evictions - b.bp_evictions,
            demotions - b.demotions,   ap_routed - b.ap_routed,
            tp_routed - b.tp_routed};
  }
};

/// What the TP thread measured.
struct TpSide {
  std::vector<double> latency_ms;  // untraced (all, in an untraced run)
  std::vector<double> traced_latency_ms;
  uint64_t new_orders = 0;
  uint64_t aborts = 0;
  double seconds = 0;
};

/// What the AP client measured.
struct ApSide {
  uint64_t queries = 0;
  std::vector<double> query_ms, lag_bytes;
  std::string error;
};

/// Cost profile of the analytical query: a full scan of order_line (a few
/// hundred thousand rows) joined with stock and aggregated, far above the
/// TP/AP threshold.
QueryProfile ApProfile() {
  QueryProfile p;
  p.rows_scanned = 500000;
  p.rows_processed = 500000;
  p.num_joins = 1;
  p.has_aggregation = true;
  return p;
}

class HtapBench {
 public:
  HtapBench(const Args& args, RunResult* result)
      : args_(args), result_(result) {}

  void Run() {
    std::vector<double> setup_s, load_s;
    std::unique_ptr<HtapNode> node;
    for (int i = 0; i < kSetups; ++i) {
      node.reset();  // one node in memory at a time
      node = SetUpNode(args_.seed, result_);
      setup_s.push_back(node->setup_s);
      load_s.push_back(node->load_s);
    }
    // Host speed is sampled while no workload thread runs, so the
    // workload's own load cannot slow the kernel.
    for (int i = 0; i < kSpeedSamples; ++i) speed_.Sample();
    Counters before = Counters::Read(node.get());
    std::array<Tracer, 2> tracers;
    TpSide tp;
    ApSide ap;
    Measure(node.get(), args_.seconds, args_.trace ? &tracers : nullptr, &tp,
            &ap);
    for (int i = 0; i < kSpeedSamples; ++i) speed_.Sample();
    if (args_.trace) {
      ReportTraced(node.get(), before, tracers, tp, ap, Median(load_s));
      return;
    }
    double f = speed_.Factor();
    double tps = double(tp.new_orders) / tp.seconds;
    result_->Set("setup_s", Median(setup_s) * f, "s");
    result_->Set("latency_p50_ms", Quantile(tp.latency_ms, 0.5) * f, "ms");
    result_->Set("latency_tail_ms", Quantile(tp.latency_ms, 0.99) * f, "ms");
    result_->Set("throughput_per_s", tps / f, "1/s");
    result_->Detail("tpmc", tps * 60, "1/min");
    result_->Detail("txn_p50_ms", Quantile(tp.latency_ms, 0.5), "ms");
    result_->Detail("txn_p99_ms", Quantile(tp.latency_ms, 0.99), "ms");
    result_->Detail("setup_s_measured", Median(setup_s), "s");
    result_->Detail("host_kernel_ms", speed_.KernelMs(), "ms");
    result_->Detail("tp_txns", double(tp.latency_ms.size()), "count");
    result_->Detail("ap_queries", double(ap.queries), "count");
    result_->Detail("ap_query_ms", Median(ap.query_ms), "ms");
  }

 private:
  /// Runs TP and AP side by side for `seconds`, then checks the outputs.
  /// `tracers` (TP, AP) record spans when non-null.
  void Measure(HtapNode* node, double seconds, std::array<Tracer, 2>* tracers,
               TpSide* tp, ApSide* ap) {
    std::atomic<bool> stop{false};
    uint64_t new_orders_before = node->tpcc.stats().new_orders;
    std::thread tp_thread([&] {
      RunTp(node, stop, tracers ? &(*tracers)[0] : nullptr, tp);
    });
    std::thread ap_thread([&] {
      RunAp(node, stop, tracers ? &(*tracers)[1] : nullptr, ap);
    });
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    tp_thread.join();
    ap_thread.join();

    result_->attempted +=
        tp->latency_ms.size() + tp->traced_latency_ms.size() + ap->queries;
    result_->failed += tp->aborts;
    if (!ap->error.empty()) {
      ++result_->failed;
      result_->Fail(ap->error);
    }
    tp->new_orders = node->tpcc.stats().new_orders - new_orders_before;
    Result<int64_t> placed = node->tpcc.TotalOrdersPlaced();
    uint64_t committed = node->tpcc.stats().new_orders;
    if (!placed.ok() || uint64_t(*placed) != committed) {
      result_->Fail("TotalOrdersPlaced " +
                    (placed.ok() ? std::to_string(*placed)
                                 : placed.status().ToString()) +
                    " != committed NewOrders " + std::to_string(committed));
    }
  }

  void RunTp(HtapNode* node, const std::atomic<bool>& stop, Tracer* tracer,
             TpSide* tp) {
    Rng rng(args_.seed * 0x9E3779B97F4A7C15ULL + 7);
    Clock::time_point start = Clock::now();
    uint64_t id = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // A traced run traces every other second of TP, so traced and
      // untraced transactions see the same data growth and host drift.
      bool traced =
          tracer != nullptr && int64_t(SecondsSince(start)) % 2 == 1;
      uint64_t aborts = node->tpcc.stats().aborts;
      int64_t t0 = Tracer::NowNs();
      TpccTxnType type = node->tpcc.RunNext(&rng);
      int64_t t1 = Tracer::NowNs();
      double ms = double(t1 - t0) / 1e6;
      tp->aborts += node->tpcc.stats().aborts - aborts;
      if (!traced) {
        tp->latency_ms.push_back(ms);
      } else {
        tp->traced_latency_ms.push_back(ms);
        tracer->Add(std::string("tpcc.") + kProfileNames[int(type)], ++id, -1,
                    t0, t1);
      }
    }
    tp->seconds = SecondsSince(start);
  }

  void RunAp(HtapNode* node, const std::atomic<bool>& stop, Tracer* tracer,
             ApSide* ap) {
    TableId order_line = node->tpcc.order_line_table();
    TableId stock = node->tpcc.stock_table();
    double last_count = 0;
    uint64_t id = 1ULL << 40;
    while (!stop.load(std::memory_order_relaxed)) {
      ++id;
      int64_t q0 = Tracer::NowNs();
      ap->lag_bytes.push_back(double(node->log.flushed_lsn() -
                                     node->replica.applied_lsn()));
      Result<Lsn> pulled = node->replica.PullFrom(node->log);
      int64_t q1 = Tracer::NowNs();
      if (!pulled.ok()) {
        ap->error = "PullFrom: " + pulled.status().ToString();
        return;
      }
      Timestamp snap = node->replica.SnapshotTs();
      QueryProfile profile = ApProfile();
      RouteDecision d1, d2;
      Result<OperatorPtr> ol_scan =
          node->router.PlanScan(profile, order_line, nullptr, snap, &d1);
      Result<OperatorPtr> stock_scan =
          node->router.PlanScan(profile, stock, nullptr, snap, &d2);
      int64_t q2 = Tracer::NowNs();
      if (!ol_scan.ok() || !stock_scan.ok()) {
        ap->error = "PlanScan failed";
        return;
      }
      if (d1.workload != WorkloadClass::kAp || d1.replica != 0 ||
          d2.workload != WorkloadClass::kAp || d2.replica != 0) {
        ap->error = "AP query not routed AP onto the replica";
        return;
      }
      // Revenue and line count per item over order_line JOIN stock on
      // (w_id, i_id).
      auto join = std::make_unique<HashJoinOp>(
          std::move(*ol_scan), std::move(*stock_scan),
          std::vector<int>{0, 4}, std::vector<int>{0, 1});
      auto agg = std::make_unique<HashAggOp>(
          std::move(join), std::vector<ExprPtr>{Expr::Col(4)},
          std::vector<AggSpec>{{AggOp::kSum, Expr::Col(7)},
                               {AggOp::kCount, nullptr}});
      Result<std::vector<Row>> rows = node->router.Execute(std::move(agg), d1);
      int64_t q3 = Tracer::NowNs();
      if (!rows.ok()) {
        ap->error = "AP query: " + rows.status().ToString();
        return;
      }
      // Every order line has its stock row, and order lines are never
      // deleted: the joined count covers at most the 500 items and never
      // shrinks as the replica's snapshot advances.
      double count = 0;
      for (const Row& r : *rows) count += double(std::get<int64_t>(r[2]));
      if (rows->size() > 500 || count < last_count || count <= 0) {
        ap->error = "AP result inconsistent: " +
                    std::to_string(rows->size()) + " groups, " +
                    std::to_string(count) + " lines after " +
                    std::to_string(last_count);
        return;
      }
      last_count = count;
      ++ap->queries;
      ap->query_ms.push_back(double(q3 - q0) / 1e6);
      if (tracer != nullptr) {
        int64_t root = tracer->Add("htap.ap_query", id, -1, q0, q3);
        tracer->Add("replication.pull", id, root, q0, q1);
        tracer->Add("htap.plan_scan", id, root, q1, q2);
        tracer->Add("htap.execute", id, root, q2, q3);
      }
    }
  }

  void ReportTraced(HtapNode* node, const Counters& before,
                    std::array<Tracer, 2>& tracers, const TpSide& tp,
                    const ApSide& ap, double load_s) {
    Counters d = Counters::Read(node).Since(before);
    result_->Set("workload.tpcc_load_s", load_s, "s");
    for (int i = 0; i < kProfiles; ++i) {
      result_->Set(std::string("tpcc.") + kProfileNames[i] + "_p50_ms",
                   Median(tracers[0].DurationsMs(std::string("tpcc.") +
                                                 kProfileNames[i])),
                   "ms");
    }
    result_->Set("txn.conflicts", double(d.conflicts), "count");
    result_->Set("txn.aborts", double(d.aborted), "count");
    result_->Set("storage.redo_bytes_per_txn",
                 double(d.redo_bytes) /
                     double(std::max<uint64_t>(1, d.committed)),
                 "B/txn");
    result_->Set("storage.bp_flushes", double(d.bp_flushes), "count");
    result_->Set("storage.bp_evictions", double(d.bp_evictions), "count");
    result_->Set("replication.lag_bytes", Median(ap.lag_bytes), "B");
    result_->Set("replication.pull_ms",
                 Median(tracers[1].DurationsMs("replication.pull")), "ms");
    result_->Set("htap.plan_scan_ms",
                 Median(tracers[1].DurationsMs("htap.plan_scan")), "ms");
    result_->Set("htap.execute_ms",
                 Median(tracers[1].DurationsMs("htap.execute")), "ms");
    result_->Set("htap.ap_query_ms",
                 Median(tracers[1].DurationsMs("htap.ap_query")), "ms");
    result_->Set("htap.ap_routed", double(d.ap_routed), "count");
    result_->Set("htap.tp_routed", double(d.tp_routed), "count");
    result_->Set("exec.scheduler_demotions", double(d.demotions), "count");
    result_->Set("trace.overhead_pct",
                 100.0 * (Quantile(tp.traced_latency_ms, 0.5) /
                              Quantile(tp.latency_ms, 0.5) -
                          1),
                 "%");
    tracers[0].Append(tracers[1]);
    if (!args_.trace_out.empty() && !tracers[0].WriteJson(args_.trace_out)) {
      result_->Fail("cannot write " + args_.trace_out);
    }
  }

  const Args& args_;
  RunResult* result_;
  HostSpeed speed_{HostSpeed::Kernel::kCompute};
};

}  // namespace

RunResult RunHtapTpcc(const Args& args) {
  RunResult result;
  HtapBench bench(args, &result);
  bench.Run();
  return result;
}

}  // namespace polarx::perfbench
