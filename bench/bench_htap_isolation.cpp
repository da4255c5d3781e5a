// Experiment E3 (Fig. 9): resource isolation and scalable RO nodes under a
// mixed TPC-C + analytics load, run through the library's HTAP path.
//
// Each config loads a fresh RW node (TPC-C-lite, 12 warehouses, 4000
// preloaded NewOrders) and runs one closed-loop TPC-C client whose
// transactions are TP jobs on the RW's QueryScheduler (2 workers, AP quota
// 1): the CN's TP pool of §VI-D. The analytical query counts units and
// order lines per item over order_line JOIN stock (scan + join + partial
// aggregation per warehouse range), then ranks items in a coordinator stage.
//   1-2. Two AP clients plan with HtapRouter::PlanScan and run with
//      HtapRouter::Execute in the RW scheduler's AP pool. The configs differ
//      only in SetIsolationEnabled(false/true).
//   3-6. One AP client runs the query on 1..4 RoReplicas fed by the RW's redo
//      through MppExecutor::RunPartialFinal, one ThreadPool thread and task
//      per RO; the merge runs the coordinator stage. The RO threads share
//      this host's cores with the RW (the paper's ROs are machines).
//
// tpmC is counted per 500 ms bucket (the first is warm-up); a jitter is a
// bucket below 75% of the median. AP latency is the median query time, the
// ROs' redo catch-up included. Each RO config ends by checking its rows
// against one RO's at one snapshot (exit 1 if they differ).
// --smoke shrinks the run to a CI canary; --json=PATH writes the results.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_flags.h"
#include "src/clock/hlc.h"
#include "src/common/thread_pool.h"
#include "src/exec/mpp.h"
#include "src/exec/operator.h"
#include "src/exec/scheduler.h"
#include "src/htap/router.h"
#include "src/replication/rw_ro.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/key_codec.h"
#include "src/txn/engine.h"
#include "src/workload/tpcc.h"

namespace polarx {
namespace {

using Clock = std::chrono::steady_clock;
using Rows = std::vector<Row>;

constexpr int kApClientsOnRw = 2;

struct Shape {
  int warehouses = 12;
  int preload_new_orders = 4000;
  int duration_ms = 6000;
  int bucket_ms = 500;
};

void CheckOk(const Status& s, const char* what) {
  if (s.ok()) return;
  std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
  std::exit(1);
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, size_t(q * double(v.size())))];
}

/// The RW node: TPC-C on one engine and the CN's scheduler.
struct RwNode {
  TableCatalog catalog;
  Hlc hlc{SystemClockMs()};
  RedoLog log;
  CountingPageStore store;
  BufferPool pool{&store};
  TxnEngine engine{1, &catalog, &hlc, &log, &pool};
  TpccDb tpcc;
  QueryScheduler scheduler{
      SchedulerOptions{.num_workers = 2, .ap_max_concurrency = 1}};

  explicit RwNode(const Shape& shape)
      : tpcc(&engine, TpccConfig{.warehouses = shape.warehouses,
                                 .districts_per_warehouse = 10,
                                 .customers_per_district = 60,
                                 .items = 500}) {
    Rng rng(99);
    CheckOk(tpcc.Load(&rng), "TPC-C load");
    for (int i = 0; i < shape.preload_new_orders; ++i) {
      CheckOk(tpcc.NewOrder(&rng), "preload NewOrder");
    }
  }
};

// ---- the analytical query ----

/// Sums of integers, so partials merge to the same values in any order.
std::vector<AggSpec> UnitsAggs() {
  return {{AggOp::kSum, Expr::Col(6)}, {AggOp::kCount, nullptr}};
}

/// Partial units and line count per item over order_line JOIN stock on
/// (w_id, i_id). Output: i_id, units, lines.
OperatorPtr PartialUnits(OperatorPtr order_line, OperatorPtr stock) {
  auto join = std::make_unique<HashJoinOp>(
      std::move(order_line), std::move(stock), std::vector<int>{0, 4},
      std::vector<int>{0, 1});
  return std::make_unique<HashAggOp>(std::move(join),
                                     std::vector<ExprPtr>{Expr::Col(4)},
                                     UnitsAggs(), AggMode::kPartial);
}

/// The coordinator stage: merges the partials per item and ranks items.
OperatorPtr CoordinatorStage(OperatorPtr partials) {
  return std::make_unique<SortOp>(
      std::make_unique<HashAggOp>(std::move(partials),
                                  std::vector<ExprPtr>{Expr::Col(0)},
                                  UnitsAggs(), AggMode::kFinal),
      std::vector<SortKey>{{1, false}, {0, true}});
}

/// Runs the query on the RW through the HTAP entry point: `router` plans
/// both scans and runs the plan in the scheduler's AP pool.
Result<Rows> RunOnRw(RwNode* rw, HtapRouter* router) {
  const QueryProfile profile{.rows_scanned = 5e5, .rows_processed = 5e5,
                             .num_joins = 1, .has_aggregation = true};
  Timestamp snap = rw->hlc.Now();
  RouteDecision d;  // the same profile routes both scans alike
  POLARX_ASSIGN_OR_RETURN(
      OperatorPtr ol, router->PlanScan(profile, rw->tpcc.order_line_table(),
                                       nullptr, snap, &d));
  POLARX_ASSIGN_OR_RETURN(
      OperatorPtr stock, router->PlanScan(profile, rw->tpcc.stock_table(),
                                          nullptr, snap, &d));
  if (d.workload != WorkloadClass::kAp) {
    return Status::Internal("analytical query not routed to the AP pool");
  }
  return router->Execute(
      CoordinatorStage(PartialUnits(std::move(ol), std::move(stock))), d);
}

OperatorPtr WarehouseScan(RoReplica* ro, TableId table, Timestamp snap,
                          int64_t w_lo, int64_t w_hi) {
  auto scan = std::make_unique<TableScanOp>(
      std::vector<TableStore*>{ro->catalog()->FindTable(table)}, snap);
  scan->SetKeyRange(EncodeKey({w_lo}), EncodeKey({w_hi + 1}));
  return scan;
}

/// Runs the query as one MPP plan: task r on `ros[r]` over its share of
/// the warehouses, the coordinator stage in the merge.
Result<Rows> RunOnRos(MppExecutor* mpp, const TpccDb& tpcc,
                      const std::vector<RoReplica*>& ros, Timestamp snap) {
  const int64_t warehouses = tpcc.config().warehouses;
  return mpp->RunPartialFinal(
      int(ros.size()),
      [&](int task, int tasks) {
        int64_t lo = 1 + task * warehouses / tasks;
        int64_t hi = (task + 1) * warehouses / tasks;
        RoReplica* ro = ros[size_t(task)];
        return PartialUnits(
            WarehouseScan(ro, tpcc.order_line_table(), snap, lo, hi),
            WarehouseScan(ro, tpcc.stock_table(), snap, lo, hi));
      },
      CoordinatorStage);
}

// ---- clients and measurement ----

/// One TPC-C transaction of the standard mix.
class TpccTxnJob : public SlicedJob {
 public:
  TpccTxnJob(TpccDb* tpcc, Rng* rng) : tpcc_(tpcc), rng_(rng) {}
  bool RunSlice() override {
    tpcc_->RunNext(rng_);
    return true;
  }

 private:
  TpccDb* tpcc_;
  Rng* rng_;
};

/// One closed-loop AP client runs one query after another.
using ApClient = std::function<Result<Rows>()>;

/// Runs the TPC-C client beside `clients` for the window; prints and
/// returns the config's JSON object.
std::string Measure(const std::string& name, int ro_nodes, RwNode* rw,
                    const Shape& shape, const std::vector<ApClient>& clients) {
  std::atomic<bool> stop{false};
  std::vector<uint64_t> buckets;  // committed NewOrders per bucket
  std::vector<double> tp_ms;
  std::thread tp([&] {
    Rng rng(7);
    auto job = std::make_shared<TpccTxnJob>(&rw->tpcc, &rng);
    Clock::time_point start = Clock::now();
    uint64_t last = rw->tpcc.stats().new_orders;
    while (!stop.load()) {
      Clock::time_point t0 = Clock::now();
      rw->scheduler.Submit(job, QueryClass::kTp)->Wait();
      tp_ms.push_back(MsSince(t0));
      while (buckets.size() < size_t(MsSince(start) / shape.bucket_ms)) {
        uint64_t orders = rw->tpcc.stats().new_orders;
        buckets.push_back(orders - last);
        last = orders;
      }
    }
  });
  std::vector<Status> ap_status(clients.size());
  std::mutex ap_mu;
  std::vector<double> ap_ms, ap_lines, ap_ms_per_10k;  // guarded by ap_mu
  std::vector<std::thread> ap;
  for (size_t c = 0; c < clients.size(); ++c) {
    ap.emplace_back([&, c] {
      while (!stop.load()) {
        Clock::time_point t0 = Clock::now();
        Result<Rows> rows = clients[c]();
        ap_status[c] = rows.status();
        if (!rows.ok()) return;
        double ms = MsSince(t0), lines = 0;  // each line has its stock row
        for (const Row& row : *rows) lines += double(std::get<int64_t>(row[2]));
        std::lock_guard<std::mutex> lock(ap_mu);
        ap_ms.push_back(ms);
        ap_lines.push_back(lines);
        ap_ms_per_10k.push_back(ms / lines * 1e4);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(shape.duration_ms));
  stop.store(true);
  tp.join();
  for (std::thread& t : ap) t.join();

  for (const Status& s : ap_status) CheckOk(s, "AP query");
  std::vector<double> steady(buckets.begin() + 1, buckets.end());
  double median = Quantile(steady, 0.5), sum = 0;
  int jitters = 0;
  for (double b : steady) {
    sum += b;
    jitters += b < 0.75 * median;
  }
  const double per_min = 60000.0 / shape.bucket_ms;
  char json[768];
  std::snprintf(
      json, sizeof(json),
      "{\"name\": \"%s\", \"isolation\": %s, \"ro_nodes\": %d, "
      "\"avg_tpmc\": %.0f, \"min_bucket_tpmc\": %.0f, \"jitter_buckets\": "
      "%d, \"buckets\": %zu, \"tp_txns\": %zu, \"tp_p50_ms\": %.3f, "
      "\"tp_p99_ms\": %.3f, \"ap_queries\": %zu, \"ap_latency_ms\": %.2f, "
      "\"ap_order_lines\": %.0f, \"ap_ms_per_10k_lines\": %.3f}",
      name.c_str(), rw->scheduler.isolation_enabled() ? "true" : "false",
      ro_nodes, sum / double(steady.size()) * per_min,
      Quantile(steady, 0) * per_min, jitters, steady.size(), tp_ms.size(),
      Quantile(tp_ms, 0.5), Quantile(tp_ms, 0.99), ap_ms.size(),
      Quantile(ap_ms, 0.5), Quantile(ap_lines, 0.5),
      Quantile(ap_ms_per_10k, 0.5));
  std::printf("%s\n", json);
  return json;
}

/// Configs 1-2: the analytics run on the RW through HtapRouter.
std::string MeasureApOnRw(const Shape& shape, bool isolation) {
  RwNode rw(shape);
  rw.scheduler.SetIsolationEnabled(isolation);
  // One router per AP client session (a router is not shared between
  // threads); all of them submit to the one scheduler.
  std::deque<HtapRouter> routers;
  std::vector<ApClient> clients;
  for (int c = 0; c < kApClientsOnRw; ++c) {
    HtapRouter* router = &routers.emplace_back(&rw.engine, &rw.scheduler);
    clients.push_back([&rw, router] { return RunOnRw(&rw, router); });
  }
  return Measure(isolation ? "2: isolation ON, AP on RW"
                           : "1: isolation OFF, AP on RW",
                 0, &rw, shape, clients);
}

/// Configs 3-6: the analytics run as MPP over `ro_nodes` dedicated ROs.
std::string MeasureApOnRos(const Shape& shape, int ro_nodes) {
  RwNode rw(shape);
  std::deque<RoReplica> owned;
  std::vector<RoReplica*> ros;
  for (int i = 0; i < ro_nodes; ++i) {
    ros.push_back(&owned.emplace_back(uint32_t(i + 1)));
    for (TableStore* t : rw.catalog.AllTables()) {
      CheckOk(ros.back()->MirrorTable(t->id(), t->name(), t->schema(),
                                      t->tenant()),
              "RO mirror");
    }
  }
  ThreadPool pool(size_t(ro_nodes), "ro");
  MppExecutor mpp(&pool);
  // Each query starts with every RO pulling the RW's redo on its own thread
  // (session consistency, as HtapRouter::PlanScan does for one replica),
  // then reads at a snapshot all of them applied.
  Timestamp snap = kMaxTimestamp;
  ApClient client = [&]() -> Result<Rows> {
    std::vector<Status> pulled(ros.size());
    for (size_t i = 0; i < ros.size(); ++i) {
      auto pull = [&, i] { pulled[i] = ros[i]->PullFrom(rw.log).status(); };
      if (!pool.Submit(pull)) pull();
    }
    pool.Wait();
    snap = kMaxTimestamp;
    for (size_t i = 0; i < ros.size(); ++i) {
      POLARX_RETURN_NOT_OK(pulled[i]);
      snap = std::min(snap, ros[i]->SnapshotTs());
    }
    return RunOnRos(&mpp, rw.tpcc, ros, snap);
  };
  CheckOk(client().status(), "RO warm-up query");
  std::string name = std::to_string(2 + ro_nodes) + ": " +
                     std::to_string(ro_nodes) + " dedicated RO node(s)";
  std::string json = Measure(name, ro_nodes, &rw, shape, {client});

  Result<Rows> all = client();
  Result<Rows> one = RunOnRos(&mpp, rw.tpcc, {ros[0]}, snap);
  CheckOk(all.status(), "MPP check query");
  CheckOk(one.status(), "1-RO check query");
  if (*all != *one) {
    std::fprintf(stderr, "%s: MPP rows differ from one RO's (%zu vs %zu)\n",
                 name.c_str(), all->size(), one->size());
    std::exit(1);
  }
  return json;
}

}  // namespace
}  // namespace polarx

int main(int argc, char** argv) {
  using namespace polarx;
  BenchFlags flags = ParseBenchFlags(argc, argv);
  Shape shape;
  if (flags.smoke) {
    shape = {.warehouses = 4, .preload_new_orders = 200, .duration_ms = 300,
             .bucket_ms = 50};
  }
  std::printf("E3 / Fig.9 — HTAP: resource isolation and scalable RO nodes\n");

  std::string configs = MeasureApOnRw(shape, /*isolation=*/false);
  configs += ",\n    " + MeasureApOnRw(shape, /*isolation=*/true);
  for (int ro = 1; ro <= 4; ++ro) {
    configs += ",\n    " + MeasureApOnRos(shape, ro);
  }
  char head[256];
  std::snprintf(head, sizeof(head),
                "{\n  \"bench\": \"bench_htap_isolation\",\n  \"setup\": "
                "{\"warehouses\": %d, \"duration_ms\": %d, \"host_threads\": "
                "%u, \"smoke\": %s},\n  \"configs\": [\n    ",
                shape.warehouses, shape.duration_ms,
                std::thread::hardware_concurrency(),
                flags.smoke ? "true" : "false");
  WriteBenchJson(flags, head + configs + "\n  ]\n}\n");
  return 0;
}
