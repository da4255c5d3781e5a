// Workloads tpch_column and tpch_mpp: one closed-loop client running
// repeated 22-query TPC-H-lite streams, either single-node over the column
// indexes (RunQuerySingleNode with use_column_index) or as 4-task MPP on a
// ThreadPool(4) (RunQueryMpp). Every result is checked against the
// single-node row-store answer computed once at set-up.
//
// Traced streams rebuild the same execution from BuildQuery (and, for
// MPP, MppExecutor::RunPartialFinal, the body of RunQueryMpp) with a
// pass-through timing operator on each fragment root and on the merge
// root, so per-fragment busy time, dispatch wait and merge time are
// measured without touching the library.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <string>

#include "perfbench/src/bench.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/exec/mpp.h"
#include "src/exec/runtime_filter.h"
#include "src/workload/tpch.h"

namespace polarx::perfbench {
namespace {

using tpch::TpchDb;

constexpr double kScale = 0.02;
constexpr uint32_t kShards = 8;
constexpr int kSetups = 3;
constexpr int kTasks = 4;
constexpr int kQueries = 22;

/// Order-insensitive result fingerprint: the row count, a wrapping sum of
/// per-row hashes over the exact (integer/string/NULL) cells, and a sum of
/// the double cells, which differ in the last bits between plans that add
/// in different orders.
struct Fingerprint {
  size_t rows = 0;
  uint64_t exact = 0;
  double approx = 0;
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h * 0xBF58476D1CE4E5B9ULL;
}

Fingerprint FingerprintOf(const std::vector<Row>& rows) {
  Fingerprint fp;
  fp.rows = rows.size();
  for (const Row& row : rows) {
    uint64_t h = 0;
    for (const Value& v : row) {
      if (const auto* i = std::get_if<int64_t>(&v)) {
        h = Mix(h, uint64_t(*i));
      } else if (const auto* d = std::get_if<double>(&v)) {
        fp.approx += *d;
        h = Mix(h, 2);
      } else if (const auto* s = std::get_if<std::string>(&v)) {
        h = Mix(h, std::hash<std::string>{}(*s));
      } else {
        h = Mix(h, 1);  // NULL
      }
    }
    fp.exact += h;
  }
  return fp;
}

std::string QueryName(int q) {
  char name[8];
  std::snprintf(name, sizeof(name), "Q%d", q);
  return name;
}

bool Matches(const Fingerprint& got, const Fingerprint& want) {
  double tol = std::abs(want.approx) * 1e-6 + 1e-6;
  return got.rows == want.rows && got.exact == want.exact &&
         std::abs(got.approx - want.approx) <= tol;
}

/// Timing decorator: forwards to `child` and accumulates the time spent
/// inside it and the rows it returned into `out`, which outlives the
/// operator (fragments are destroyed on the worker that ran them).
struct OpTiming {
  int64_t first_open_ns = 0;
  int64_t busy_ns = 0;
  uint64_t rows = 0;
};

class TimedOp final : public Operator {
 public:
  TimedOp(OperatorPtr child, OpTiming* out)
      : child_(std::move(child)), out_(out) {}

  Status Open() override {
    int64_t start = Tracer::NowNs();
    out_->first_open_ns = start;
    Status s = child_->Open();
    out_->busy_ns += Tracer::NowNs() - start;
    return s;
  }
  Status Next(Batch* batch) override {
    int64_t start = Tracer::NowNs();
    Status s = child_->Next(batch);
    out_->busy_ns += Tracer::NowNs() - start;
    out_->rows += batch->rows.size();
    rows_produced_ += batch->rows.size();
    return s;
  }
  void Close() override {
    int64_t start = Tracer::NowNs();
    child_->Close();
    out_->busy_ns += Tracer::NowNs() - start;
  }

 private:
  OperatorPtr child_;
  OpTiming* out_;
};

/// Counters of the traced streams, summed over their queries.
struct TraceTotals {
  double fragment_busy_ms = 0;
  double merge_ms = 0;
  double parallel_wall_ms = 0;
  uint64_t root_rows = 0;
  uint64_t rows_gathered = 0;
  std::vector<double> dispatch_wait_ms;
  std::vector<double> task_skew;
};

class TpchBench {
 public:
  TpchBench(const Args& args, bool mpp, RunResult* result)
      : args_(args),
        mpp_(mpp),
        result_(result),
        pool_(kTasks, "mpp"),
        // Single-node column streams are bound by scan bandwidth; MPP over
        // the row store by integer work.
        speed_(mpp ? HostSpeed::Kernel::kCompute
                   : HostSpeed::Kernel::kBandwidth) {}

  void Run() {
    SetUp();
    ComputeOracle();
    // One unmeasured stream lets lazy state (allocator arenas, pool
    // threads, page faults on the column indexes) settle first.
    uint64_t stream = 0;
    RunStream(stream++, /*traced=*/false, nullptr);

    // A traced run alternates untraced and traced streams, so both halves
    // see the same host drift and their difference is the tracing cost.
    ResetRuntimeFilterStats();
    Clock::time_point end = Clock::now() + ToDuration(args_.seconds);
    std::vector<double> stream_s, traced_stream_s, query_ms;
    std::vector<std::vector<double>> per_query(kQueries + 1);
    TraceTotals totals;
    for (uint64_t i = 0;
         Clock::now() < end || (args_.trace && traced_stream_s.empty());
         ++i) {
      speed_.Sample();  // between streams: the pool is idle
      bool traced = args_.trace && i % 2 == 1;
      StreamTimes t = RunStream(stream++, traced, &totals);
      if (traced) {
        traced_stream_s.push_back(t.stream_s);
        continue;
      }
      stream_s.push_back(t.stream_s);
      for (auto [q, ms] : t.queries) {
        query_ms.push_back(ms);
        per_query[size_t(q)].push_back(ms);
      }
    }

    double median_stream = Median(stream_s);
    if (!args_.trace) {
      double f = speed_.Factor();
      result_->Set("setup_s", Median(setup_s_) * f, "s");
      result_->Set("latency_p50_ms", Quantile(query_ms, 0.5) * f, "ms");
      result_->Set("latency_tail_ms", Quantile(query_ms, 0.9) * f, "ms");
      result_->Set("throughput_per_s", kQueries / median_stream / f, "1/s");
      result_->Detail("stream_s", median_stream, "s");
      result_->Detail("query_p50_ms", Quantile(query_ms, 0.5), "ms");
      result_->Detail("query_p90_ms", Quantile(query_ms, 0.9), "ms");
      result_->Detail("setup_s_measured", Median(setup_s_), "s");
      result_->Detail("host_kernel_ms", speed_.KernelMs(), "ms");
      result_->Detail("streams", double(stream_s.size()), "count");
      result_->Detail("query_samples", double(query_ms.size()), "count");
      return;
    }

    // Runtime-filter counters depend on the data and plans only, so every
    // stream adds the same amount, traced or not.
    double streams = double(stream_s.size() + traced_stream_s.size());
    ReportTraced(totals, ReadRuntimeFilterStats(),
                 double(traced_stream_s.size()), streams);
    for (int q = 1; q <= kQueries; ++q) {
      char name[32];
      std::snprintf(name, sizeof(name), "tpch.q%02d_ms", q);
      result_->Set(name, Median(per_query[size_t(q)]), "ms");
    }
    result_->Set("trace.overhead_pct",
                 100.0 * (Median(traced_stream_s) / median_stream - 1), "%");
    if (!args_.trace_out.empty() && !tracer_.WriteJson(args_.trace_out)) {
      result_->Fail("cannot write " + args_.trace_out);
    }
  }

 private:
  struct StreamTimes {
    double stream_s = 0;
    std::vector<std::pair<int, double>> queries;
  };

  static Clock::duration ToDuration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }

  void SetUp() {
    std::vector<double> load_s, build_s;
    for (int i = 0; i < kSetups; ++i) {
      db_.reset();  // one database in memory at a time
      Clock::time_point start = Clock::now();
      auto db = std::make_unique<TpchDb>(tpch::TpchConfig{
          .scale = kScale, .shards_per_table = kShards, .seed = args_.seed});
      db->Load();
      Clock::time_point loaded = Clock::now();
      for (int t = 0; t < tpch::kNumTables; ++t) {
        db->BuildColumnIndex(tpch::Table(t));
      }
      Clock::time_point built = Clock::now();
      load_s.push_back(MsBetween(start, loaded) / 1e3);
      build_s.push_back(MsBetween(loaded, built) / 1e3);
      setup_s_.push_back(MsBetween(start, built) / 1e3);
      db_ = std::move(db);
    }
    if (args_.trace) {
      result_->Set("workload.tpch_load_s", Median(load_s), "s");
      result_->Set("colindex.build_s", Median(build_s), "s");
    }
    result_->Detail("lineitem_rows", double(db_->row_count(tpch::kLineItem)),
                    "count");
  }

  void ComputeOracle() {
    expected_.resize(kQueries + 1);
    for (int q = 1; q <= kQueries; ++q) {
      auto rows = tpch::RunQuerySingleNode(q, *db_, db_->load_ts(), false);
      if (!rows.ok()) {
        result_->Fail("oracle " + QueryName(q) + ": " +
                      rows.status().ToString());
        continue;
      }
      expected_[size_t(q)] = FingerprintOf(*rows);
    }
  }

  tpch::ScanOptions Options() const {
    tpch::ScanOptions opt;
    opt.use_column_index = true;
    return opt;
  }

  /// One stream: the 22 queries in a permutation drawn from the seed.
  StreamTimes RunStream(uint64_t stream, bool traced, TraceTotals* totals) {
    std::vector<int> order(kQueries);
    std::iota(order.begin(), order.end(), 1);
    Rng rng(args_.seed * 1000003 + stream);
    rng.Shuffle(&order);
    StreamTimes t;
    Clock::time_point start = Clock::now();
    for (int q : order) {
      Clock::time_point qs = Clock::now();
      Result<std::vector<Row>> rows =
          traced ? RunTraced(q, totals) : RunUntraced(q);
      t.queries.push_back({q, MsBetween(qs, Clock::now())});
      Check(q, rows);
    }
    t.stream_s = SecondsSince(start);
    return t;
  }

  Result<std::vector<Row>> RunUntraced(int q) {
    if (mpp_) {
      return tpch::RunQueryMpp(q, *db_, db_->load_ts(), kTasks, &pool_,
                               Options());
    }
    return tpch::RunQuerySingleNode(q, *db_, db_->load_ts(), Options());
  }

  Result<std::vector<Row>> RunTraced(int q, TraceTotals* totals) {
    uint64_t id = ++trace_ids_;
    int64_t query = tracer_.Begin("tpch.query", id);
    int64_t plan_span = tracer_.Begin("optimizer.plan", id, query);
    tpch::TpchPlan plan = tpch::BuildQuery(q, *db_, db_->load_ts());
    tracer_.End(plan_span);

    std::vector<OpTiming> fragments(mpp_ ? kTasks : 1);
    OpTiming merge;
    Result<std::vector<Row>> rows = std::vector<Row>{};
    int64_t call_ns = Tracer::NowNs();
    int64_t gathered_ns = call_ns;
    if (mpp_) {
      MppExecutor executor(&pool_);
      rows = executor.RunPartialFinal(
          kTasks,
          [&](int task, int num_tasks) -> OperatorPtr {
            tpch::ScanOptions opt = Options();
            opt.task = task;
            opt.num_tasks = num_tasks;
            return std::make_unique<TimedOp>(plan.fragment(opt),
                                             &fragments[size_t(task)]);
          },
          [&](OperatorPtr gathered) -> OperatorPtr {
            gathered_ns = Tracer::NowNs();
            return std::make_unique<TimedOp>(plan.merge(std::move(gathered)),
                                             &merge);
          });
      totals->rows_gathered += executor.last_gathered_rows();
    } else {
      tpch::ScanOptions opt = Options();
      OperatorPtr root = std::make_unique<TimedOp>(
          plan.merge(std::make_unique<TimedOp>(plan.fragment(opt),
                                               &fragments[0])),
          &merge);
      rows = Collect(root.get());
    }
    int64_t done_ns = Tracer::NowNs();
    tracer_.End(query);

    double busy_sum = 0, busy_max = 0;
    int64_t first_open = done_ns;
    for (const OpTiming& f : fragments) {
      double busy = double(f.busy_ns) / 1e6;
      busy_sum += busy;
      busy_max = std::max(busy_max, busy);
      first_open = std::min(first_open, f.first_open_ns);
      totals->root_rows += f.rows;
      tracer_.Add("exec.fragment", id, query, f.first_open_ns,
                  f.first_open_ns + f.busy_ns);
    }
    totals->fragment_busy_ms += busy_sum;
    if (mpp_) {
      tracer_.Add("mpp.dispatch", id, query, call_ns, first_open);
      tracer_.Add("exec.merge", id, query, merge.first_open_ns,
                  merge.first_open_ns + merge.busy_ns);
      totals->merge_ms += double(merge.busy_ns) / 1e6;
      totals->dispatch_wait_ms.push_back(double(first_open - call_ns) / 1e6);
      totals->parallel_wall_ms += double(gathered_ns - call_ns) / 1e6;
      if (busy_sum > 0) {
        totals->task_skew.push_back(busy_max / (busy_sum / kTasks));
      }
    } else {
      // Single-node: the merge root pulls the fragment inline, so its
      // own work is its busy time minus the fragment's.
      totals->merge_ms += double(merge.busy_ns - fragments[0].busy_ns) / 1e6;
    }
    return rows;
  }

  /// `streams` traced streams built `totals`; `rf` covers `all_streams`.
  void ReportTraced(const TraceTotals& totals, const RuntimeFilterStats& rf,
                    double streams, double all_streams) {
    result_->Set("optimizer.plan_ms", Median(tracer_.DurationsMs(
                                          "optimizer.plan")),
                 "ms");
    result_->Set("exec.fragment_busy_ms", totals.fragment_busy_ms / streams,
                 "ms");
    result_->Set("exec.root_rows", double(totals.root_rows) / streams,
                 "count");
    result_->Set("exec.merge_ms", totals.merge_ms / streams, "ms");
    result_->Set("exec.rows_gathered", double(totals.rows_gathered) / streams,
                 "count");
    if (mpp_) {
      result_->Set("mpp.dispatch_wait_ms", Median(totals.dispatch_wait_ms),
                   "ms");
      result_->Set("mpp.task_skew", Median(totals.task_skew), "ratio");
      result_->Set("mpp.parallel_efficiency",
                   totals.fragment_busy_ms /
                       (kTasks * std::max(totals.parallel_wall_ms, 1e-9)),
                   "ratio");
    }
    result_->Set("runtime_filter.scan_rows_tested",
                 double(rf.scan_rows_tested) / all_streams, "count");
    result_->Set("runtime_filter.scan_rows_dropped",
                 double(rf.scan_rows_dropped) / all_streams, "count");
    result_->Set("runtime_filter.join_probe_rows",
                 double(rf.join_probe_rows) / all_streams, "count");
    result_->Set("runtime_filter.pass_rate",
                 rf.scan_rows_tested == 0
                     ? 1.0
                     : 1.0 - double(rf.scan_rows_dropped) /
                                 double(rf.scan_rows_tested),
                 "ratio");
  }

  void Check(int q, const Result<std::vector<Row>>& rows) {
    ++result_->attempted;
    if (!rows.ok()) {
      ++result_->failed;
      result_->Fail(QueryName(q) + ": " + rows.status().ToString());
      return;
    }
    Fingerprint got = FingerprintOf(*rows);
    if (!Matches(got, expected_[size_t(q)])) {
      ++result_->failed;
      result_->Fail(QueryName(q) + " result differs from the row-store "
                    "oracle (" + std::to_string(got.rows) +
                    " vs " + std::to_string(expected_[size_t(q)].rows) +
                    " rows)");
    }
  }

  const Args& args_;
  const bool mpp_;
  RunResult* result_;
  ThreadPool pool_;
  std::unique_ptr<TpchDb> db_;
  std::vector<double> setup_s_;
  std::vector<Fingerprint> expected_;
  HostSpeed speed_;
  Tracer tracer_;
  uint64_t trace_ids_ = 0;
};

}  // namespace

RunResult RunTpch(const Args& args, bool mpp) {
  RunResult result;
  TpchBench bench(args, mpp, &result);
  bench.Run();
  return result;
}

}  // namespace polarx::perfbench
