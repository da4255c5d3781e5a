// Experiment E4 (Fig. 10): the impact of the MPP execution engine and the
// in-memory column index on TPC-H query latency.
//
// Four execution modes per query:
//   single     : one CN executes fragment + merge serially on the row store;
//   MPP        : RunQueryMpp with 4 tasks on a ThreadPool(4) (the 4 CN
//                servers of §VII-C as threads), row store: each task scans
//                its shard subset, the coordinator merges;
//   column     : single-node execution against the in-memory column index
//                (§VI-E) — vectorized scans/filters, column-native hash
//                joins, and bloom/min-max runtime-filter pushdown
//                (DESIGN.md §9);
//   MPP+column : RunQueryMpp as above with the column index: each task
//                scans its row-id slice of the partitioned table's index.
//
// Each mode is measured as the median of --reps timed runs after one
// untimed warmup. Runtime-filter counters (rows reaching join probes, rows
// pruned at scans) are captured per query in every mode, so the
// --runtime_filters on/off ablation can report how much the filters shrink
// the rows shuffled into join fragments. The counters are summed over all
// tasks of an MPP run and do not depend on thread timing.
//
// Reported: per-query latency for each mode and the improvement ratios
// ("MPP gain" = single/mpp - 1, "column gain" = single/column - 1,
// "MPP+col gain" = single/mpp_column - 1), matching the percentages
// Fig. 10 quotes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <vector>

#include "bench/bench_flags.h"
#include "src/exec/runtime_filter.h"
#include "src/workload/tpch.h"

namespace polarx::tpch {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now() - start)
             .count() /
         1000.0;
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

struct ModeResult {
  double ms = 0;
  RuntimeFilterStats stats;  // from the first timed rep
};

void ReportFailure(int q, const Result<std::vector<Row>>& rows) {
  if (!rows.ok()) {
    std::fprintf(stderr, "Q%d failed: %s\n", q,
                 rows.status().ToString().c_str());
  }
}

double TimeSingle(int q, const TpchDb& db, const ScanOptions& base) {
  auto start = Clock::now();
  ReportFailure(q, RunQuerySingleNode(q, db, db.load_ts(), base));
  return MsSince(start);
}

double TimeMpp(int q, const TpchDb& db, int tasks, ThreadPool* pool,
               const ScanOptions& base) {
  auto start = Clock::now();
  ReportFailure(q, RunQueryMpp(q, db, db.load_ts(), tasks, pool, base));
  return MsSince(start);
}

/// Warmup + median-of-reps wrapper; runtime-filter counters are read from
/// the first timed rep (they are identical across reps).
template <typename Fn>
ModeResult Measure(int reps, Fn run) {
  run();  // warmup: page in data, warm allocator + hash tables
  ModeResult r;
  std::vector<double> times;
  times.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    ResetRuntimeFilterStats();
    times.push_back(run());
    if (i == 0) r.stats = ReadRuntimeFilterStats();
  }
  r.ms = Median(std::move(times));
  return r;
}

}  // namespace
}  // namespace polarx::tpch

int main(int argc, char** argv) {
  using namespace polarx;
  using namespace polarx::tpch;
  BenchFlags flags = ParseBenchFlags(argc, argv);
  const int reps = flags.reps > 0 ? flags.reps : (flags.smoke ? 1 : 5);

  std::printf("E4 / Fig.10 — TPC-H: MPP engine and in-memory column index\n");
  std::printf(
      "paper: MPP improves 21 queries >100%% (Q9 best ~263%%; Q11 49%%, "
      "Q15 79%% lowest); column index: Q1 748%%, Q6 1828%%, Q8 243%%, "
      "Q12 556%%, Q14 547%%, Q15 463%%, Q21 348%%\n\n");

  TpchConfig cfg;
  cfg.scale = flags.smoke ? 0.005 : 0.02;  // ~30k orders / ~120k lineitems
  cfg.shards_per_table = 8;
  TpchDb db(cfg);
  db.Load();
  for (int t = 0; t < kNumTables; ++t) {
    db.BuildColumnIndex(static_cast<Table>(t));
  }
  std::printf(
      "data: %llu lineitem rows over %u shards per table; reps=%d "
      "runtime_filters=%s\n\n",
      static_cast<unsigned long long>(db.row_count(kLineItem)),
      cfg.shards_per_table, reps, flags.runtime_filters ? "on" : "off");

  constexpr int kMppTasks = 4;  // 4 CN servers, as in §VII-C
  ThreadPool pool(kMppTasks, "mpp");
  ScanOptions row_base, col_base;
  row_base.runtime_filters = flags.runtime_filters;
  col_base.use_column_index = true;
  col_base.runtime_filters = flags.runtime_filters;

  std::printf("%-5s %11s %11s %11s %11s %10s %10s %12s %11s\n", "query",
              "single(ms)", "mpp(ms)", "column(ms)", "mpp+col(ms)",
              "MPP gain", "col gain", "MPP+col gain", "probe rows");
  double sum_single = 0, sum_mpp = 0, sum_col = 0, sum_mpp_col = 0;
  uint64_t total_probe_single = 0, total_probe_col = 0,
           total_dropped_col = 0;
  std::ostringstream queries_json;
  for (int q = 1; q <= 22; ++q) {
    ModeResult single = Measure(
        reps, [&] { return TimeSingle(q, db, row_base); });
    ModeResult mpp = Measure(
        reps, [&] { return TimeMpp(q, db, kMppTasks, &pool, row_base); });
    ModeResult column = Measure(
        reps, [&] { return TimeSingle(q, db, col_base); });
    ModeResult mpp_col = Measure(
        reps, [&] { return TimeMpp(q, db, kMppTasks, &pool, col_base); });
    sum_single += single.ms;
    sum_mpp += mpp.ms;
    sum_col += column.ms;
    sum_mpp_col += mpp_col.ms;
    total_probe_single += single.stats.join_probe_rows;
    total_probe_col += column.stats.join_probe_rows;
    total_dropped_col += column.stats.scan_rows_dropped;
    std::printf(
        "Q%-4d %11.2f %11.2f %11.2f %11.2f %+9.0f%% %+9.0f%% %+11.0f%% "
        "%11llu\n",
        q, single.ms, mpp.ms, column.ms, mpp_col.ms,
        100.0 * (single.ms / mpp.ms - 1.0),
        100.0 * (single.ms / column.ms - 1.0),
        100.0 * (single.ms / mpp_col.ms - 1.0),
        static_cast<unsigned long long>(column.stats.join_probe_rows));
    queries_json << (q == 1 ? "" : ",\n    ")
                 << "{\"q\": " << q << ", \"single_ms\": " << single.ms
                 << ", \"mpp_ms\": " << mpp.ms
                 << ", \"column_ms\": " << column.ms
                 << ", \"mpp_column_ms\": " << mpp_col.ms
                 << ", \"mpp_gain\": " << (single.ms / mpp.ms - 1.0)
                 << ", \"column_gain\": " << (single.ms / column.ms - 1.0)
                 << ", \"mpp_column_gain\": "
                 << (single.ms / mpp_col.ms - 1.0)
                 << ", \"single_join_probe_rows\": "
                 << single.stats.join_probe_rows
                 << ", \"single_scan_rows_dropped\": "
                 << single.stats.scan_rows_dropped
                 << ", \"column_join_probe_rows\": "
                 << column.stats.join_probe_rows
                 << ", \"column_scan_rows_dropped\": "
                 << column.stats.scan_rows_dropped
                 << ", \"mpp_join_probe_rows\": " << mpp.stats.join_probe_rows
                 << ", \"mpp_scan_rows_dropped\": "
                 << mpp.stats.scan_rows_dropped
                 << ", \"mpp_column_join_probe_rows\": "
                 << mpp_col.stats.join_probe_rows
                 << ", \"mpp_column_scan_rows_dropped\": "
                 << mpp_col.stats.scan_rows_dropped << "}";
  }
  std::printf(
      "\ntotal %11.2f %11.2f %11.2f %11.2f %+9.0f%% %+9.0f%% %+11.0f%%\n",
      sum_single, sum_mpp, sum_col, sum_mpp_col,
      100.0 * (sum_single / sum_mpp - 1.0),
      100.0 * (sum_single / sum_col - 1.0),
      100.0 * (sum_single / sum_mpp_col - 1.0));
  std::printf(
      "join probe rows (all 22 queries): row-single=%llu column=%llu; "
      "rows pruned at column scans=%llu\n",
      static_cast<unsigned long long>(total_probe_single),
      static_cast<unsigned long long>(total_probe_col),
      static_cast<unsigned long long>(total_dropped_col));

  std::ostringstream json;
  json << "{\n  \"bench\": \"bench_mpp_colindex\",\n"
       << "  \"config\": {\"scale\": " << cfg.scale
       << ", \"shards_per_table\": " << cfg.shards_per_table
       << ", \"mpp_tasks\": " << kMppTasks << ", \"reps\": " << reps
       << ", \"runtime_filters\": "
       << (flags.runtime_filters ? "true" : "false")
       << ", \"smoke\": " << (flags.smoke ? "true" : "false") << "},\n"
       << "  \"queries\": [\n    " << queries_json.str() << "\n  ],\n"
       << "  \"totals\": {\"single_ms\": " << sum_single
       << ", \"mpp_ms\": " << sum_mpp << ", \"column_ms\": " << sum_col
       << ", \"mpp_column_ms\": " << sum_mpp_col
       << ", \"single_join_probe_rows\": " << total_probe_single
       << ", \"column_join_probe_rows\": " << total_probe_col
       << ", \"column_scan_rows_dropped\": " << total_dropped_col
       << "}\n}\n";
  WriteBenchJson(flags, json.str());
  return 0;
}
