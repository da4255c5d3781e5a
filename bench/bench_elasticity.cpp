// Experiment E2 (Fig. 8): scaling a PolarDB-MT cluster by tenant transfer
// (shared storage, no data copy) vs row copy, both through src/mt on the
// simulated clock. As in §VII-B, 64 tenants (one sysbench table of a few
// thousand real rows each, scaled to a 160M-row volume) serve 3000
// closed-loop clients while three scalings double the RWs 4 -> 8 -> 16 -> 32.
//
// Every transaction is routed by MtCluster::Route (a client that gets Busy
// parks until its tenant's move completes), bracketed by NoteWriteBegin/End
// on the owner RW, served by sim::Servers, and must still hold its tenant
// lease when it completes (else the bench exits 1). A scaling takes its plan
// from PlanRebalance over the binding table and runs each (src, dst) pair's
// moves in sequence, the pairs in parallel. A move pauses the tenant, waits
// on the sim clock until the source has no in-flight write (the measured
// drain), then calls TransferTenant, or CopyTenantBaseline after the tenant
// stayed live for its rows' copy time. Every other step time is a named
// per-unit cost below times a count the library returned.
// --smoke shrinks the run to a CI canary; --json=PATH writes the results.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "src/common/rng.h"
#include "src/gms/gms.h"
#include "src/mt/polardb_mt.h"
#include "src/sim/resource.h"
#include "src/sim/scheduler.h"
#include "src/workload/sysbench.h"

namespace polarx {
namespace {

using sim::kUsPerMs;
using sim::kUsPerSec;
using sim::SimTime;

constexpr TenantId kTenants = 64;
constexpr uint32_t kInitialRws = 4;
constexpr int kScalings = 3;

// Service times (8-core RWs; 8 CN servers x 16 cores as one pool).
constexpr SimTime kCnServiceUs = 250;  // 8 CNs x 16 cores cap ~512k tps
constexpr uint32_t kCnCores = 128;
constexpr SimTime kRwServiceUs = 400;
constexpr uint32_t kRwCores = 8;

// Per-unit costs of the move steps the sim clock does not run (§V): flush
// each dirty page the source reports (one synchronous 3-replica PolarFS page
// write), rebind each table in the binding table, open each table on the
// destination (files, metadata, warm-up), and, in the copy arm, dump + load
// each modeled row (40k rows/s per pair).
constexpr SimTime kFlushUsPerPage = 100;
constexpr SimTime kRebindUsPerTable = 30 * kUsPerMs;
constexpr SimTime kOpenUsPerTable = 200 * kUsPerMs;
constexpr double kCopyUsPerRow = 25;
// How often a paused tenant's source is checked for in-flight writes.
constexpr SimTime kDrainPollUs = 100;

struct Shape {
  int clients;
  int loaded_rows;      // real rows per tenant table
  double modeled_rows;  // the data volume all loaded rows stand for
  SimTime settle_us;    // throughput window before/after each scaling

  double rows_scale() const {
    return modeled_rows / (double(kTenants) * double(loaded_rows));
  }
};
constexpr Shape kFullShape{3000, 2000, 160e6, 5 * kUsPerSec};
constexpr Shape kSmokeShape{256, 200, 1.6e6, 1 * kUsPerSec};

// The steps of a tenant move, in order.
enum Step { kCopy, kDrain, kFlush, kRebind, kOpen, kNumSteps };
constexpr const char* kStepNames[kNumSteps] = {"copy", "drain", "flush",
                                               "rebind", "open"};

/// Step times of one or more tenant moves (sim clock, us) and the library
/// counts they were derived from.
struct MoveSteps {
  std::array<SimTime, kNumSteps> us{};
  uint64_t pages_flushed = 0;
  uint64_t tables_moved = 0;
  uint64_t rows_copied = 0;

  void Add(const MoveSteps& o) {
    for (int i = 0; i < kNumSteps; ++i) us[i] += o.us[i];
    pages_flushed += o.pages_flushed;
    tables_moved += o.tables_moved;
    rows_copied += o.rows_copied;
  }
};

/// The moves from one source RW to one destination RW, run in sequence.
struct PairRun {
  uint32_t src = 0;
  uint32_t dst = 0;
  std::deque<TenantId> queue;
  MoveSteps steps;
};

struct ScalingResult {
  size_t rws_before = 0;
  size_t rws_after = 0;
  SimTime elapsed_us = 0;
  double tps_before = 0;
  double tps_after = 0;
  MoveSteps steps;  // summed over every move
  std::map<std::pair<uint32_t, uint32_t>, PairRun> pairs;
};

struct ArmResult {
  const char* name = "";
  uint64_t lease_violations = 0;
  std::vector<ScalingResult> scalings;
};

void Check(const Status& s, const char* what) {
  if (s.ok()) return;
  std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
  std::exit(1);
}

class E2Sim {
 public:
  E2Sim(bool copy_arm, const Shape& shape)
      : copy_arm_(copy_arm),
        shape_(shape),
        cluster_([this] { return 1 + sched_.Now() / kUsPerMs; }),
        cn_pool_(&sched_, kCnCores) {}

  /// Loads the tenants, starts the background load and runs the scalings.
  ArmResult Run() {
    ArmResult res;
    res.name = copy_arm_ ? "copy" : "mt";
    Load();
    for (int c = 0; c < shape_.clients; ++c) Submit();
    double tps = Measure();
    for (int i = 0; i < kScalings; ++i) {
      ScalingResult r = Scale();
      r.tps_before = tps;
      r.tps_after = tps = Measure();
      res.scalings.push_back(std::move(r));
    }
    res.lease_violations = lease_violations_;
    return res;
  }

 private:
  void AddRw() {
    cluster_.AddRwNode();
    rw_servers_.push_back(std::make_unique<sim::Server>(&sched_, kRwCores));
  }

  void Load() {
    for (uint32_t i = 0; i < kInitialRws; ++i) AddRw();
    for (TenantId t = 0; t < kTenants; ++t) {
      Check(cluster_.CreateTenant(t, t % kInitialRws), "CreateTenant");
      auto table = cluster_.CreateTable(t, "sbtest" + std::to_string(t),
                                        Sysbench::TableSchema());
      Check(table.status(), "CreateTable");
      TxnEngine* engine = cluster_.rw(t % kInitialRws)->engine();
      TxnId txn = engine->Begin();
      for (int64_t id = 1; id <= shape_.loaded_rows; ++id) {
        Check(engine->Insert(txn, (*table)->id(), Sysbench::MakeRow(id, &rng_)),
              "Insert");
      }
      Check(engine->CommitLocal(txn).status(), "CommitLocal");
    }
  }

  /// A closed-loop client's next transaction, on a uniformly drawn tenant.
  void Submit() { RunTxn(TenantId(rng_.Uniform(kTenants))); }

  void RunTxn(TenantId tenant) {
    auto routed = cluster_.Route(tenant);
    if (routed.status().IsBusy()) {
      ++parked_[tenant];  // §V: the CN holds the transaction during the move
      return;
    }
    Check(routed.status(), "Route");
    (*routed)->NoteWriteBegin(tenant);
    // (RW id, tenant) in 8 bytes keeps each continuation within
    // std::function's inline storage: no allocation per transaction.
    struct Txn {
      uint32_t rw;
      TenantId tenant;
    } txn{(*routed)->id(), tenant};
    cn_pool_.Execute(kCnServiceUs, [this, txn] {
      rw_servers_[txn.rw]->Execute(kRwServiceUs, [this, txn] {
        MtRwNode* rw = cluster_.rw(txn.rw);
        if (!rw->RenewTenantLease(txn.tenant, *cluster_.bindings()).ok()) {
          ++lease_violations_;
        }
        rw->NoteWriteEnd(txn.tenant);
        ++completed_;
        Submit();
      });
    });
  }

  double Measure() {
    uint64_t before = completed_;
    sched_.RunUntil(sched_.Now() + shape_.settle_us);
    return double(completed_ - before) * double(kUsPerSec) /
           double(shape_.settle_us);
  }

  /// Doubles the RW count and moves tenants per GMS's plan: one sequence of
  /// moves per (src, dst) pair, the pairs in parallel.
  ScalingResult Scale() {
    ScalingResult r;
    r.rws_before = cluster_.num_rws();
    for (size_t i = 0; i < r.rws_before; ++i) AddRw();
    r.rws_after = cluster_.num_rws();
    std::vector<uint32_t> nodes(r.rws_after);
    std::iota(nodes.begin(), nodes.end(), 0u);
    for (const MigrationStep& step :
         PlanRebalance(cluster_.bindings()->Placement(), nodes)) {
      PairRun& pair = r.pairs[{step.src_dn, step.dst_dn}];
      pair.src = step.src_dn;
      pair.dst = step.dst_dn;
      pair.queue.push_back(step.tenant);
    }
    SimTime start = sched_.Now();
    pairs_running_ = r.pairs.size();
    for (auto& [key, pair] : r.pairs) MoveNext(&pair);
    while (pairs_running_ > 0 && sched_.Step()) {
    }
    r.elapsed_us = sched_.Now() - start;
    for (const auto& [key, pair] : r.pairs) r.steps.Add(pair.steps);
    return r;
  }

  /// Starts the pair's next move; each move starts the one after it when
  /// its tenant serves on the destination again.
  void MoveNext(PairRun* pair) {
    if (pair->queue.empty()) {
      --pairs_running_;
      return;
    }
    TenantId tenant = pair->queue.front();
    pair->queue.pop_front();
    auto steps = std::make_shared<MoveSteps>();
    if (copy_arm_) {
      // The tenant stays live on the source while its rows are copied.
      for (TableStore* table :
           cluster_.rw(pair->src)->catalog()->TablesOfTenant(tenant)) {
        steps->rows_copied += table->ApproxRows();
      }
      steps->us[kCopy] = SimTime(double(steps->rows_copied) *
                                 shape_.rows_scale() * kCopyUsPerRow);
    }
    sched_.ScheduleAfter(steps->us[kCopy], [=, this] {
      cluster_.bindings()->SetMigrating(tenant, true);
      SimTime paused_at = sched_.Now();
      WhenDrained(cluster_.rw(pair->src), tenant, [=, this] {
        steps->us[kDrain] = sched_.Now() - paused_at;
        Cutover(tenant, pair->dst, steps.get());
        SimTime rest =
            steps->us[kFlush] + steps->us[kRebind] + steps->us[kOpen];
        sched_.ScheduleAfter(rest, [=, this] {
          cluster_.bindings()->SetMigrating(tenant, false);
          int waiting = parked_[tenant];
          parked_.erase(tenant);
          for (int i = 0; i < waiting; ++i) RunTxn(tenant);
          pair->steps.Add(*steps);
          MoveNext(pair);
        });
      });
    });
  }

  void WhenDrained(MtRwNode* src, TenantId tenant, std::function<void()> fn) {
    if (src->InflightWrites(tenant) == 0) return fn();
    sched_.ScheduleAfter(kDrainPollUs,
                         [=, this] { WhenDrained(src, tenant, fn); });
  }

  /// The library call of the move, with the tenant paused and drained.
  void Cutover(TenantId tenant, uint32_t dst, MoveSteps* steps) {
    auto moved = copy_arm_ ? cluster_.CopyTenantBaseline(tenant, dst)
                           : cluster_.TransferTenant(tenant, dst);
    Check(moved.status(), "tenant move");
    if (moved->rows_copied != steps->rows_copied) {
      Check(Status::Internal("rows copied differ from the tenant's rows"),
            "CopyTenantBaseline");
    }
    steps->pages_flushed = moved->pages_flushed;
    steps->tables_moved = moved->tables_moved;
    steps->us[kFlush] = moved->pages_flushed * kFlushUsPerPage;
    steps->us[kRebind] = moved->tables_moved * kRebindUsPerTable;
    steps->us[kOpen] = moved->tables_moved * kOpenUsPerTable;
  }

  bool copy_arm_;
  Shape shape_;
  sim::Scheduler sched_;
  MtCluster cluster_;
  sim::Server cn_pool_;
  std::vector<std::unique_ptr<sim::Server>> rw_servers_;  // by RW id
  std::map<TenantId, int> parked_;  // clients held while their tenant moves
  size_t pairs_running_ = 0;
  uint64_t completed_ = 0;
  uint64_t lease_violations_ = 0;
  Rng rng_{20220507};
};

double Ms(SimTime us) { return double(us) / double(kUsPerMs); }
double Secs(SimTime us) { return double(us) / double(kUsPerSec); }

void JsonSteps(std::ostringstream& json, const MoveSteps& s) {
  for (int i = 0; i < kNumSteps; ++i) {
    json << "\"" << kStepNames[i] << "_ms\": " << Ms(s.us[i]) << ", ";
  }
  json << "\"pages_flushed\": " << s.pages_flushed
       << ", \"tables_moved\": " << s.tables_moved
       << ", \"rows_copied\": " << s.rows_copied;
}

std::string ToJson(const BenchFlags& flags, const Shape& shape,
                   const std::vector<ArmResult>& arms) {
  std::ostringstream json;
  json.setf(std::ios::fixed);
  json.precision(3);
  json << "{\n  \"bench\": \"elasticity\",\n  \"mode\": \""
       << (flags.smoke ? "smoke" : "full")
       << "\",\n  \"setup\": {\"tenants\": " << kTenants
       << ", \"clients\": " << shape.clients
       << ", \"loaded_rows_per_tenant\": " << shape.loaded_rows
       << ", \"modeled_rows\": " << shape.modeled_rows
       << ", \"settle_s\": " << Secs(shape.settle_us)
       << ", \"flush_us_per_page\": " << kFlushUsPerPage
       << ", \"rebind_ms_per_table\": " << Ms(kRebindUsPerTable)
       << ", \"open_ms_per_table\": " << Ms(kOpenUsPerTable)
       << ", \"copy_us_per_row\": " << kCopyUsPerRow << "},\n  \"arms\": [";
  for (const ArmResult& arm : arms) {
    json << (&arm == &arms[0] ? "" : ",") << "\n    {\"arm\": \"" << arm.name
         << "\", \"lease_violations\": " << arm.lease_violations
         << ", \"scalings\": [";
    for (const ScalingResult& r : arm.scalings) {
      json << (&r == &arm.scalings[0] ? "" : ",")
           << "\n      {\"rws_before\": " << r.rws_before
           << ", \"rws_after\": " << r.rws_after
           << ", \"scaling_s\": " << Secs(r.elapsed_us)
           << ", \"tps_before\": " << r.tps_before
           << ", \"tps_after\": " << r.tps_after << ", ";
      JsonSteps(json, r.steps);
      json << ",\n       \"pairs\": [";
      const char* sep = "";
      for (const auto& [key, pair] : r.pairs) {
        json << sep << "{\"src\": " << pair.src << ", \"dst\": " << pair.dst
             << ", ";
        JsonSteps(json, pair.steps);
        json << "}";
        sep = ",\n                 ";
      }
      json << "]}";
    }
    json << "]}";
  }
  json << "\n  ]\n}\n";
  return json.str();
}

}  // namespace
}  // namespace polarx

int main(int argc, char** argv) {
  using namespace polarx;
  BenchFlags flags = ParseBenchFlags(argc, argv);
  const Shape& shape = flags.smoke ? kSmokeShape : kFullShape;
  std::printf(
      "E2 / Fig.8 — Elasticity: %u tenants x %d loaded rows standing for "
      "%.0f rows, %d background sysbench clients\n",
      kTenants, shape.loaded_rows, shape.modeled_rows, shape.clients);
  std::printf("paper: MT scalings complete in 4.2/4.5/4.6 s; data transfer "
              "takes 489/527/660 s (116-143x longer)\n");
  std::vector<ArmResult> arms = {E2Sim(false, shape).Run(),
                                 E2Sim(true, shape).Run()};
  for (const ArmResult& arm : arms) {
    for (const ScalingResult& r : arm.scalings) {
      std::printf("%-4s %2zu -> %-2zu RWs: %7.2f s, tps %6.0f -> %6.0f\n",
                  arm.name, r.rws_before, r.rws_after, Secs(r.elapsed_us),
                  r.tps_before, r.tps_after);
    }
  }
  WriteBenchJson(flags, ToJson(flags, shape, arms));
  for (const ArmResult& arm : arms) {
    if (arm.lease_violations == 0) continue;
    std::fprintf(stderr,
                 "%s: %llu transactions completed without their tenant lease\n",
                 arm.name,
                 static_cast<unsigned long long>(arm.lease_violations));
    return 1;
  }
  return 0;
}
