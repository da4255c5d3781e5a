// Tests for the executor: expressions, operators, MPP parallel fragments,
// and the time-slicing scheduler with TP/AP isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>

#include "src/clock/hlc.h"
#include "src/exec/expr.h"
#include "src/exec/join_table.h"
#include "src/exec/key_word_table.h"
#include "src/exec/mpp.h"
#include "src/exec/operator.h"
#include "src/exec/scheduler.h"
#include "src/optimizer/cost.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/key_codec.h"
#include "src/txn/engine.h"

namespace polarx {
namespace {

// ---------- expressions ----------

TEST(ExprTest, ArithmeticAndComparison) {
  Row row{int64_t{10}, 2.5, std::string("hello")};
  auto plus = Expr::Arith(ArithOp::kAdd, Expr::Col(0), Expr::Lit(int64_t{5}));
  EXPECT_EQ(std::get<int64_t>(plus->Eval(row)), 15);
  auto mul = Expr::Arith(ArithOp::kMul, Expr::Col(0), Expr::Col(1));
  EXPECT_DOUBLE_EQ(std::get<double>(mul->Eval(row)), 25.0);
  auto cmp = Expr::ColCmp(CmpOp::kGt, 0, int64_t{9});
  EXPECT_TRUE(cmp->EvalBool(row));
  auto div0 = Expr::Arith(ArithOp::kDiv, Expr::Col(0), Expr::Lit(int64_t{0}));
  EXPECT_DOUBLE_EQ(std::get<double>(div0->Eval(row)), 0.0);
}

TEST(ExprTest, LogicShortForms) {
  Row row{int64_t{10}};
  auto t = Expr::ColCmp(CmpOp::kEq, 0, int64_t{10});
  auto f = Expr::ColCmp(CmpOp::kEq, 0, int64_t{11});
  EXPECT_TRUE(Expr::And(t, t)->EvalBool(row));
  EXPECT_FALSE(Expr::And(t, f)->EvalBool(row));
  EXPECT_TRUE(Expr::Or(f, t)->EvalBool(row));
  EXPECT_TRUE(Expr::Not(f)->EvalBool(row));
}

TEST(ExprTest, StringPredicates) {
  Row row{std::string("PROMO BRUSHED STEEL")};
  EXPECT_TRUE(Expr::StartsWith(Expr::Col(0), "PROMO")->EvalBool(row));
  EXPECT_FALSE(Expr::StartsWith(Expr::Col(0), "STEEL")->EvalBool(row));
  EXPECT_TRUE(Expr::Contains(Expr::Col(0), "BRUSHED")->EvalBool(row));
  EXPECT_FALSE(Expr::Contains(Expr::Col(0), "green")->EvalBool(row));
}

TEST(ExprTest, CaseInBetweenNull) {
  Row row{int64_t{5}, Value{}};
  auto caze = Expr::Case(Expr::ColCmp(CmpOp::kLt, 0, int64_t{10}),
                         Expr::Lit(int64_t{1}), Expr::Lit(int64_t{0}));
  EXPECT_EQ(std::get<int64_t>(caze->Eval(row)), 1);
  EXPECT_TRUE(Expr::Between(0, int64_t{1}, int64_t{5})->EvalBool(row));
  EXPECT_FALSE(Expr::Between(0, int64_t{6}, int64_t{9})->EvalBool(row));
  EXPECT_TRUE(Expr::IsNull(Expr::Col(1))->EvalBool(row));
  EXPECT_TRUE(
      Expr::In(Expr::Col(0), {Value{int64_t{3}}, Value{int64_t{5}}})
          ->EvalBool(row));
  // NULL comparisons are not true.
  EXPECT_FALSE(Expr::ColCmp(CmpOp::kEq, 1, int64_t{0})->EvalBool(row));
}

TEST(ExprTest, DaysEncodesDatesInOrder) {
  EXPECT_EQ(Days(1970, 1, 1), 0);
  EXPECT_EQ(Days(1970, 1, 2), 1);
  EXPECT_LT(Days(1994, 12, 31), Days(1995, 1, 1));
  EXPECT_EQ(Days(1995, 1, 1) - Days(1994, 1, 1), 365);
  EXPECT_EQ(Days(1996, 12, 31) - Days(1996, 1, 1), 365);  // leap year
}

// ---------- operators ----------

/// Builds a committed table of n rows: {id, id % 10, "name<i>"}.
struct ExecFixture {
  uint64_t now_ms = 1000;
  TableCatalog catalog;
  Hlc hlc;
  RedoLog log;
  CountingPageStore store;
  BufferPool pool;
  TxnEngine engine;
  TableStore* table = nullptr;
  Timestamp snapshot = 0;

  explicit ExecFixture(int n = 100)
      : hlc([this] { return now_ms; }),
        pool(&store),
        engine(1, &catalog, &hlc, &log, &pool) {
    Schema schema({{"id", ValueType::kInt64, false},
                   {"grp", ValueType::kInt64, false},
                   {"name", ValueType::kString, true}},
                  {0});
    table = *catalog.CreateTable(1, "t", schema, 0);
    TxnId txn = engine.Begin();
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_TRUE(engine
                      .Insert(txn, 1,
                              {i, i % 10, "name" + std::to_string(i)})
                      .ok());
    }
    EXPECT_TRUE(engine.CommitLocal(txn).ok());
    now_ms += 1;
    snapshot = hlc.Now();
  }
};

TEST(OperatorTest, TableScanProducesAllVisibleRows) {
  ExecFixture f(2500);  // multiple batches
  TableScanOp scan({f.table}, f.snapshot);
  auto rows = Collect(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2500u);
}

TEST(OperatorTest, TableScanPushedFilterAndProjection) {
  ExecFixture f(100);
  TableScanOp scan({f.table}, f.snapshot,
                   Expr::ColCmp(CmpOp::kLt, 0, int64_t{10}), {2, 0});
  auto rows = Collect(&scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 10u);
  EXPECT_EQ((*rows)[0].size(), 2u);
  EXPECT_TRUE(std::holds_alternative<std::string>((*rows)[0][0]));
}

TEST(OperatorTest, TableScanSnapshotExcludesLaterWrites) {
  ExecFixture f(10);
  // Write more rows after the snapshot.
  f.now_ms += 1;
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(
      f.engine.Insert(txn, 1, {int64_t{1000}, int64_t{0}, std::string("x")})
          .ok());
  ASSERT_TRUE(f.engine.CommitLocal(txn).ok());
  TableScanOp scan({f.table}, f.snapshot);
  auto rows = Collect(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
}

TEST(OperatorTest, MultiShardScanConcatenates) {
  ExecFixture f1(30);
  ExecFixture f2(20);
  TableScanOp scan({f1.table, f2.table},
                   std::max(f1.snapshot, f2.snapshot));
  auto rows = Collect(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 50u);
}

TEST(OperatorTest, FilterProjectPipeline) {
  ExecFixture f(100);
  auto plan = std::make_unique<ProjectOp>(
      std::make_unique<FilterOp>(
          std::make_unique<TableScanOp>(std::vector<TableStore*>{f.table},
                                        f.snapshot),
          Expr::ColCmp(CmpOp::kEq, 1, int64_t{3})),
      std::vector<ExprPtr>{
          Expr::Col(0),
          Expr::Arith(ArithOp::kMul, Expr::Col(0), Expr::Lit(int64_t{2}))});
  auto rows = Collect(plan.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
  for (const auto& r : *rows) {
    EXPECT_EQ(std::get<int64_t>(r[1]), 2 * std::get<int64_t>(r[0]));
  }
}

TEST(OperatorTest, HashJoinInner) {
  auto probe = std::make_unique<ValuesOp>(std::vector<Row>{
      {int64_t{1}, std::string("a")},
      {int64_t{2}, std::string("b")},
      {int64_t{2}, std::string("b2")},
      {int64_t{9}, std::string("z")}});
  auto build = std::make_unique<ValuesOp>(std::vector<Row>{
      {int64_t{1}, std::string("x")}, {int64_t{2}, std::string("y")}});
  HashJoinOp join(std::move(probe), std::move(build), {0}, {0});
  auto rows = Collect(&join);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // key 9 unmatched
  for (const auto& r : *rows) {
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(std::get<int64_t>(r[0]), std::get<int64_t>(r[2]));
  }
}

TEST(OperatorTest, HashJoinSemiAnti) {
  auto make_probe = [] {
    return std::make_unique<ValuesOp>(std::vector<Row>{
        {int64_t{1}}, {int64_t{2}}, {int64_t{3}}});
  };
  auto make_build = [] {
    return std::make_unique<ValuesOp>(
        std::vector<Row>{{int64_t{2}}, {int64_t{2}}});
  };
  HashJoinOp semi(make_probe(), make_build(), {0}, {0}, JoinType::kLeftSemi);
  auto semi_rows = Collect(&semi);
  ASSERT_TRUE(semi_rows.ok());
  ASSERT_EQ(semi_rows->size(), 1u);
  EXPECT_EQ(std::get<int64_t>((*semi_rows)[0][0]), 2);

  HashJoinOp anti(make_probe(), make_build(), {0}, {0}, JoinType::kLeftAnti);
  auto anti_rows = Collect(&anti);
  ASSERT_TRUE(anti_rows.ok());
  EXPECT_EQ(anti_rows->size(), 2u);
}

/// Row multiset in a canonical form: each row memcomparable-encoded, sorted.
std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    EncodedKey key;
    for (const Value& v : row) EncodeValue(v, &key);
    out.push_back(std::move(key));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Nested-loop reference join. Keys match when their memcomparable
/// encodings match: type-strict, NULL equal to NULL, doubles bit-exact.
std::vector<Row> NestedLoopJoin(const std::vector<Row>& probe,
                                const std::vector<Row>& build,
                                const std::vector<int>& pk,
                                const std::vector<int>& bk, JoinType type,
                                size_t build_width) {
  auto key_of = [](const Row& row, const std::vector<int>& cols) {
    EncodedKey key;
    for (int c : cols) EncodeValue(row[c], &key);
    return key;
  };
  std::vector<Row> out;
  for (const Row& p : probe) {
    bool matched = false;
    for (const Row& b : build) {
      if (key_of(p, pk) != key_of(b, bk)) continue;
      matched = true;
      if (type == JoinType::kInner || type == JoinType::kLeftOuter) {
        Row joined = p;
        joined.insert(joined.end(), b.begin(), b.end());
        out.push_back(std::move(joined));
      }
    }
    if ((type == JoinType::kLeftSemi && matched) ||
        (type == JoinType::kLeftAnti && !matched)) {
      out.push_back(p);
    }
    if (type == JoinType::kLeftOuter && !matched) {
      Row padded = p;
      padded.resize(p.size() + build_width);
      out.push_back(std::move(padded));
    }
  }
  return out;
}

// HashJoinOp (a KeyWordTable over the build keys) must produce exactly the
// nested-loop join under the encoded-key semantics for every join type,
// over keys mixing int64, double, string and NULL cells — including the
// near-misses 5 vs 5.0 and -0.0 vs 0.0, which must not match, and strings
// of 8 bytes or more, which the table keeps in a dictionary; one of those
// appears only on the probe side, so a probe cannot find it there.
TEST(OperatorTest, HashJoinMatchesNestedLoopOracle) {
  const std::vector<Value> pool = {
      Value{},           int64_t{5},        5.0,
      0.0,               -0.0,              int64_t{0},
      int64_t{-1},       2.5,               std::string("5"),
      std::string(""),   std::string("a"),  int64_t{7},
      std::string("eight888"),              std::string("a long join key")};
  std::vector<Value> probe_pool = pool;
  probe_pool.push_back(std::string("only the probe side has this key"));
  std::mt19937_64 rng(20221);
  auto random_rows = [&](const std::vector<Value>& from, size_t n,
                         int64_t tag) {
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back({from[rng() % from.size()], from[rng() % from.size()],
                      tag * 1000 + int64_t(i)});
    }
    return rows;
  };
  // One hash serves the join table, bloom filters and Exchange buckets.
  KeyWordTable table(2);
  std::vector<uint64_t> key(table.width());
  for (const Value& a : probe_pool) {
    for (const Value& b : probe_pool) {
      const Row row = {a, b};
      EXPECT_EQ(table.Encode(row, {0, 1}, key.data()), RowKeyHash(row, {0, 1}))
          << ValueToString(a) << ", " << ValueToString(b);
    }
  }
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> keys = {
      {{0}, {0}}, {{0, 1}, {0, 1}}, {{1, 0}, {0, 1}}, {{}, {}}};
  for (int round = 0; round < 8; ++round) {
    std::vector<Row> probe = random_rows(probe_pool, 60, 1);
    std::vector<Row> build = random_rows(pool, round == 0 ? 0 : 40, 2);
    for (const auto& [pk, bk] : keys) {
      for (JoinType type : {JoinType::kInner, JoinType::kLeftSemi,
                            JoinType::kLeftAnti, JoinType::kLeftOuter}) {
        HashJoinOp join(std::make_unique<ValuesOp>(probe),
                        std::make_unique<ValuesOp>(build), pk, bk, type,
                        /*build_width=*/3);
        auto got = Collect(&join);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(Canonical(*got),
                  Canonical(NestedLoopJoin(probe, build, pk, bk, type, 3)))
            << "round " << round << " keys " << pk.size() << " type "
            << int(type);
      }
    }
  }
  // The near-misses on their own: an int64 never equals a double, and the
  // two zeros stay distinct, as their encodings do.
  std::vector<Row> probe = {{int64_t{5}}, {-0.0}, {Value{}}};
  std::vector<Row> build = {{5.0}, {0.0}, {Value{}}};
  HashJoinOp join(std::make_unique<ValuesOp>(probe),
                  std::make_unique<ValuesOp>(build), {0}, {0});
  auto got = Collect(&join);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 1u) << "only NULL = NULL matches";
  EXPECT_TRUE(IsNull((*got)[0][0]));
}

/// ValuesOp that counts its Open() calls and can fail its first Next().
class CountingValuesOp : public ValuesOp {
 public:
  CountingValuesOp(std::vector<Row> rows, std::atomic<int>* opens,
                   Status fail = Status::Ok())
      : ValuesOp(std::move(rows)), opens_(opens), fail_(std::move(fail)) {}
  Status Open() override {
    opens_->fetch_add(1);
    return ValuesOp::Open();
  }
  Status Next(Batch* out) override {
    if (!fail_.ok()) return fail_;
    return ValuesOp::Next(out);
  }

 private:
  std::atomic<int>* opens_;
  Status fail_;
};

/// The build side of the shared-table tests in `kSlices` contiguous
/// slices: slice s of `rows` counts its opens in `opens[s]` and fails its
/// first Next() with `fail` when s == `failing`.
template <size_t kSlices>
BuildSliceFactory CountedSlices(const std::vector<Row>& rows,
                                std::array<std::atomic<int>, kSlices>* opens,
                                int failing = -1,
                                Status fail = Status::Ok()) {
  return [&rows, opens, failing, fail](int s) -> OperatorPtr {
    const size_t n = rows.size();
    std::vector<Row> slice(rows.begin() + n * s / kSlices,
                           rows.begin() + n * (s + 1) / kSlices);
    return std::make_unique<CountingValuesOp>(
        std::move(slice), &(*opens)[s], s == failing ? fail : Status::Ok());
  };
}

// Seven joins sharing one JoinHashTable on a four-thread pool, the shape
// of a broadcast join site in a 7-task MPP plan: each of the seven build
// slices is opened by exactly one join, every join publishes the same
// runtime filter into its own slot, and each join's output equals a
// private-build join's. The keys are int64s, then strings of 8 bytes or
// more, two thirds of which the build lacks: probes look those up in the
// shared dictionary concurrently and must neither find nor add them.
TEST(OperatorTest, SharedJoinTableBuildsOnceForAllTasks) {
  constexpr int kTasks = 7;
  const std::vector<std::function<Value(int64_t)>> key_kinds = {
      [](int64_t k) { return Value{k}; },
      [](int64_t k) { return Value{"long join key " + std::to_string(k)}; }};
  for (const auto& key_of : key_kinds) {
    std::vector<Row> build;
    for (int64_t k = 0; k < 500; k += 3) build.push_back({key_of(k), k * 10});
    auto probe_of = [&](int task) {
      std::vector<Row> rows;
      for (int64_t k = task; k < 600; k += kTasks) rows.push_back({key_of(k)});
      return rows;
    };
    for (JoinType type : {JoinType::kInner, JoinType::kLeftSemi,
                          JoinType::kLeftAnti, JoinType::kLeftOuter}) {
      auto shared = std::make_shared<JoinHashTable>();
      std::array<std::atomic<int>, kTasks> opens{};
      const BuildSliceFactory slices = CountedSlices(build, &opens);
      std::vector<std::shared_ptr<RuntimeFilterSlot>> slots(kTasks);
      std::vector<Result<std::vector<Row>>> got(kTasks, std::vector<Row>{});
      ThreadPool pool(4);
      for (int t = 0; t < kTasks; ++t) {
        pool.Submit([&, t] {
          slots[t] = std::make_shared<RuntimeFilterSlot>();
          slots[t]->key_cols = {0};
          HashJoinOp join(std::make_unique<ValuesOp>(probe_of(t)),
                          JoinBuild(shared, kTasks, slices), {0}, {0}, type,
                          /*build_width=*/2);
          join.SetRuntimeFilterSource(slots[t], build.size());
          got[t] = Collect(&join);
        });
      }
      pool.Wait();
      for (int s = 0; s < kTasks; ++s) {
        EXPECT_EQ(opens[s].load(), 1) << "slice " << s << " type " << int(type);
      }
      const bool filtered =
          type == JoinType::kInner || type == JoinType::kLeftSemi;
      EXPECT_EQ(shared->filter() != nullptr, filtered);
      for (int t = 0; t < kTasks; ++t) {
        ASSERT_TRUE(got[t].ok()) << got[t].status().ToString();
        EXPECT_EQ(slots[t]->filter, filtered ? shared->filter() : nullptr);
        HashJoinOp private_join(std::make_unique<ValuesOp>(probe_of(t)),
                                std::make_unique<ValuesOp>(build), {0}, {0},
                                type, 2);
        auto want = Collect(&private_join);
        ASSERT_TRUE(want.ok());
        EXPECT_EQ(Canonical(*got[t]), Canonical(*want))
            << "task " << t << " type " << int(type);
      }
    }
  }
}

// A table built cooperatively from seven slices by seven callers on four
// threads equals the table one caller builds from the whole build side in
// one slice: the same rows in the same order, each key's matches in build
// order, and a bit-identical runtime filter. Keys repeat within and across
// slices, and long strings go through the table's dictionary.
TEST(OperatorTest, SlicedJoinTableEqualsOneSliceBuild) {
  constexpr int kTasks = 7;
  std::vector<Row> build;
  for (int64_t i = 0; i < 3000; ++i) {
    build.push_back({i % 211, "a long build key " + std::to_string(i % 97), i});
  }
  for (const std::vector<int>& keys :
       std::vector<std::vector<int>>{{0}, {1}, {0, 1}}) {
    JoinHashTable sliced, whole;
    std::array<std::atomic<int>, kTasks> opens{};
    const BuildSliceFactory slices = CountedSlices(build, &opens);
    std::vector<Status> got(kTasks);
    ThreadPool pool(4);
    for (int t = 0; t < kTasks; ++t) {
      pool.Submit([&, t] {
        got[t] = sliced.Build(kTasks, slices, keys, /*with_filter=*/true);
      });
    }
    pool.Wait();
    for (int t = 0; t < kTasks; ++t) {
      ASSERT_TRUE(got[t].ok()) << got[t].ToString();
      EXPECT_EQ(opens[t].load(), 1) << "slice " << t;
    }
    ASSERT_TRUE(whole
                    .Build(1, [&](int) -> OperatorPtr {
                      return std::make_unique<ValuesOp>(build);
                    }, keys, /*with_filter=*/true)
                    .ok());

    ASSERT_EQ(sliced.size(), whole.size());
    for (uint32_t i = 0; i < whole.size(); ++i) {
      ASSERT_EQ(sliced.row(i), whole.row(i)) << "row " << i;
    }
    std::vector<uint64_t> key(whole.keys().width());
    for (const Row& probe : build) {
      const uint64_t hash =
          whole.keys().EncodeProbe(probe, keys, key.data());
      std::vector<uint32_t> want;
      for (uint32_t i = whole.First(key.data(), hash);
           i != JoinHashTable::kNoRow; i = whole.Next(i)) {
        want.push_back(i);
      }
      sliced.keys().EncodeProbe(probe, keys, key.data());
      std::vector<uint32_t> matches;
      for (uint32_t i = sliced.First(key.data(), hash);
           i != JoinHashTable::kNoRow; i = sliced.Next(i)) {
        matches.push_back(i);
      }
      ASSERT_FALSE(want.empty());
      ASSERT_EQ(matches, want) << "key of row " << ValueToString(probe[2]);
    }
    const RuntimeFilter& a = *sliced.filter();
    const RuntimeFilter& b = *whole.filter();
    EXPECT_TRUE(a.bloom == b.bloom);
    EXPECT_EQ(a.has_bounds, b.has_bounds);
    EXPECT_EQ(a.min_key, b.min_key);
    EXPECT_EQ(a.max_key, b.max_key);
    EXPECT_EQ(a.num_build_keys, b.num_build_keys);
  }
}

// A failed slice fails the build for everyone: each slice is still opened
// exactly once, no task hangs, and every task sharing the table gets the
// failing slice's Status, including the ones that did not drain it.
TEST(OperatorTest, SharedJoinTableFailureReachesEveryTask) {
  constexpr int kTasks = 7;
  auto shared = std::make_shared<JoinHashTable>();
  std::array<std::atomic<int>, kTasks> opens{};
  std::vector<Row> build;
  for (int64_t k = 0; k < 70; ++k) build.push_back({k});
  const BuildSliceFactory slices = CountedSlices(
      build, &opens, /*failing=*/3, Status::Busy("build side failed"));
  std::vector<Status> got(kTasks);
  ThreadPool pool(4);
  for (int t = 0; t < kTasks; ++t) {
    pool.Submit([&, t] {
      std::vector<Row> one = {{int64_t{1}}};
      HashJoinOp join(std::make_unique<ValuesOp>(one),
                      JoinBuild(shared, kTasks, slices), {0}, {0});
      got[t] = Collect(&join).status();
    });
  }
  pool.Wait();
  for (int s = 0; s < kTasks; ++s) EXPECT_EQ(opens[s].load(), 1) << s;
  for (const Status& s : got) {
    EXPECT_EQ(s.code(), StatusCode::kBusy) << s.ToString();
  }
}

// The first caller of a table's Build() fixes its slices, keys and filter.
// A caller that asks for a different build, while the table fills or
// after, is refused instead of getting a table built the first caller's
// way (say, a join site that wants no filter, or one sized differently).
TEST(OperatorTest, SharedJoinTableRefusesDisagreeingCallers) {
  constexpr int kTasks = 2;
  std::vector<Row> build;
  for (int64_t k = 0; k < 40; ++k) build.push_back({k % 7, k});
  std::array<std::atomic<int>, kTasks> opens{};
  const BuildSliceFactory rows = CountedSlices(build, &opens);
  JoinHashTable table;
  Status while_filling;
  const BuildSliceFactory slices = [&](int s) {
    if (s == 0) while_filling = table.Build(kTasks, rows, {0}, false, 16);
    return rows(s);
  };
  ASSERT_TRUE(table.Build(kTasks, slices, {0}, true, 16).ok());
  EXPECT_EQ(while_filling.code(), StatusCode::kInvalidArgument);
  for (int s = 0; s < kTasks; ++s) EXPECT_EQ(opens[s].load(), 1) << s;
  EXPECT_EQ(table.Build(3, slices, {0}, true, 16).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.Build(kTasks, slices, {1}, true, 16).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.Build(kTasks, slices, {0}, false, 16).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.Build(kTasks, slices, {0}, true, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(table.Build(kTasks, slices, {0}, true, 16).ok());
  EXPECT_EQ(table.size(), build.size());
  EXPECT_NE(table.filter(), nullptr);
}

// A shared build whose slices are joins against another shared build, as
// in Q3 (orders slices joined with the customer table): seven tasks on
// four threads drain the outer table's slices, each of which opens the
// inner join and helps drain the inner table. Every slice of either table
// is opened once, and each task's output equals a join against the
// privately built outer side.
TEST(OperatorTest, NestedSharedBuildInsideASlice) {
  constexpr int kTasks = 7;
  // outer: {ok, ck}; inner: {ck, name}; probe: {ok}
  std::vector<Row> outer, inner;
  for (int64_t ok = 0; ok < 700; ++ok) outer.push_back({ok, ok % 50});
  for (int64_t ck = 0; ck < 50; ck += 2) {
    inner.push_back({ck, "customer name " + std::to_string(ck)});
  }
  auto probe_of = [&](int task) {
    std::vector<Row> rows;
    for (int64_t ok = task; ok < 800; ok += kTasks) rows.push_back({ok});
    return rows;
  };
  auto outer_table = std::make_shared<JoinHashTable>();
  auto inner_table = std::make_shared<JoinHashTable>();
  std::array<std::atomic<int>, kTasks> outer_opens{}, inner_opens{};
  const BuildSliceFactory inner_slices = CountedSlices(inner, &inner_opens);
  const BuildSliceFactory outer_rows = CountedSlices(outer, &outer_opens);
  // Outer slice s: outer rows of slice s joined with the whole inner side.
  const BuildSliceFactory outer_slices = [&](int s) -> OperatorPtr {
    return std::make_unique<HashJoinOp>(
        outer_rows(s), JoinBuild(inner_table, kTasks, inner_slices),
        std::vector<int>{1}, std::vector<int>{0});
  };
  std::vector<Result<std::vector<Row>>> got(kTasks, std::vector<Row>{});
  ThreadPool pool(4);
  for (int t = 0; t < kTasks; ++t) {
    pool.Submit([&, t] {
      HashJoinOp join(std::make_unique<ValuesOp>(probe_of(t)),
                      JoinBuild(outer_table, kTasks, outer_slices), {0}, {0});
      got[t] = Collect(&join);
    });
  }
  pool.Wait();
  for (int s = 0; s < kTasks; ++s) {
    EXPECT_EQ(outer_opens[s].load(), 1) << "outer slice " << s;
    EXPECT_EQ(inner_opens[s].load(), 1) << "inner slice " << s;
  }
  HashJoinOp outer_join(std::make_unique<ValuesOp>(outer),
                        std::make_unique<ValuesOp>(inner), {1}, {0});
  auto whole_outer = Collect(&outer_join);
  ASSERT_TRUE(whole_outer.ok());
  size_t total = 0;
  for (int t = 0; t < kTasks; ++t) {
    ASSERT_TRUE(got[t].ok()) << got[t].status().ToString();
    HashJoinOp want_join(std::make_unique<ValuesOp>(probe_of(t)),
                         std::make_unique<ValuesOp>(*whole_outer), {0}, {0});
    auto want = Collect(&want_join);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(Canonical(*got[t]), Canonical(*want)) << "task " << t;
    total += got[t]->size();
  }
  EXPECT_EQ(total, 350u);  // the orders of even customers
}

TEST(OperatorTest, LookupJoinFetchesByPrimaryKey) {
  ExecFixture f(50);
  auto probe = std::make_unique<ValuesOp>(std::vector<Row>{
      {int64_t{5}}, {int64_t{7}}, {int64_t{500}}});
  LookupJoinOp join(std::move(probe), f.table,
                    {Expr::Col(0)}, f.snapshot);
  auto rows = Collect(&join);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);  // 500 misses
  EXPECT_EQ(std::get<std::string>((*rows)[0][3]), "name5");
  EXPECT_EQ(join.lookups(), 3u);
}

// The lookup join has no left outer form; it says so instead of running
// as another join type.
TEST(OperatorTest, LookupJoinRefusesLeftOuter) {
  ExecFixture f(5);
  LookupJoinOp join(
      std::make_unique<ValuesOp>(std::vector<Row>{{int64_t{1}}}), f.table,
      {Expr::Col(0)}, f.snapshot, JoinType::kLeftOuter);
  EXPECT_EQ(join.Open().code(), StatusCode::kNotSupported);
}

TEST(OperatorTest, HashAggComplete) {
  ExecFixture f(100);
  HashAggOp agg(
      std::make_unique<TableScanOp>(std::vector<TableStore*>{f.table},
                                    f.snapshot),
      {Expr::Col(1)},
      {{AggOp::kCount, nullptr},
       {AggOp::kSum, Expr::Col(0)},
       {AggOp::kAvg, Expr::Col(0)},
       {AggOp::kMin, Expr::Col(0)},
       {AggOp::kMax, Expr::Col(0)}});
  auto rows = Collect(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 10u);  // 10 groups
  for (const auto& r : *rows) {
    int64_t grp = std::get<int64_t>(r[0]);
    EXPECT_EQ(std::get<int64_t>(r[1]), 10);  // count
    // ids in group g: g, g+10, ..., g+90 => sum = 10g + 450
    EXPECT_DOUBLE_EQ(std::get<double>(r[2]), 10.0 * grp + 450.0);
    EXPECT_DOUBLE_EQ(std::get<double>(r[3]), grp + 45.0);  // avg
    EXPECT_EQ(std::get<int64_t>(r[4]), grp);               // min
    EXPECT_EQ(std::get<int64_t>(r[5]), grp + 90);          // max
  }
}

TEST(OperatorTest, GlobalAggOnEmptyInputYieldsOneRow) {
  HashAggOp agg(std::make_unique<ValuesOp>(std::vector<Row>{}), {},
                {{AggOp::kCount, nullptr}, {AggOp::kSum, Expr::Col(0)}});
  auto rows = Collect(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(std::get<int64_t>((*rows)[0][0]), 0);
}

TEST(OperatorTest, PartialFinalAggEqualsComplete) {
  ExecFixture f(200);
  // Complete in one pass.
  HashAggOp complete(
      std::make_unique<TableScanOp>(std::vector<TableStore*>{f.table},
                                    f.snapshot),
      {Expr::Col(1)},
      {{AggOp::kSum, Expr::Col(0)}, {AggOp::kAvg, Expr::Col(0)}});
  auto expected = Collect(&complete);
  ASSERT_TRUE(expected.ok());

  // Partial over two halves, then final merge.
  auto make_partial = [&](ExprPtr filter) {
    return std::make_unique<HashAggOp>(
        std::make_unique<TableScanOp>(std::vector<TableStore*>{f.table},
                                      f.snapshot, filter),
        std::vector<ExprPtr>{Expr::Col(1)},
        std::vector<AggSpec>{{AggOp::kSum, Expr::Col(0)},
                             {AggOp::kAvg, Expr::Col(0)}},
        AggMode::kPartial);
  };
  auto lo = Collect(
      make_partial(Expr::ColCmp(CmpOp::kLt, 0, int64_t{100})).get());
  auto hi = Collect(
      make_partial(Expr::ColCmp(CmpOp::kGe, 0, int64_t{100})).get());
  ASSERT_TRUE(lo.ok() && hi.ok());
  std::vector<Row> partials = *lo;
  partials.insert(partials.end(), hi->begin(), hi->end());
  HashAggOp final_agg(std::make_unique<ValuesOp>(std::move(partials)),
                      {Expr::Col(0)},
                      {{AggOp::kSum, nullptr}, {AggOp::kAvg, nullptr}},
                      AggMode::kFinal);
  // Final mode reads states positionally; exprs unused.
  auto merged = Collect(&final_agg);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->size(), expected->size());
  // Compare as sorted sets.
  auto sorter = [](const Row& a, const Row& b) {
    return std::get<int64_t>(a[0]) < std::get<int64_t>(b[0]);
  };
  std::sort(merged->begin(), merged->end(), sorter);
  std::sort(expected->begin(), expected->end(), sorter);
  for (size_t i = 0; i < merged->size(); ++i) {
    EXPECT_EQ(std::get<int64_t>((*merged)[i][0]),
              std::get<int64_t>((*expected)[i][0]));
    EXPECT_DOUBLE_EQ(std::get<double>((*merged)[i][1]),
                     std::get<double>((*expected)[i][1]));
    EXPECT_DOUBLE_EQ(std::get<double>((*merged)[i][2]),
                     std::get<double>((*expected)[i][2]));
  }
}

// HashAggOp's groups are the EncodeKey-distinct key tuples, for keys
// mixing int64 1, double 1.0, string "1" and NULL, both zeros, 7- and
// 8-byte strings with a common prefix and strings with embedded '\0', over
// 1 to 6 key columns, in complete mode and as kPartial -> kFinal (where a
// partial min over only NULLs must not hide another partial's value);
// groups come out in first-seen order.
TEST(OperatorTest, HashAggGroupsMixedTypeKeysLikeEncodedKeys) {
  using namespace std::string_literals;
  const std::vector<Value> pool = {
      Value{},      int64_t{1}, 1.0,         "1"s,        int64_t{0},
      0.0,          -0.0,       "abcdefg"s,  "abcdefgh"s, "abcdefgh1"s,
      "a\0b"s,      "a\0c"s,    "a\0"s,      "a"s,        ""s,
      "\0\0\0\0\0\0\0\0x"s, "\0\0\0\0\0\0\0\0y"s};
  std::mt19937_64 rng(16);
  // Key tuples: tuple i < pool.size() leads with pool[i], so one key column
  // yields exactly pool.size() groups.
  std::vector<Row> tuples;
  for (size_t i = 0; i < 60; ++i) {
    Row t;
    for (size_t c = 0; c < 6; ++c) t.push_back(pool[rng() % pool.size()]);
    if (i < pool.size()) t[0] = pool[i];
    tuples.push_back(std::move(t));
  }
  // Rows: 6 key columns, then int64 i and double i/2 (NULL every 7th row).
  std::vector<Row> rows;
  for (int64_t i = 0; i < 600; ++i) {
    Row row = tuples[rng() % tuples.size()];
    row.push_back(i);
    row.push_back(i % 7 == 0 ? Value{} : Value{0.5 * double(i)});
    rows.push_back(std::move(row));
  }
  auto aggs = [](bool final) {
    auto col = [&](int c) { return final ? nullptr : Expr::Col(c); };
    return std::vector<AggSpec>{
        {AggOp::kCount, nullptr}, {AggOp::kSum, col(6)},
        {AggOp::kAvg, col(7)},    {AggOp::kMin, col(7)},
        {AggOp::kMax, col(6)},    {AggOp::kCount, col(7)}};
  };
  for (size_t ncols = 1; ncols <= 6; ++ncols) {
    auto group_by = [&] {
      std::vector<ExprPtr> g;
      for (size_t c = 0; c < ncols; ++c) g.push_back(Expr::Col(int(c)));
      return g;
    };
    // The oracle: one entry per EncodeKey of the key columns.
    struct Group {
      Row key;
      int64_t count = 0, nonnull = 0;
      double sum = 0, dsum = 0;
      Value min, max;
    };
    std::map<EncodedKey, Group> groups;
    std::vector<EncodedKey> first_seen;
    for (const Row& row : rows) {
      Row key(row.begin(), row.begin() + ncols);
      auto [it, added] = groups.try_emplace(EncodeKey(key));
      if (added) {
        first_seen.push_back(it->first);
        it->second.key = key;
      }
      Group& g = it->second;
      ++g.count;
      g.sum += double(std::get<int64_t>(row[6]));
      g.max = row[6];
      if (IsNull(row[7])) continue;
      ++g.nonnull;
      g.dsum += std::get<double>(row[7]);
      if (IsNull(g.min)) g.min = row[7];
    }
    std::vector<Row> expected;
    for (const auto& [key, g] : groups) {
      Row want = g.key;
      want.insert(want.end(),
                  {g.count, g.sum,
                   g.nonnull == 0 ? Value{} : Value{g.dsum / g.nonnull}, g.min,
                   g.max, g.nonnull});
      expected.push_back(std::move(want));
    }
    if (ncols == 1) ASSERT_EQ(groups.size(), pool.size());

    HashAggOp complete(std::make_unique<ValuesOp>(rows), group_by(),
                       aggs(false));
    auto got = Collect(&complete);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(Canonical(*got), Canonical(expected)) << ncols << " columns";
    std::vector<EncodedKey> emitted;
    for (const Row& row : *got) {
      emitted.push_back(EncodeKey(Row(row.begin(), row.begin() + ncols)));
    }
    EXPECT_EQ(emitted, first_seen) << ncols << " columns";

    // Three partial aggregations over interleaved thirds, then the merge.
    std::vector<Row> partials;
    for (size_t part = 0; part < 3; ++part) {
      std::vector<Row> slice;
      for (size_t i = part; i < rows.size(); i += 3) slice.push_back(rows[i]);
      HashAggOp partial(std::make_unique<ValuesOp>(std::move(slice)),
                        group_by(), aggs(false), AggMode::kPartial);
      auto states = Collect(&partial);
      ASSERT_TRUE(states.ok()) << states.status().ToString();
      partials.insert(partials.end(), states->begin(), states->end());
    }
    HashAggOp merged(std::make_unique<ValuesOp>(std::move(partials)),
                     group_by(), aggs(true), AggMode::kFinal);
    auto final_rows = Collect(&merged);
    ASSERT_TRUE(final_rows.ok()) << final_rows.status().ToString();
    EXPECT_EQ(Canonical(*final_rows), Canonical(expected))
        << ncols << " columns, partial -> final";
  }
}

// HashAggOp reads column-reference keys and aggregate inputs in place and
// computes the others with Expr::Eval; both must equal an oracle that
// evaluates every key and input with Eval. Covered: column keys off the
// leading cells, computed keys (Substr, Arith) mixed with column keys, a
// global aggregate, computed inputs, min/max over a column mixing int64,
// double, string and NULL, SUM/AVG over that column (strings skipped), and
// min/max slots that stay NULL; in complete mode and as kPartial -> kFinal,
// including a global aggregate over empty partials.
TEST(OperatorTest, HashAggInPlaceAndComputedInputsMatchEvalOracle) {
  using namespace std::string_literals;
  const std::vector<Value> strings = {"alpha"s, "alps"s, "beta"s, "bet"s,
                                      "b"s,     ""s,     "gamma-delta-long"s};
  const std::vector<Value> mixed = {Value{}, int64_t{3}, int64_t{-2}, 2.5,
                                    -0.75,   "x"s,       "abc"s};
  std::mt19937_64 rng(24);
  // Columns: int64 k, string s, mixed m, double x (NULL every 5th row and
  // whenever k is 3), int64 y. Doubles are quarters, so sums are exact in
  // any order.
  std::vector<Row> rows;
  for (int i = 0; i < 400; ++i) {
    const int64_t k = int64_t(rng() % 4);
    rows.push_back({k, strings[rng() % strings.size()],
                    mixed[rng() % mixed.size()],
                    i % 5 == 0 || k == 3 ? Value{}
                                         : Value{0.25 * double(rng() % 64) - 4},
                    int64_t(rng() % 3)});
  }
  using E = Expr;
  const std::vector<AggSpec> aggs = {
      {AggOp::kCount, nullptr},
      {AggOp::kCount, E::Col(2)},
      {AggOp::kSum, E::Col(2)},
      {AggOp::kAvg, E::Col(2)},
      {AggOp::kMin, E::Col(2)},
      {AggOp::kMax, E::Col(2)},
      {AggOp::kSum, E::Arith(ArithOp::kMul, E::Col(3), E::Col(4))},
      {AggOp::kAvg, E::Col(3)},
      {AggOp::kMin, E::Col(3)},
      {AggOp::kMax, E::Substr(E::Col(1), 1, 3)}};
  std::vector<AggSpec> final_aggs;
  for (const AggSpec& spec : aggs) final_aggs.push_back({spec.op, nullptr});

  // The oracle: every key cell and aggregate input through Eval, groups in
  // first-seen order.
  auto oracle = [&](const std::vector<Row>& input,
                    const std::vector<ExprPtr>& group_by) {
    std::map<EncodedKey, size_t> ids;
    std::vector<Row> keys;
    std::vector<std::vector<const Row*>> members;
    for (const Row& row : input) {
      Row key;
      for (const auto& g : group_by) key.push_back(g->Eval(row));
      auto [it, added] = ids.try_emplace(EncodeKey(key), keys.size());
      if (added) {
        keys.push_back(key);
        members.emplace_back();
      }
      members[it->second].push_back(&row);
    }
    if (group_by.empty() && keys.empty()) {
      keys.emplace_back();
      members.emplace_back();
    }
    std::vector<Row> out;
    for (size_t g = 0; g < keys.size(); ++g) {
      Row want = keys[g];
      for (const AggSpec& spec : aggs) {
        int64_t count = 0;
        double sum = 0;
        Value best;
        for (const Row* m : members[g]) {
          const Value v = spec.expr ? spec.expr->Eval(*m) : Value{int64_t{1}};
          if (IsNull(v)) continue;
          if (spec.op == AggOp::kMin || spec.op == AggOp::kMax) {
            const int c = CompareValues(v, best);
            if (IsNull(best) || (spec.op == AggOp::kMin ? c < 0 : c > 0)) {
              best = v;
            }
          } else if (spec.op == AggOp::kCount) {
            ++count;
          } else if (auto d = ValueAsDouble(v); d.ok()) {
            sum += *d;
            ++count;
          }
        }
        switch (spec.op) {
          case AggOp::kCount:
            want.push_back(count);
            break;
          case AggOp::kSum:
            want.push_back(sum);
            break;
          case AggOp::kAvg:
            want.push_back(count == 0 ? Value{} : Value{sum / count});
            break;
          case AggOp::kMin:
          case AggOp::kMax:
            want.push_back(best);
            break;
        }
      }
      out.push_back(std::move(want));
    }
    return out;
  };
  // Rows in order, each memcomparable-encoded: bit-exact, type-strict.
  auto encoded = [](const std::vector<Row>& rs) {
    std::vector<EncodedKey> out;
    for (const Row& row : rs) {
      EncodedKey key;
      for (const Value& v : row) EncodeValue(v, &key);
      out.push_back(std::move(key));
    }
    return out;
  };

  const std::vector<std::vector<ExprPtr>> groupings = {
      {E::Col(2), E::Col(0)},
      {E::Col(0), E::Substr(E::Col(1), 0, 2),
       E::Arith(ArithOp::kSub, E::Col(4), E::Col(0))},
      {E::Col(4), E::Substr(E::Col(1), 0, 1)},
      {}};
  for (size_t gi = 0; gi < groupings.size(); ++gi) {
    const auto& group_by = groupings[gi];
    const std::vector<Row> expected = oracle(rows, group_by);
    HashAggOp complete(std::make_unique<ValuesOp>(rows), group_by, aggs);
    auto got = Collect(&complete);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(encoded(*got), encoded(expected)) << "grouping " << gi;

    // Partials over interleaved quarters, one of them empty, then the
    // merge, whose keys are the partials' leading cells.
    std::vector<Row> partials;
    for (size_t part = 0; part < 4; ++part) {
      std::vector<Row> slice;
      for (size_t i = part; part < 3 && i < rows.size(); i += 3) {
        slice.push_back(rows[i]);
      }
      HashAggOp partial(std::make_unique<ValuesOp>(std::move(slice)),
                        group_by, aggs, AggMode::kPartial);
      auto states = Collect(&partial);
      ASSERT_TRUE(states.ok()) << states.status().ToString();
      partials.insert(partials.end(), states->begin(), states->end());
    }
    std::vector<ExprPtr> final_keys;
    for (size_t c = 0; c < group_by.size(); ++c) {
      final_keys.push_back(E::Col(int(c)));
    }
    HashAggOp merged(std::make_unique<ValuesOp>(std::move(partials)),
                     final_keys, final_aggs, AggMode::kFinal);
    auto final_rows = Collect(&merged);
    ASSERT_TRUE(final_rows.ok()) << final_rows.status().ToString();
    EXPECT_EQ(Canonical(*final_rows), Canonical(expected))
        << "grouping " << gi << ", partial -> final";
  }

  // A global aggregate over no rows, and over partials of no rows: counts
  // and sums are 0, avg, min and max NULL.
  const std::vector<Row> empty_expected = oracle({}, {});
  for (size_t partials = 0; partials <= 2; ++partials) {
    std::vector<Row> states;
    for (size_t p = 0; p < partials; ++p) {
      HashAggOp partial(std::make_unique<ValuesOp>(std::vector<Row>{}), {},
                        aggs, AggMode::kPartial);
      auto got = Collect(&partial);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      states.insert(states.end(), got->begin(), got->end());
    }
    HashAggOp merged(std::make_unique<ValuesOp>(std::move(states)), {},
                     final_aggs, AggMode::kFinal);
    auto got = Collect(&merged);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(encoded(*got), encoded(empty_expected))
        << partials << " empty partials";
  }
  ASSERT_EQ(empty_expected.size(), 1u);
  EXPECT_TRUE(IsNull(empty_expected[0][4]) && IsNull(empty_expected[0][5]));
}

TEST(OperatorTest, SortAscDescAndTopN) {
  auto make_values = [] {
    return std::make_unique<ValuesOp>(std::vector<Row>{
        {int64_t{3}}, {int64_t{1}}, {int64_t{4}}, {int64_t{1}}, {int64_t{5}}});
  };
  SortOp asc(make_values(), {{0, true}});
  auto rows = Collect(&asc);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(std::get<int64_t>((*rows)[0][0]), 1);
  EXPECT_EQ(std::get<int64_t>((*rows)[4][0]), 5);

  SortOp top2(make_values(), {{0, false}}, 2);
  auto top = Collect(&top2);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 2u);
  EXPECT_EQ(std::get<int64_t>((*top)[0][0]), 5);
  EXPECT_EQ(std::get<int64_t>((*top)[1][0]), 4);
}

TEST(OperatorTest, LimitStopsEarly) {
  ExecFixture f(5000);
  LimitOp limit(std::make_unique<TableScanOp>(
                    std::vector<TableStore*>{f.table}, f.snapshot),
                7);
  auto rows = Collect(&limit);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 7u);
}

TEST(OperatorTest, IndexScanRevalidatesVisibility) {
  ExecFixture f(100);
  LocalIndex* idx = f.table->AddIndex("by_grp", {1});
  // Index built on commit only for post-index writes; backfill manually.
  f.table->rows().ScanAll([&](const EncodedKey& pk, const VersionPtr& head) {
    const Version* v = LatestVisible(head, f.snapshot);
    if (v != nullptr) idx->Insert(idx->KeyFor(v->row), pk);
    return true;
  });
  EncodedKey key;
  EncodeValue(Value{int64_t{4}}, &key);
  IndexScanOp scan(f.table, idx, key, "", f.snapshot);
  auto rows = Collect(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);

  // Delete one member; a snapshot after the delete must skip it.
  TxnId txn = f.engine.Begin();
  ASSERT_TRUE(f.engine.Delete(txn, 1, EncodeKey({int64_t{4}})).ok());
  ASSERT_TRUE(f.engine.CommitLocal(txn).ok());
  f.now_ms += 1;
  IndexScanOp scan2(f.table, idx, key, "", f.hlc.Now());
  auto rows2 = Collect(&scan2);
  ASSERT_TRUE(rows2.ok());
  EXPECT_EQ(rows2->size(), 9u) << "stale index entry must be filtered";
}

// ---------- MPP ----------

TEST(MppTest, ParallelScanCoversAllShards) {
  std::vector<std::unique_ptr<ExecFixture>> fixtures;
  std::vector<TableStore*> shards;
  Timestamp snap = 0;
  for (int i = 0; i < 8; ++i) {
    fixtures.push_back(std::make_unique<ExecFixture>(100));
    shards.push_back(fixtures.back()->table);
    snap = std::max(snap, fixtures.back()->snapshot);
  }
  ThreadPool pool(4);
  MppExecutor mpp(&pool);
  auto rows = mpp.RunParallel(4, [&](int task, int ntasks) -> OperatorPtr {
    return std::make_unique<TableScanOp>(
        MppExecutor::ShardsForTask(shards, task, ntasks), snap);
  });
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 800u);
}

TEST(MppTest, PartialFinalAggregation) {
  std::vector<std::unique_ptr<ExecFixture>> fixtures;
  std::vector<TableStore*> shards;
  Timestamp snap = 0;
  for (int i = 0; i < 4; ++i) {
    fixtures.push_back(std::make_unique<ExecFixture>(100));
    shards.push_back(fixtures.back()->table);
    snap = std::max(snap, fixtures.back()->snapshot);
  }
  ThreadPool pool(4);
  MppExecutor mpp(&pool);
  auto rows = mpp.RunPartialFinal(
      4,
      [&](int task, int ntasks) -> OperatorPtr {
        return std::make_unique<HashAggOp>(
            std::make_unique<TableScanOp>(
                MppExecutor::ShardsForTask(shards, task, ntasks), snap),
            std::vector<ExprPtr>{Expr::Col(1)},
            std::vector<AggSpec>{{AggOp::kCount, nullptr},
                                 {AggOp::kSum, Expr::Col(0)}},
            AggMode::kPartial);
      },
      [&](OperatorPtr gathered) -> OperatorPtr {
        return std::make_unique<HashAggOp>(
            std::move(gathered), std::vector<ExprPtr>{Expr::Col(0)},
            std::vector<AggSpec>{{AggOp::kCount, nullptr},
                                 {AggOp::kSum, nullptr}},
            AggMode::kFinal);
      });
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 10u);
  for (const auto& r : *rows) {
    EXPECT_EQ(std::get<int64_t>(r[1]), 40) << "10 per group per shard x4";
  }
}

// Each task owns one block of consecutive shards, so a task's shards of
// every table in a table group are the same partitions, and its column
// slice is one row-id range.
TEST(MppTest, ShardAssignmentIsDisjointAndComplete) {
  // Distinct placeholder pointers: ShardsForTask never dereferences them.
  std::array<char, 10> tags{};
  std::vector<TableStore*> shards;
  for (char& tag : tags) shards.push_back(reinterpret_cast<TableStore*>(&tag));
  for (int tasks : {1, 3, 4, 7, 10, 12}) {
    std::map<TableStore*, int> owner;
    size_t next = 0;  // the first shard no earlier task owns
    for (int t = 0; t < tasks; ++t) {
      for (TableStore* s : MppExecutor::ShardsForTask(shards, t, tasks)) {
        EXPECT_TRUE(owner.emplace(s, t).second)
            << "shard owned twice at " << tasks << " tasks";
        ASSERT_LT(next, shards.size());
        EXPECT_EQ(s, shards[next++])
            << "task " << t << " of " << tasks << " owns a gap";
      }
    }
    EXPECT_EQ(owner.size(), shards.size()) << tasks << " tasks";
  }
}

// A task the pool refuses (it is shutting down) must count as finished
// with an error; otherwise the coordinator waits for it forever.
TEST(MppTest, RefusedTaskFailsInsteadOfHanging) {
  auto* pool = new ThreadPool(1);
  Status got;
  pool->Submit([&] {
    // Spin until the destructor below has started refusing work.
    while (pool->Submit([] {})) std::this_thread::yield();
    MppExecutor mpp(pool);
    got = mpp.RunParallel(2, [](int, int) -> OperatorPtr {
                return std::make_unique<ValuesOp>(std::vector<Row>{});
              }).status();
  });
  delete pool;  // joins the worker, so `got` is final afterwards
  EXPECT_EQ(got.code(), StatusCode::kUnavailable) << got.ToString();
}

/// Producer p of the exchange tests: rows {seq % keys, p, seq} for seq in
/// [0, n), so every key recurs within and across producers.
OperatorPtr ProducerRows(int p, int n, int keys) {
  std::vector<Row> rows;
  for (int64_t seq = 0; seq < n; ++seq) {
    rows.push_back({seq % keys, int64_t{p}, seq});
  }
  return std::make_unique<ValuesOp>(std::move(rows));
}

/// Runs consumer t of `num_tasks` on `pool` as an ExchangeSourceOp over
/// `ex`; returns each consumer's rows.
std::vector<Result<std::vector<Row>>> ConsumeExchange(
    const std::shared_ptr<Exchange>& ex, int num_tasks, ThreadPool* pool,
    const ProducerFactory& producer) {
  std::vector<Result<std::vector<Row>>> got(num_tasks, std::vector<Row>{});
  for (int t = 0; t < num_tasks; ++t) {
    pool->Submit([&, t] {
      ExchangeSourceOp source(ex, t, num_tasks, producer);
      got[t] = Collect(&source);
    });
  }
  pool->Wait();
  return got;
}

// Every row lands in exactly one bucket, and rows with equal keys land in
// the same bucket whichever producer emitted them.
TEST(MppTest, ExchangeRoutesEachKeyToOneBucket) {
  constexpr int kTasks = 4, kRows = 300, kKeys = 40;
  ThreadPool pool(kTasks);
  auto got = ConsumeExchange(
      std::make_shared<Exchange>(std::vector<int>{0}), kTasks, &pool,
      [](int p) { return ProducerRows(p, kRows, kKeys); });
  std::set<std::pair<int64_t, int64_t>> seen;  // (producer, seq)
  std::map<int64_t, int> bucket_of_key;
  int nonempty = 0;
  for (int t = 0; t < kTasks; ++t) {
    ASSERT_TRUE(got[t].ok()) << got[t].status().ToString();
    nonempty += got[t]->empty() ? 0 : 1;
    for (const Row& row : *got[t]) {
      EXPECT_TRUE(seen.emplace(std::get<int64_t>(row[1]),
                               std::get<int64_t>(row[2]))
                      .second)
          << "row delivered twice";
      EXPECT_EQ(Exchange::Bucket(RowKeyHash(row, {0}), kTasks), t);
      auto [it, fresh] = bucket_of_key.emplace(std::get<int64_t>(row[0]), t);
      EXPECT_EQ(it->second, t) << "key split across buckets";
    }
  }
  EXPECT_EQ(seen.size(), size_t(kTasks * kRows));
  EXPECT_EQ(bucket_of_key.size(), size_t(kKeys));
  EXPECT_GT(nonempty, 1);
}

// With one task the exchange hands its producer's rows through unchanged,
// across several output batches.
TEST(MppTest, SingleTaskExchangeIsIdentity) {
  constexpr int kRows = 2500;  // > 2 batches
  ThreadPool pool(1);
  auto got = ConsumeExchange(std::make_shared<Exchange>(std::vector<int>{0}),
                             1, &pool,
                             [](int p) { return ProducerRows(p, kRows, 7); });
  ASSERT_TRUE(got[0].ok()) << got[0].status().ToString();
  auto want = Collect(ProducerRows(0, kRows, 7).get());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*got[0], *want);
}

// Seven two-stage fragments on a four-thread pool: a consumer only waits
// for producers a running consumer claimed, so the run finishes; each
// producer runs exactly once; the per-bucket final aggregation sees every
// producer's rows of its keys.
TEST(MppTest, ExchangeConsumersOutnumberingThreadsFinish) {
  constexpr int kTasks = 7, kRows = 210, kKeys = 30;
  auto ex = std::make_shared<Exchange>(std::vector<int>{0});
  std::array<std::atomic<int>, kTasks> calls{};
  ThreadPool pool(4);
  MppExecutor mpp(&pool);
  auto rows = mpp.RunParallel(kTasks, [&](int task, int n) -> OperatorPtr {
    auto source = std::make_unique<ExchangeSourceOp>(
        ex, task, n, [&](int p) {
          calls[p].fetch_add(1);
          return ProducerRows(p, kRows, kKeys);
        });
    return std::make_unique<HashAggOp>(
        std::move(source), std::vector<ExprPtr>{Expr::Col(0)},
        std::vector<AggSpec>{{AggOp::kCount, nullptr}});
  });
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  for (int p = 0; p < kTasks; ++p) EXPECT_EQ(calls[p].load(), 1) << p;
  ASSERT_EQ(rows->size(), size_t(kKeys));
  for (const Row& r : *rows) {
    EXPECT_EQ(std::get<int64_t>(r[1]), kTasks * kRows / kKeys);
  }
}

// A failed producer's Status reaches every consumer, including the ones
// that did not run it.
TEST(MppTest, ExchangeProducerFailureReachesEveryConsumer) {
  constexpr int kTasks = 7;
  std::atomic<int> opens{0};
  ThreadPool pool(4);
  auto got = ConsumeExchange(
      std::make_shared<Exchange>(std::vector<int>{0}), kTasks, &pool,
      [&](int p) -> OperatorPtr {
        if (p != 3) return ProducerRows(p, 100, 10);
        return std::make_unique<CountingValuesOp>(
            std::vector<Row>{{int64_t{1}}}, &opens,
            Status::Busy("producer failed"));
      });
  EXPECT_EQ(opens.load(), 1);
  for (int t = 0; t < kTasks; ++t) {
    EXPECT_EQ(got[t].status().code(), StatusCode::kBusy)
        << "consumer " << t << ": " << got[t].status().ToString();
  }
}

// ---------- scheduler ----------

/// A job that spins for a fixed cpu time per slice, for n slices.
class SpinJob : public SlicedJob {
 public:
  SpinJob(int slices, std::chrono::microseconds per_slice)
      : remaining_(slices), per_slice_(per_slice) {}
  bool RunSlice() override {
    auto until = std::chrono::steady_clock::now() + per_slice_;
    while (std::chrono::steady_clock::now() < until) {
    }
    return --remaining_ <= 0;
  }

 private:
  int remaining_;
  std::chrono::microseconds per_slice_;
};

TEST(SchedulerTest, JobsComplete) {
  QueryScheduler sched({.num_workers = 4});
  std::vector<std::shared_ptr<JobHandle>> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sched.Submit(
        std::make_shared<SpinJob>(2, std::chrono::microseconds(100)),
        QueryClass::kTp));
  }
  for (auto& h : handles) {
    h->Wait();
    EXPECT_TRUE(h->done());
  }
}

TEST(SchedulerTest, LongTpJobDemotedToAp) {
  SchedulerOptions opts;
  opts.num_workers = 2;
  opts.tp_reclass_threshold = std::chrono::microseconds(2000);
  QueryScheduler sched(opts);
  // Masquerades as TP but burns 10ms over many slices.
  auto h = sched.Submit(
      std::make_shared<SpinJob>(10, std::chrono::microseconds(1000)),
      QueryClass::kTp);
  h->Wait();
  EXPECT_EQ(h->final_class(), QueryClass::kAp);
  EXPECT_GE(sched.demotions_to_ap(), 1u);
}

TEST(SchedulerTest, LongApJobDemotedToSlowPool) {
  SchedulerOptions opts;
  opts.num_workers = 2;
  opts.ap_reclass_threshold = std::chrono::microseconds(2000);
  QueryScheduler sched(opts);
  auto h = sched.Submit(
      std::make_shared<SpinJob>(10, std::chrono::microseconds(1000)),
      QueryClass::kAp);
  h->Wait();
  EXPECT_EQ(h->final_class(), QueryClass::kSlowAp);
  EXPECT_GE(sched.demotions_to_slow(), 1u);
}

TEST(SchedulerTest, IsolationKeepsTpLatencyLowUnderApFlood) {
  SchedulerOptions opts;
  opts.num_workers = 4;
  opts.ap_max_concurrency = 1;
  QueryScheduler sched(opts);
  // Flood with long AP jobs.
  std::vector<std::shared_ptr<JobHandle>> ap;
  for (int i = 0; i < 16; ++i) {
    ap.push_back(sched.Submit(
        std::make_shared<SpinJob>(20, std::chrono::microseconds(2000)),
        QueryClass::kAp));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // TP jobs must cut through.
  std::vector<std::shared_ptr<JobHandle>> tp;
  for (int i = 0; i < 8; ++i) {
    tp.push_back(sched.Submit(
        std::make_shared<SpinJob>(1, std::chrono::microseconds(500)),
        QueryClass::kTp));
  }
  for (auto& h : tp) h->Wait();
  for (auto& h : tp) {
    EXPECT_LT(h->latency().count(), 200 * 1000)
        << "TP latency must not queue behind the AP flood";
  }
  for (auto& h : ap) h->Wait();
}

TEST(SchedulerTest, OperatorJobCollectsRows) {
  ExecFixture f(300);
  QueryScheduler sched({.num_workers = 2});
  auto job = std::make_shared<OperatorJob>(
      std::make_unique<TableScanOp>(std::vector<TableStore*>{f.table},
                                    f.snapshot),
      /*batches_per_slice=*/1);
  auto h = sched.Submit(job, QueryClass::kAp);
  h->Wait();
  EXPECT_TRUE(job->status().ok());
  EXPECT_EQ(job->rows().size(), 300u);
}

// ---------- optimizer ----------

TEST(CostModelTest, PointQueryIsTp) {
  CostModel model;
  TableStats stats{10'000'000, 100, 0.0000001};
  QueryProfile p = ScanProfile(stats, 0.0000001, /*via_index=*/true);
  EXPECT_EQ(model.Classify(p), WorkloadClass::kTp);
}

TEST(CostModelTest, FullScanIsAp) {
  CostModel model;
  TableStats stats{10'000'000, 100, 0.001};
  QueryProfile p = ScanProfile(stats, 0.5, /*via_index=*/false);
  p.num_joins = 2;
  p.has_aggregation = true;
  EXPECT_EQ(model.Classify(p), WorkloadClass::kAp);
}

TEST(CostModelTest, StoreChoiceMatchesPaperIntuition) {
  CostModel model;
  TableStats big{6'000'000, 120, 0.0001};
  // Large scan with aggregation: column index wins (§VI-E).
  QueryProfile scan = ScanProfile(big, 0.3, false);
  scan.has_aggregation = true;
  EXPECT_EQ(model.ChooseStore(scan, true), StoreChoice::kColumnIndex);
  // Point query: row store wins.
  QueryProfile point = ScanProfile(big, 0.0000002, true);
  EXPECT_EQ(model.ChooseStore(point, true), StoreChoice::kRowStore);
  // No column index available: row store regardless.
  EXPECT_EQ(model.ChooseStore(scan, false), StoreChoice::kRowStore);
}

TEST(CostModelTest, PushdownWhenItShrinksTransfer) {
  CostModel model;
  EXPECT_TRUE(model.ShouldPushDown(1'000'000, 100));
  EXPECT_FALSE(model.ShouldPushDown(1000, 1000));
}

}  // namespace
}  // namespace polarx
