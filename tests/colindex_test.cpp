// Tests for the in-memory column index (§VI-E): maintenance from committed
// operations, trx-consistent snapshots, batched/delayed apply, vectorized
// selection, and integration with RO-replica log capture.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "src/clock/hlc.h"
#include "src/colindex/column_index.h"
#include "src/common/rng.h"
#include "src/exec/runtime_filter.h"
#include "src/replication/rw_ro.h"
#include "src/storage/buffer_pool.h"
#include "src/txn/engine.h"

namespace polarx {
namespace {

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt64, false},
                 {"amount", ValueType::kDouble, false},
                 {"tag", ValueType::kString, false}},
                {0});
}

RedoRecord Ins(int64_t id, double amount, const std::string& tag) {
  RedoRecord rec;
  rec.type = RedoType::kInsert;
  rec.key = EncodeKey({id});
  rec.row = {id, amount, tag};
  return rec;
}

RedoRecord Del(int64_t id) {
  RedoRecord rec;
  rec.type = RedoType::kDelete;
  rec.key = EncodeKey({id});
  return rec;
}

TEST(ColumnIndexTest, InsertAndScan) {
  ColumnIndex idx(TestSchema());
  idx.ApplyCommit(100, {Ins(1, 10.0, "a"), Ins(2, 20.0, "b")});
  EXPECT_EQ(idx.version(), 100u);
  EXPECT_EQ(idx.live_rows(100), 2u);
  EXPECT_EQ(idx.live_rows(99), 0u) << "snapshot before commit sees nothing";

  ColumnScanOp scan(&idx, 100);
  auto rows = Collect(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(ColumnIndexTest, UpdateCreatesNewVersionOldSnapshotsStable) {
  ColumnIndex idx(TestSchema());
  idx.ApplyCommit(100, {Ins(1, 10.0, "old")});
  idx.ApplyCommit(200, {Ins(1, 99.0, "new")});  // update = tombstone+append
  EXPECT_EQ(idx.total_versions(), 2u);
  EXPECT_EQ(idx.live_rows(150), 1u);
  EXPECT_EQ(idx.live_rows(250), 1u);

  ColumnScanOp old_scan(&idx, 150);
  auto old_rows = Collect(&old_scan);
  ASSERT_TRUE(old_rows.ok());
  ASSERT_EQ(old_rows->size(), 1u);
  EXPECT_DOUBLE_EQ(std::get<double>((*old_rows)[0][1]), 10.0);

  ColumnScanOp new_scan(&idx, 250);
  auto new_rows = Collect(&new_scan);
  ASSERT_TRUE(new_rows.ok());
  EXPECT_DOUBLE_EQ(std::get<double>((*new_rows)[0][1]), 99.0);
}

TEST(ColumnIndexTest, DeleteTombstones) {
  ColumnIndex idx(TestSchema());
  idx.ApplyCommit(100, {Ins(1, 10.0, "a")});
  idx.ApplyCommit(200, {Del(1)});
  EXPECT_EQ(idx.live_rows(150), 1u);
  EXPECT_EQ(idx.live_rows(200), 0u);
}

TEST(ColumnIndexTest, BatchedApplyLagsThenCatchesUp) {
  ColumnIndex idx(TestSchema());
  idx.SetBatching(true, /*max_buffered_ops=*/100);
  idx.ApplyCommit(100, {Ins(1, 1.0, "x")});
  idx.ApplyCommit(200, {Ins(2, 2.0, "y")});
  // Nothing applied yet: the index version lags the row store (§VI-E).
  EXPECT_EQ(idx.version(), 0u);
  EXPECT_EQ(idx.pending_ops(), 2u);
  EXPECT_EQ(idx.live_rows(300), 0u);
  idx.FlushPending();
  EXPECT_EQ(idx.version(), 200u);
  EXPECT_EQ(idx.live_rows(300), 2u);
}

TEST(ColumnIndexTest, BufferOverflowForcesApply) {
  ColumnIndex idx(TestSchema());
  idx.SetBatching(true, /*max_buffered_ops=*/10);
  for (int i = 0; i < 12; ++i) {
    idx.ApplyCommit(100 + i, {Ins(i, double(i), "t")});
  }
  EXPECT_GT(idx.version(), 0u) << "full buffer must self-apply";
  EXPECT_LT(idx.pending_ops(), 10u) << "buffer drained at the high-water mark";
}

TEST(ColumnIndexTest, VectorizedSelectionMatchesExpected) {
  ColumnIndex idx(TestSchema());
  std::vector<RedoRecord> ops;
  for (int64_t i = 0; i < 1000; ++i) {
    ops.push_back(Ins(i, double(i % 100), i % 2 == 0 ? "even" : "odd"));
  }
  idx.ApplyCommit(100, ops);
  // Simple conjunctive predicate: vectorized passes.
  auto filter = Expr::And(
      Expr::ColCmp(CmpOp::kGe, 1, 50.0),
      Expr::ColCmp(CmpOp::kEq, 2, std::string("even")));
  std::vector<uint32_t> sel;
  idx.BuildSelection(100, filter, &sel);
  // i%100 >= 50 and i even: 25 per 100 => 250.
  EXPECT_EQ(sel.size(), 250u);
  // Aggregate fast path consistent with materialized evaluation.
  double sum = idx.SumSelected(1, sel);
  double expected = 0;
  for (uint32_t r : sel) {
    expected += std::get<double>(idx.MaterializeRow(r)[1]);
  }
  EXPECT_DOUBLE_EQ(sum, expected);
}

TEST(ColumnIndexTest, ResidualPredicateFallback) {
  ColumnIndex idx(TestSchema());
  std::vector<RedoRecord> ops;
  for (int64_t i = 0; i < 100; ++i) {
    ops.push_back(Ins(i, double(i), "tag" + std::to_string(i % 10)));
  }
  idx.ApplyCommit(100, ops);
  // Contains() is not vectorizable: must fall through to the residual pass.
  auto filter = Expr::And(Expr::ColCmp(CmpOp::kLt, 0, int64_t{50}),
                          Expr::Contains(Expr::Col(2), "3"));
  std::vector<uint32_t> sel;
  idx.BuildSelection(100, filter, &sel);
  EXPECT_EQ(sel.size(), 5u);  // i in {3,13,23,33,43}
}

// ---- typed column path: residual filters on the typed arrays ----

// id0 a1 b2 (int64) x3 y4 (double) s5 t6 (string); every column but id
// nullable.
Schema MixedSchema() {
  return Schema({{"id", ValueType::kInt64, false},
                 {"a", ValueType::kInt64, true},
                 {"b", ValueType::kInt64, true},
                 {"x", ValueType::kDouble, true},
                 {"y", ValueType::kDouble, true},
                 {"s", ValueType::kString, true},
                 {"t", ValueType::kString, true}},
                {0});
}

RedoRecord InsRow(Row row) {
  RedoRecord rec;
  rec.type = RedoType::kInsert;
  rec.key = EncodeKey({row[0]});
  rec.row = std::move(row);
  return rec;
}

constexpr int64_t kTwo53 = int64_t{1} << 53;

// The selection the row path gives: visible rows of `range` (the filter-
// free selection) whose materialized row passes Expr::EvalBool.
std::vector<uint32_t> RowPathSelection(const ColumnIndex& idx, Timestamp snap,
                                       const ExprPtr& filter,
                                       RowRange range = {}) {
  std::vector<uint32_t> visible, out;
  idx.BuildSelection(snap, nullptr, &visible, range);
  for (uint32_t r : visible) {
    if (filter->EvalBool(idx.MaterializeRow(r))) out.push_back(r);
  }
  return out;
}

// A double literal against an int64 column compares as a double, not
// rounded (`a <= 10.5` keeps 10, not 11), and a literal of a type the
// column does not hold keeps every non-NULL row or none, since
// CompareValues sorts numbers before strings.
TEST(ColumnIndexTest, LiteralOfAnotherTypeComparesAsCompareValues) {
  ColumnIndex idx(MixedSchema());
  std::vector<RedoRecord> ops;
  for (int64_t i = 0; i < 20; ++i) {
    const bool null = i % 5 == 4;
    ops.push_back(InsRow({i, null ? Value{} : Value{i},
                          Value{i}, null ? Value{} : Value{double(i)},
                          Value{0.0},
                          null ? Value{} : Value{"s" + std::to_string(i)},
                          Value{std::string("t")}}));
  }
  idx.ApplyCommit(100, ops);
  auto count = [&](const ExprPtr& f) {
    std::vector<uint32_t> sel;
    idx.BuildSelection(100, f, &sel);
    EXPECT_EQ(sel, RowPathSelection(idx, 100, f));
    return sel.size();
  };
  // a is NULL for i = 4, 9, 14, 19.
  EXPECT_EQ(count(Expr::ColCmp(CmpOp::kLe, 1, 10.5)), 9u);  // 0..10 \ {4, 9}
  EXPECT_EQ(count(Expr::ColCmp(CmpOp::kEq, 1, 10.4)), 0u);
  EXPECT_EQ(count(Expr::ColCmp(CmpOp::kEq, 1, 10.0)), 1u);
  EXPECT_EQ(count(Expr::ColCmp(CmpOp::kGt, 1, 10.5)), 7u);
  EXPECT_EQ(count(Expr::ColCmp(CmpOp::kLt, 1, std::string("x"))), 16u);
  EXPECT_EQ(count(Expr::ColCmp(CmpOp::kGe, 1, std::string("x"))), 0u);
  EXPECT_EQ(count(Expr::ColCmp(CmpOp::kGt, 5, int64_t{5})), 16u);
  EXPECT_EQ(count(Expr::ColCmp(CmpOp::kNe, 5, 5.0)), 16u);
  EXPECT_EQ(count(Expr::ColCmp(CmpOp::kLt, 5, int64_t{5})), 0u);
  // double column vs int64 literal compares as doubles: exact here.
  EXPECT_EQ(count(Expr::ColCmp(CmpOp::kEq, 3, int64_t{3})), 1u);
  // A NULL literal makes every comparison false, and NOT of it true.
  EXPECT_EQ(count(Expr::ColCmp(CmpOp::kEq, 2, Value{})), 0u);
  EXPECT_EQ(count(Expr::Not(Expr::ColCmp(CmpOp::kEq, 2, Value{}))), 20u);
}

// int64 operands compare exactly, not through double (2^53 and 2^53 + 1
// are the same double).
TEST(ColumnIndexTest, Int64ComparesExactlyBeyond2Pow53) {
  ColumnIndex idx(MixedSchema());
  idx.ApplyCommit(100, {InsRow({int64_t{0}, kTwo53, kTwo53 + 1, Value{},
                                Value{}, Value{}, Value{}})});
  std::vector<uint32_t> sel;
  idx.BuildSelection(100, nullptr, &sel);
  ASSERT_EQ(sel.size(), 1u);
  auto vec = [&](const ExprPtr& f) {
    std::vector<uint8_t> out;
    EXPECT_TRUE(idx.EvalBoolVector(*f, sel, &out));
    EXPECT_EQ(bool(out[0]), f->EvalBool(idx.MaterializeRow(sel[0])));
    return bool(out[0]);
  };
  const ExprPtr a = Expr::Col(1), b = Expr::Col(2);
  EXPECT_TRUE(vec(Expr::Cmp(CmpOp::kLt, a, b)));
  EXPECT_FALSE(vec(Expr::Cmp(CmpOp::kEq, a, b)));
  EXPECT_TRUE(vec(Expr::Cmp(CmpOp::kNe, a, b)));
  EXPECT_TRUE(vec(Expr::Cmp(CmpOp::kGt, Expr::Arith(ArithOp::kSub, b, a),
                            Expr::Lit(int64_t{0}))));
  EXPECT_TRUE(vec(Expr::Cmp(CmpOp::kEq, Expr::Arith(ArithOp::kAdd, a,
                                                    Expr::Lit(int64_t{1})),
                            b)));
  EXPECT_TRUE(vec(Expr::In(a, {Value{kTwo53 - 1}, Value{kTwo53}})));
  EXPECT_FALSE(vec(Expr::In(b, {Value{kTwo53}})));
  for (CmpOp op : {CmpOp::kLt, CmpOp::kEq, CmpOp::kGe}) {
    idx.BuildSelection(100, Expr::Cmp(op, a, b), &sel);
    EXPECT_EQ(sel.size(), op == CmpOp::kLt ? 1u : 0u);
    idx.BuildSelection(100, nullptr, &sel);
  }
  idx.BuildSelection(100, Expr::ColCmp(CmpOp::kEq, 1, kTwo53 + 1), &sel);
  EXPECT_TRUE(sel.empty());
}

// Random rows over int64, double and string columns with NULLs, values
// around +-2^53, -0.0 and 0.0, in three versions (inserts, updates of
// every third id, deletes of every seventh).
std::unique_ptr<ColumnIndex> RandomMixedIndex(uint64_t seed) {
  Rng rng(seed);
  auto int_val = [&]() -> Value {
    switch (rng.Uniform(6)) {
      case 0: return Value{};
      case 1: return Value{kTwo53 + rng.UniformRange(-2, 2)};
      case 2: return Value{-kTwo53 - rng.UniformRange(0, 2)};
      case 3: return Value{rng.UniformRange(-3, 3)};
      default: return Value{rng.UniformRange(-5, 12000)};  // days
    }
  };
  auto dbl_val = [&]() -> Value {
    switch (rng.Uniform(7)) {
      case 0: return Value{};
      case 1: return Value{0.0};
      case 2: return Value{-0.0};
      case 3: return Value{double(kTwo53) + double(2 * rng.Uniform(2))};
      case 4: return Value{double(rng.UniformRange(-3, 3))};
      case 5: return Value{double(rng.UniformRange(-3, 3)) + 0.5};
      default: return Value{rng.NextDouble() * 12000 - 50};
    }
  };
  static const char* kWords[] = {"",     "sp",   "special", "spare",
                                 "foo",  "food", "bar",     "x",
                                 "especially", "Z"};
  auto str_val = [&]() -> Value {
    if (rng.Uniform(6) == 0) return Value{};
    return Value{std::string(kWords[rng.Uniform(10)])};
  };
  auto row = [&](int64_t id) {
    return InsRow({id, int_val(), int_val(), dbl_val(), dbl_val(), str_val(),
                   str_val()});
  };
  auto idx = std::make_unique<ColumnIndex>(MixedSchema());
  std::vector<RedoRecord> load, updates, deletes;
  for (int64_t id = 0; id < 600; ++id) load.push_back(row(id));
  for (int64_t id = 0; id < 600; id += 3) updates.push_back(row(id));
  for (int64_t id = 0; id < 600; id += 7) deletes.push_back(Del(id));
  idx->ApplyCommit(100, load);
  idx->ApplyCommit(200, updates);
  idx->ApplyCommit(300, deletes);
  return idx;
}

// Every residual shape the TPC-H plans use, and more, decides on the typed
// arrays exactly what Expr::EvalBool decides on the materialized row: the
// whole index, RowRange slices, and a snapshot between versions.
TEST(ColumnIndexTest, ResidualFiltersMatchRowPathDifferentially) {
  using E = Expr;
  const auto a = [] { return E::Col(1); };
  const auto b = [] { return E::Col(2); };
  const auto x = [] { return E::Col(3); };
  const auto y = [] { return E::Col(4); };
  const auto s = [] { return E::Col(5); };
  const auto t = [] { return E::Col(6); };
  auto lit = [](Value v) { return E::Lit(std::move(v)); };
  const std::string kX = "x";
  struct Case {
    std::string name;
    ExprPtr filter;
    bool vectorizes;
  };
  const std::vector<Case> cases = {
      {"int<int", E::Cmp(CmpOp::kLt, a(), b()), true},
      {"int==int", E::Cmp(CmpOp::kEq, a(), b()), true},
      {"dbl<=dbl", E::Cmp(CmpOp::kLe, x(), y()), true},
      {"dbl==dbl", E::Cmp(CmpOp::kEq, x(), y()), true},
      {"int>dbl", E::Cmp(CmpOp::kGt, a(), x()), true},
      {"dbl!=int", E::Cmp(CmpOp::kNe, x(), a()), true},
      {"str<str", E::Cmp(CmpOp::kLt, s(), t()), true},
      {"int<'x'", E::Cmp(CmpOp::kLt, a(), lit(kX)), true},
      {"str>5", E::Cmp(CmpOp::kGt, s(), lit(int64_t{5})), true},
      {"int<=10.5", E::Cmp(CmpOp::kLe, a(), lit(10.5)), true},
      {"dbl==0", E::Cmp(CmpOp::kEq, x(), lit(0.0)), true},
      {"dbl<-0", E::Cmp(CmpOp::kLt, x(), lit(-0.0)), true},
      {"int==NULL", E::Cmp(CmpOp::kEq, a(), lit(Value{})), true},
      {"not(int<int)", E::Not(E::Cmp(CmpOp::kLt, a(), b())), true},
      {"in ints", E::In(a(), {Value{int64_t{1}}, Value{int64_t{-3}},
                              Value{kTwo53 + 1}, Value{}, Value{3.0},
                              Value{kX}}),
       true},
      {"in dbls", E::In(x(), {Value{int64_t{0}}, Value{2.5}, Value{}}), true},
      {"in strs", E::In(s(), {Value{std::string("foo")},
                              Value{std::string()}, Value{},
                              Value{int64_t{3}}}),
       true},
      {"not in", E::Not(E::In(s(), {Value{std::string("bar")}})), true},
      {"contains", E::Contains(s(), "ec"), true},
      {"starts", E::StartsWith(t(), "sp"), true},
      {"not like", E::Not(E::Contains(s(), "special")), true},
      {"contains int", E::Not(E::Contains(a(), "1")), true},
      {"or", E::Or(E::Cmp(CmpOp::kLt, a(), b()), E::Contains(s(), "x")),
       true},
      {"and/or/not",
       E::And(E::Or(E::Cmp(CmpOp::kGe, x(), y()), E::IsNull(t())),
              E::Not(E::StartsWith(s(), "fo"))),
       true},
      {"isnull", E::IsNull(x()), true},
      {"not isnull", E::Not(E::IsNull(s())), true},
      {"isnull arith", E::IsNull(E::Arith(ArithOp::kAdd, a(), x())), true},
      {"year", E::Cmp(CmpOp::kEq, E::Year(a()), lit(int64_t{1995})), true},
      {"year dbl", E::Cmp(CmpOp::kGe, E::Year(x()), lit(int64_t{1980})),
       true},
      {"in substr", E::In(E::Substr(s(), 0, 2),
                          {Value{std::string("sp")},
                           Value{std::string("fo")}}),
       true},
      {"substr==", E::Cmp(CmpOp::kEq, E::Substr(t(), 1, 3), lit("pec")),
       true},
      {"a-b>0", E::Cmp(CmpOp::kGt, E::Arith(ArithOp::kSub, a(), b()),
                       lit(int64_t{0})),
       true},
      {"a+1>b", E::Cmp(CmpOp::kGt,
                       E::Arith(ArithOp::kAdd, a(), lit(int64_t{1})), b()),
       true},
      {"2x<y", E::Cmp(CmpOp::kLt, E::Arith(ArithOp::kMul, x(), lit(2.0)),
                      y()),
       true},
      {"a/b>=1", E::Cmp(CmpOp::kGe, E::Arith(ArithOp::kDiv, a(), b()),
                        lit(int64_t{1})),
       true},
      {"a+x<b", E::Cmp(CmpOp::kLt, E::Arith(ArithOp::kAdd, a(), x()), b()),
       true},
      {"case", E::Cmp(CmpOp::kGt,
                      E::Case(E::Cmp(CmpOp::kLt, a(), b()), x(), lit(1.0)),
                      lit(0.5)),
       true},
      {"int as bool", a(), true},
      {"arith as bool", E::Arith(ArithOp::kSub, a(), b()), true},
      {"simple and residual",
       E::And(E::Cmp(CmpOp::kGe, a(), lit(int64_t{0})),
              E::And(E::Cmp(CmpOp::kLt, x(), y()),
                     E::Cmp(CmpOp::kEq, s(), lit("foo")))),
       true},
      // Shapes the typed path leaves to the row-at-a-time fallback: a
      // comparison used as a value, and a CASE mixing int64 and double.
      {"cmp as value", E::Cmp(CmpOp::kEq, E::Cmp(CmpOp::kLt, a(), b()),
                              lit(int64_t{1})),
       false},
      {"mixed case", E::Cmp(CmpOp::kGe, E::Case(E::IsNull(x()), a(), x()),
                            lit(int64_t{0})),
       false},
  };

  auto idx = RandomMixedIndex(2024);
  const size_t w = idx->total_versions();
  std::vector<RowRange> ranges = {RowRange{}};
  for (size_t p = 0; p < 3; ++p) {
    RowRange r;
    r.begin = w * p / 3;
    if (p < 2) r.end = w * (p + 1) / 3;
    ranges.push_back(r);
  }
  for (const Case& c : cases) {
    for (Timestamp snap : {Timestamp{150}, Timestamp{250}, Timestamp{350}}) {
      for (const RowRange& range : ranges) {
        std::vector<uint32_t> sel;
        idx->BuildSelection(snap, c.filter, &sel, range);
        EXPECT_EQ(sel, RowPathSelection(*idx, snap, c.filter, range))
            << c.name << " snap=" << snap << " range=[" << range.begin
            << "," << range.end << ")";
      }
      std::vector<uint32_t> visible;
      idx->BuildSelection(snap, nullptr, &visible);
      std::vector<uint8_t> mask;
      ASSERT_EQ(idx->EvalBoolVector(*c.filter, visible, &mask), c.vectorizes)
          << c.name;
      if (!c.vectorizes) continue;
      ASSERT_EQ(mask.size(), visible.size());
      for (size_t i = 0; i < visible.size(); ++i) {
        ASSERT_EQ(bool(mask[i]),
                  c.filter->EvalBool(idx->MaterializeRow(visible[i])))
            << c.name << " row " << visible[i];
      }
    }
  }
}

TEST(ColumnIndexTest, ColumnSubsetProjection) {
  ColumnIndex idx(TestSchema(), {0, 1});  // id, amount only
  idx.ApplyCommit(100, {Ins(1, 10.0, "dropped")});
  Row row = idx.MaterializeRow(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(row[0]), 1);
  EXPECT_DOUBLE_EQ(std::get<double>(row[1]), 10.0);
}

// Cuts the index into `parts` row-id slices the way the MPP plan builder
// does (boundaries W·p/parts from a fixed count `w`, the last slice
// open-ended) and checks that each slice's selection stays inside its
// range and that their concatenation is strictly ascending (so the slices
// are disjoint) and equals the whole-index selection.
void ExpectSlicesPartition(const ColumnIndex& idx, Timestamp snap,
                           const ExprPtr& filter, size_t w, size_t parts) {
  std::vector<uint32_t> sliced;
  for (size_t p = 0; p < parts; ++p) {
    RowRange range;
    range.begin = w * p / parts;
    if (p + 1 < parts) range.end = w * (p + 1) / parts;
    std::vector<uint32_t> sel;
    idx.BuildSelection(snap, filter, &sel, range);
    for (uint32_t r : sel) {
      EXPECT_GE(r, range.begin) << "part " << p << "/" << parts;
      EXPECT_LT(r, range.end) << "part " << p << "/" << parts;
    }
    sliced.insert(sliced.end(), sel.begin(), sel.end());
  }
  EXPECT_TRUE(std::adjacent_find(sliced.begin(), sliced.end(),
                                 std::greater_equal<uint32_t>()) ==
              sliced.end())
      << "slices overlap or are out of order; parts=" << parts;
  std::vector<uint32_t> full;
  idx.BuildSelection(snap, filter, &full);
  EXPECT_EQ(sliced, full) << "snap=" << snap << " parts=" << parts;
}

// Row-id slices partition the index, for tombstoned versions, a snapshot
// between versions, fewer rows than parts, and rows appended after the
// slice boundaries were fixed.
TEST(ColumnIndexTest, RowRangeSlicesPartitionTheSelection) {
  ColumnIndex idx(TestSchema());
  std::vector<RedoRecord> load, updates, deletes;
  for (int64_t i = 0; i < 40; ++i) load.push_back(Ins(i, double(i), "v1"));
  for (int64_t i = 0; i < 40; i += 3) {
    updates.push_back(Ins(i, double(i) + 0.5, "v2"));
  }
  for (int64_t i = 0; i < 40; i += 5) deletes.push_back(Del(i));
  idx.ApplyCommit(100, load);
  idx.ApplyCommit(200, updates);  // tombstones every third v1 version
  idx.ApplyCommit(300, deletes);
  const ExprPtr amount_ge_10 = Expr::ColCmp(CmpOp::kGe, 1, 10.0);
  const size_t w = idx.total_versions();
  for (Timestamp snap : {Timestamp{150}, Timestamp{250}, Timestamp{350}}) {
    for (const ExprPtr& filter : {ExprPtr(), amount_ge_10}) {
      for (size_t parts : {1, 2, 3, 7}) {
        ExpectSlicesPartition(idx, snap, filter, w, parts);
      }
    }
  }

  ColumnIndex tiny(TestSchema());
  tiny.ApplyCommit(100, {Ins(1, 1.0, "a"), Ins(2, 2.0, "b"),
                         Ins(3, 3.0, "c")});
  for (size_t parts : {1, 2, 3, 7}) {
    ExpectSlicesPartition(tiny, 100, nullptr, tiny.total_versions(), parts);
  }

  // Watermark: boundaries fixed from `w`, then more commits land (new rows
  // plus updates tombstoning rows in earlier slices) before the slices
  // open. The open-ended last slice picks up every appended row.
  std::vector<RedoRecord> late;
  for (int64_t i = 40; i < 50; ++i) late.push_back(Ins(i, double(i), "v3"));
  for (int64_t i = 1; i < 40; i += 4) late.push_back(Ins(i, 0.25, "v3"));
  idx.ApplyCommit(400, late);
  ASSERT_GT(idx.total_versions(), w);
  for (Timestamp snap : {Timestamp{350}, Timestamp{450}}) {
    for (size_t parts : {1, 2, 3, 7}) {
      ExpectSlicesPartition(idx, snap, nullptr, w, parts);
    }
  }
}

TEST(ColumnIndexTest, FedFromRoReplicaCommitHook) {
  // End-to-end §VI-E wiring: RW writes -> redo -> RO replica applies ->
  // commit hook -> column index; a hybrid plan reads both stores at one
  // snapshot.
  uint64_t now_ms = 1000;
  TableCatalog catalog;
  Hlc hlc([&] { return now_ms; });
  RedoLog log;
  CountingPageStore store;
  BufferPool pool(&store);
  TxnEngine engine(1, &catalog, &hlc, &log, &pool);
  catalog.CreateTable(5, "t", TestSchema(), 0);

  RwRoReplication repl(&log);
  RoReplica ro(1);
  ro.MirrorTable(5, "t", TestSchema(), 0);
  repl.AddReplica(&ro);

  ColumnIndex idx(TestSchema());
  ro.applier()->SetCommitHook(
      [&](TxnId, Timestamp cts, const std::vector<RedoRecord>& ops) {
        idx.ApplyCommit(cts, ops);
      });

  TxnId txn = engine.Begin();
  ASSERT_TRUE(engine.Insert(txn, 5, {int64_t{1}, 5.5, std::string("a")}).ok());
  ASSERT_TRUE(engine.Insert(txn, 5, {int64_t{2}, 6.5, std::string("b")}).ok());
  auto cts = engine.CommitLocal(txn);
  ASSERT_TRUE(cts.ok());
  repl.SyncAll();

  EXPECT_EQ(idx.version(), *cts)
      << "column index trx_id/commit_ts consistent with InnoDB (§VI-E)";
  ColumnScanOp scan(&idx, *cts);
  auto rows = Collect(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
  // Row-store read at the same snapshot agrees (hybrid plan consistency).
  Row row;
  ASSERT_TRUE(ro.Read(5, EncodeKey({int64_t{1}}), &row, *cts).ok());
  EXPECT_DOUBLE_EQ(std::get<double>(row[1]), 5.5);
}

TEST(ColumnIndexTest, AbortedTxnNeverReachesIndex) {
  uint64_t now_ms = 1000;
  TableCatalog catalog;
  Hlc hlc([&] { return now_ms; });
  RedoLog log;
  CountingPageStore store;
  BufferPool pool(&store);
  TxnEngine engine(1, &catalog, &hlc, &log, &pool);
  catalog.CreateTable(5, "t", TestSchema(), 0);
  RwRoReplication repl(&log);
  RoReplica ro(1);
  ro.MirrorTable(5, "t", TestSchema(), 0);
  repl.AddReplica(&ro);
  ColumnIndex idx(TestSchema());
  ro.applier()->SetCommitHook(
      [&](TxnId, Timestamp cts, const std::vector<RedoRecord>& ops) {
        idx.ApplyCommit(cts, ops);
      });

  TxnId txn = engine.Begin();
  ASSERT_TRUE(engine.Insert(txn, 5, {int64_t{1}, 1.0, std::string("x")}).ok());
  ASSERT_TRUE(engine.Abort(txn).ok());
  log.MarkFlushed(log.current_lsn());
  repl.SyncAll();
  EXPECT_EQ(idx.total_versions(), 0u);
}

// ---- runtime-filter pushdown + column-native hash join (DESIGN.md §9) ----

std::string RowStr(const Row& r) {
  std::string s;
  for (const auto& v : r) {
    if (const auto* i = std::get_if<int64_t>(&v)) {
      s += "i" + std::to_string(*i);
    } else if (const auto* d = std::get_if<double>(&v)) {
      s += "d" + std::to_string(*d);
    } else if (const auto* t = std::get_if<std::string>(&v)) {
      s += "s" + *t;
    } else {
      s += "n";
    }
    s += "|";
  }
  return s;
}

std::multiset<std::string> RowSet(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const auto& r : rows) out.insert(RowStr(r));
  return out;
}

TEST(RuntimeFilterPushdownTest, SaturatedBloomHasNoFalseNegatives) {
  // Bloom sized for 4 keys but loaded with 2048: nearly every bit ends up
  // set and the false-positive rate approaches 1, yet every inserted key
  // must still pass — the FN-forbidden half of the §9 contract.
  BloomFilter bloom(4, kKeyHashSeed);
  for (int64_t i = 0; i < 2048; ++i) bloom.Add(Int64CellHash(i * 7919));
  for (int64_t i = 0; i < 2048; ++i) {
    EXPECT_TRUE(bloom.MightContain(Int64CellHash(i * 7919))) << i;
  }
}

TEST(RuntimeFilterPushdownTest, SaturatedFilterSelectionKeepsQualifyingRows) {
  ColumnIndex idx(TestSchema());
  std::vector<RedoRecord> ops;
  for (int64_t i = 0; i < 4096; ++i) ops.push_back(Ins(i, double(i), "t"));
  idx.ApplyCommit(100, ops);

  // Crafted high-FP filter: drastically undersized bloom holding every
  // 16th id. Filtering a selection with it (as ColumnHashJoinOp does) may
  // keep non-qualifying rows (false positives), but must never drop a
  // qualifying one.
  auto rf = std::make_shared<RuntimeFilter>();
  rf->bloom = BloomFilter(4, kKeyHashSeed);
  std::set<int64_t> qualifying;
  for (int64_t i = 0; i < 4096; i += 16) {
    qualifying.insert(i);
    rf->bloom.Add(RowKeyHash({Value{i}}, {0}));
  }
  rf->has_bounds = true;
  rf->min_key = 0;
  rf->max_key = 4080;
  rf->num_build_keys = qualifying.size();

  std::vector<uint32_t> selection;
  idx.BuildSelection(100, nullptr, &selection);
  uint64_t tested = 0, dropped = 0;
  idx.FilterSelection(*rf, {0}, &selection, &tested, &dropped);
  EXPECT_EQ(tested, 4096u);
  EXPECT_EQ(tested - dropped, selection.size());
  std::vector<Row> rows;
  idx.MaterializeBatch(selection, 0, selection.size(), {}, &rows);

  std::set<int64_t> seen;
  for (const auto& r : rows) seen.insert(std::get<int64_t>(r[0]));
  for (int64_t q : qualifying) {
    EXPECT_TRUE(seen.count(q)) << "bloom false negative dropped id " << q;
  }
  for (int64_t s : seen) {  // min/max bounds must also hold
    EXPECT_GE(s, rf->min_key);
    EXPECT_LE(s, rf->max_key);
  }
}

std::vector<Row> JoinBuildRows() {
  return {
      {int64_t{5}, std::string("b5a")},
      {int64_t{5}, std::string("b5b")},    // duplicate build key
      {int64_t{17}, std::string("b17")},
      {int64_t{999}, std::string("b999")},
      {int64_t{5000}, std::string("no-probe-match")},
      {Value{}, std::string("null-key")},  // NULL never matches a probe id
  };
}

TEST(ColumnHashJoinTest, MatchesRowHashJoinAcrossJoinTypes) {
  ColumnIndex idx(TestSchema());
  std::vector<RedoRecord> ops;
  for (int64_t i = 0; i < 1000; ++i) {
    ops.push_back(Ins(i, double(i % 7), "tag" + std::to_string(i % 3)));
  }
  idx.ApplyCommit(100, ops);

  auto probe_filter = [] {
    return Expr::ColCmp(CmpOp::kLt, 0, int64_t{500});
  };
  for (JoinType type :
       {JoinType::kInner, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    ColumnHashJoinOp col_join(
        &idx, 100, probe_filter(), /*projection=*/{0, 2},
        /*probe_keys=*/{0}, std::make_unique<ValuesOp>(JoinBuildRows()),
        /*build_keys=*/{0}, type, /*use_runtime_filter=*/true);
    auto col_rows = Collect(&col_join);
    ASSERT_TRUE(col_rows.ok()) << col_rows.status().ToString();

    HashJoinOp row_join(
        std::make_unique<ColumnScanOp>(&idx, 100, probe_filter(),
                                       std::vector<int>{0, 2}),
        std::make_unique<ValuesOp>(JoinBuildRows()), {0}, {0}, type);
    auto row_rows = Collect(&row_join);
    ASSERT_TRUE(row_rows.ok()) << row_rows.status().ToString();

    EXPECT_EQ(RowSet(*col_rows), RowSet(*row_rows))
        << "join type " << int(type);
  }

  // Spot-check the inner join shape: ids 5 (two build dups), 17, 999 match;
  // 999 is cut by the probe filter, so 2 + 1 = 3 output rows with build
  // columns appended.
  ColumnHashJoinOp inner(&idx, 100, probe_filter(), {0, 2}, {0},
                         std::make_unique<ValuesOp>(JoinBuildRows()), {0},
                         JoinType::kInner, true);
  auto rows = Collect(&inner);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  for (const auto& r : *rows) EXPECT_EQ(r.size(), 4u);

  // Double, short and long string, NULL and two-column probe keys, against
  // build cells of mixed types: int64 5 never matches double 5.0 or "5",
  // -0.0 (probe side only) never matches 0.0, NULL matches NULL, and a
  // long string only one side has never matches.
  const std::vector<Value> ints = {Value{}, int64_t{0}, int64_t{3},
                                   int64_t{5}, int64_t{12}};
  const std::vector<Value> doubles = {Value{}, 0.0, -0.0, 2.5, 5.0, 7.25};
  const std::vector<Value> strings = {
      Value{},           std::string(""),  std::string("a"),
      std::string("5"),  std::string("exactly8"),
      std::string("a long string key"),
      std::string("a long string only the probe side has")};
  ColumnIndex mixed(MixedSchema());
  std::vector<RedoRecord> mixed_ops;
  for (int64_t i = 0; i < 420; ++i) {
    mixed_ops.push_back(InsRow({i, ints[i % 5], Value{i}, doubles[i % 6],
                                Value{double(i)}, strings[i % 7],
                                Value{"t" + std::to_string(i)}}));
  }
  mixed.ApplyCommit(100, mixed_ops);
  const std::vector<Value> build_ints = {Value{}, int64_t{3}, int64_t{5},
                                         5.0, std::string("5")};
  const std::vector<Value> build_doubles = {Value{}, 0.0, 5.0, 7.25,
                                            int64_t{7}};
  const std::vector<Value> build_strings = {
      Value{}, std::string(""), std::string("5"), std::string("exactly8"),
      std::string("a long string key"),
      std::string("a long string only the build side has"), int64_t{1}};
  std::vector<Row> build;
  for (int64_t j = 0; j < 70; ++j) {
    build.push_back({build_ints[j % 5], build_doubles[(j * 3) % 5],
                     build_strings[(j * 5) % 7], int64_t{1000 + j}});
  }
  // Projection (id, a, x, s): probe key positions 1, 2, 3 of the output.
  const std::vector<int> projection = {0, 1, 3, 5};
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> keys = {
      {{1}, {0}}, {{2}, {1}}, {{3}, {2}}, {{1, 3}, {0, 2}}, {{3, 2}, {2, 1}}};
  for (const auto& [probe_keys, build_keys] : keys) {
    for (JoinType type :
         {JoinType::kInner, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
      HashJoinOp row_join(
          std::make_unique<ColumnScanOp>(&mixed, 100, nullptr, projection),
          std::make_unique<ValuesOp>(build), probe_keys, build_keys, type);
      auto want = Collect(&row_join);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      if (type == JoinType::kInner) {
        EXPECT_FALSE(want->empty());
      }
      for (bool rf : {true, false}) {
        ColumnHashJoinOp col_join(&mixed, 100, nullptr, projection,
                                  probe_keys, std::make_unique<ValuesOp>(build),
                                  build_keys, type, rf);
        auto got = Collect(&col_join);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(RowSet(*got), RowSet(*want))
            << "probe keys " << probe_keys.size() << " first "
            << probe_keys[0] << " type " << int(type) << " rf " << rf;
      }
    }
  }
}

TEST(ColumnHashJoinTest, RuntimeFilterFlagDoesNotChangeResults) {
  ColumnIndex idx(TestSchema());
  std::vector<RedoRecord> ops;
  for (int64_t i = 0; i < 2000; ++i) {
    ops.push_back(Ins(i, double(i), "x"));
  }
  idx.ApplyCommit(100, ops);
  std::vector<Row> expected_ids;
  for (bool rf : {true, false}) {
    ColumnHashJoinOp join(&idx, 100, nullptr, {0}, {0},
                          std::make_unique<ValuesOp>(JoinBuildRows()), {0},
                          JoinType::kLeftSemi, rf);
    auto rows = Collect(&join);
    ASSERT_TRUE(rows.ok());
    if (rf) {
      expected_ids = *rows;
      EXPECT_EQ(rows->size(), 3u);  // 5, 17, 999 present; 5000/NULL absent
    } else {
      EXPECT_EQ(RowSet(*rows), RowSet(expected_ids));
    }
  }
}

}  // namespace
}  // namespace polarx
