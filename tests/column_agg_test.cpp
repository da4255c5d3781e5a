// Unit tests for the pushed-down column aggregation (ColumnAggOp) and the
// vectorized expression evaluator, cross-checked against the row-at-a-time
// HashAggOp on identical data.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <thread>

#include "src/colindex/column_index.h"
#include "src/common/rng.h"
#include "src/exec/runtime_filter.h"
#include "src/storage/key_codec.h"

namespace polarx {
namespace {

Schema S() {
  return Schema({{"id", ValueType::kInt64, false},
                 {"grp", ValueType::kString, false},
                 {"qty", ValueType::kDouble, false},
                 {"price", ValueType::kDouble, false}},
                {0});
}

std::unique_ptr<ColumnIndex> MakeIndex(int n, Rng* rng) {
  std::vector<RedoRecord> ops;
  for (int64_t i = 0; i < n; ++i) {
    RedoRecord rec;
    rec.type = RedoType::kInsert;
    rec.key = EncodeKey({i});
    rec.row = {i, std::string(i % 3 == 0 ? "A" : "B"),
               double(rng->Uniform(50)), rng->NextDouble() * 100};
    ops.push_back(std::move(rec));
  }
  auto out = std::make_unique<ColumnIndex>(S());
  out->ApplyCommit(100, ops);
  return out;
}

std::vector<Row> SortRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return ValueToString(a[0]) < ValueToString(b[0]);
  });
  return rows;
}

TEST(ColumnAggTest, MatchesHashAggOnSameData) {
  Rng rng(31);
  auto idx_ptr = MakeIndex(5000, &rng);
  ColumnIndex& idx = *idx_ptr;
  auto filter = Expr::ColCmp(CmpOp::kLt, 2, 40.0);
  std::vector<AggSpec> aggs = {
      {AggOp::kCount, nullptr},
      {AggOp::kSum, Expr::Arith(ArithOp::kMul, Expr::Col(2), Expr::Col(3))},
      {AggOp::kAvg, Expr::Col(3)}};

  ColumnAggOp pushed(&idx, 100, filter, {1}, aggs);
  auto fast = Collect(&pushed);
  ASSERT_TRUE(fast.ok());

  HashAggOp reference(
      std::make_unique<ColumnScanOp>(&idx, 100, filter),
      std::vector<ExprPtr>{Expr::Col(1)}, aggs);
  auto slow = Collect(&reference);
  ASSERT_TRUE(slow.ok());

  auto a = SortRows(*fast);
  auto b = SortRows(*slow);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 2u);  // groups A, B
  for (size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(std::get<std::string>(a[g][0]), std::get<std::string>(b[g][0]));
    EXPECT_EQ(std::get<int64_t>(a[g][1]), std::get<int64_t>(b[g][1]));
    EXPECT_NEAR(std::get<double>(a[g][2]), std::get<double>(b[g][2]), 1e-6);
    EXPECT_NEAR(std::get<double>(a[g][3]), std::get<double>(b[g][3]), 1e-9);
  }
}

TEST(ColumnAggTest, PartialModeEmitsAvgAsSumCount) {
  Rng rng(7);
  auto idx_ptr = MakeIndex(100, &rng);
  ColumnIndex& idx = *idx_ptr;
  std::vector<AggSpec> aggs = {{AggOp::kAvg, Expr::Col(2)}};
  ColumnAggOp partial(&idx, 100, nullptr, {}, aggs, AggMode::kPartial);
  auto rows = Collect(&partial);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  ASSERT_EQ((*rows)[0].size(), 2u);  // sum, count
  EXPECT_EQ(std::get<int64_t>((*rows)[0][1]), 100);
}

TEST(ColumnAggTest, GlobalAggOnEmptySelectionYieldsZeroRow) {
  Rng rng(9);
  auto idx_ptr = MakeIndex(100, &rng);
  ColumnIndex& idx = *idx_ptr;
  auto filter = Expr::ColCmp(CmpOp::kGt, 2, 1e9);  // selects nothing
  ColumnAggOp agg(&idx, 100, filter, {}, {{AggOp::kCount, nullptr}});
  auto rows = Collect(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(std::get<int64_t>((*rows)[0][0]), 0);
}

TEST(ColumnAggTest, CaseExpressionVectorizes) {
  // The Q12/Q14-style CASE aggregate must produce correct sums.
  Rng rng(13);
  auto idx_ptr = MakeIndex(1000, &rng);
  ColumnIndex& idx = *idx_ptr;
  auto case_expr = Expr::Case(Expr::ColCmp(CmpOp::kEq, 1, std::string("A")),
                              Expr::Col(2), Expr::Lit(0.0));
  ColumnAggOp agg(&idx, 100, nullptr, {}, {{AggOp::kSum, case_expr}});
  auto rows = Collect(&agg);
  ASSERT_TRUE(rows.ok());
  double expected = 0;
  std::vector<uint32_t> sel;
  idx.BuildSelection(100, nullptr, &sel);
  for (uint32_t r : sel) {
    Row row = idx.MaterializeRow(r);
    if (std::get<std::string>(row[1]) == "A") {
      expected += std::get<double>(row[2]);
    }
  }
  EXPECT_NEAR(std::get<double>((*rows)[0][0]), expected, 1e-6);
}

// id0 (int64) s1 (string) d2 (double) i3 (int64) j4 (int64) t5 (string)
// v6 (double); all but id nullable.
Schema GroupSchema() {
  return Schema({{"id", ValueType::kInt64, false},
                 {"s", ValueType::kString, true},
                 {"d", ValueType::kDouble, true},
                 {"i", ValueType::kInt64, true},
                 {"j", ValueType::kInt64, true},
                 {"t", ValueType::kString, true},
                 {"v", ValueType::kDouble, true}},
                {0});
}

// Small domains so groups repeat: strings with "" and NULL, doubles with
// -0.0 and 0.0 (distinct groups: EncodeValue compares bits), int64 with
// NULL and 2^53 neighbours; v (the aggregated column) is NULL in 1 of 10.
std::unique_ptr<ColumnIndex> MakeGroupIndex(int n, Rng* rng) {
  const std::vector<Value> strs = {Value{std::string("A")},
                                   Value{std::string("B")},
                                   Value{std::string("")}, Value{}};
  const std::vector<Value> dbls = {Value{-0.0}, Value{0.0}, Value{1.5},
                                   Value{}};
  const int64_t big = int64_t{1} << 53;
  const std::vector<Value> ints = {Value{int64_t{0}}, Value{int64_t{-1}},
                                   Value{big}, Value{big + 1}, Value{}};
  auto pick = [&](const std::vector<Value>& from) {
    return from[rng->Uniform(from.size())];
  };
  std::vector<RedoRecord> ops;
  for (int64_t id = 0; id < n; ++id) {
    RedoRecord rec;
    rec.type = RedoType::kInsert;
    rec.key = EncodeKey({id});
    rec.row = {id,
               pick(strs),
               pick(dbls),
               pick(ints),
               Value{int64_t(rng->Uniform(3))},
               pick({Value{std::string("x")}, Value{std::string("y")}}),
               rng->Uniform(10) == 0 ? Value{} : Value{rng->NextDouble()}};
    ops.push_back(std::move(rec));
  }
  auto idx = std::make_unique<ColumnIndex>(GroupSchema());
  idx->ApplyCommit(100, ops);
  return idx;
}

// ColumnAggOp's groups are HashAggOp's groups over the same selection, for
// 1 to 6 group columns of every type, and come out in first-seen order.
TEST(ColumnAggTest, GroupsMatchHashAggAndComeInFirstSeenOrder) {
  Rng rng(41);
  auto idx = MakeGroupIndex(3000, &rng);
  // A residual conjunct (IS NULL / compare) in front of the aggregation.
  auto filter = [] {
    return Expr::And(Expr::ColCmp(CmpOp::kNe, 4, int64_t{2}),
                     Expr::Or(Expr::IsNull(Expr::Col(6)),
                              Expr::ColCmp(CmpOp::kGt, 6, 0.2)));
  };
  std::vector<AggSpec> aggs = {
      {AggOp::kCount, nullptr},
      {AggOp::kSum, Expr::Col(6)},
      {AggOp::kAvg, Expr::Col(6)},
      {AggOp::kCount, Expr::Col(1)},  // string: the row-at-a-time fallback
      {AggOp::kSum, Expr::Arith(ArithOp::kMul, Expr::Col(6), Expr::Lit(2.0))}};
  const std::vector<std::vector<int>> group_sets = {
      {1}, {2}, {3}, {1, 2}, {3, 1, 2}, {3, 1, 2, 4}, {1, 2, 3, 4, 5},
      {5, 4, 3, 2, 1, 0}};
  std::vector<uint32_t> sel;
  idx->BuildSelection(100, filter(), &sel);
  ASSERT_GT(sel.size(), 1000u);
  for (const auto& cols : group_sets) {
    ColumnAggOp pushed(idx.get(), 100, filter(), cols, aggs);
    auto fast = Collect(&pushed);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();

    std::vector<ExprPtr> group_by;
    for (int c : cols) group_by.push_back(Expr::Col(c));
    HashAggOp reference(std::make_unique<ColumnScanOp>(idx.get(), 100,
                                                       filter()),
                        std::move(group_by), aggs);
    auto slow = Collect(&reference);
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();

    // Group keys compare as EncodeValue does; aggregates to rounding.
    auto group_key = [&](const Row& row) {
      return EncodeKey(Row(row.begin(), row.begin() + cols.size()));
    };
    std::map<EncodedKey, Row> expected;
    for (const Row& row : *slow) expected[group_key(row)] = row;
    ASSERT_EQ(fast->size(), expected.size()) << cols.size() << " columns";
    for (const Row& row : *fast) {
      auto it = expected.find(group_key(row));
      ASSERT_NE(it, expected.end()) << "unexpected group";
      const Row& want = it->second;
      ASSERT_EQ(row.size(), want.size());
      for (size_t k = cols.size(); k < row.size(); ++k) {
        if (IsNull(want[k])) {
          EXPECT_TRUE(IsNull(row[k])) << "agg " << k;
        } else if (std::holds_alternative<int64_t>(want[k])) {
          EXPECT_EQ(std::get<int64_t>(row[k]), std::get<int64_t>(want[k]));
        } else {
          EXPECT_NEAR(std::get<double>(row[k]), std::get<double>(want[k]),
                      1e-9 * std::max(1.0, std::abs(std::get<double>(
                                               want[k]))));
        }
      }
    }

    // First-seen order over the selection.
    std::vector<EncodedKey> first_seen;
    std::set<EncodedKey> seen;
    for (uint32_t r : sel) {
      Row full = idx->MaterializeRow(r);
      Row group;
      for (int c : cols) group.push_back(full[c]);
      EncodedKey key = EncodeKey(group);
      if (seen.insert(key).second) first_seen.push_back(key);
    }
    std::vector<EncodedKey> emitted;
    for (const Row& row : *fast) emitted.push_back(group_key(row));
    EXPECT_EQ(emitted, first_seen) << cols.size() << " columns";
  }

  // -0.0 and 0.0 are two groups, as in HashAggOp.
  ColumnAggOp by_double(idx.get(), 100, nullptr, {2},
                        {{AggOp::kCount, nullptr}});
  auto rows = Collect(&by_double);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);  // -0.0, 0.0, 1.5, NULL

  // An empty selection: no groups with GROUP BY, one row without.
  auto none = Expr::ColCmp(CmpOp::kGt, 6, 2.0);
  ColumnAggOp grouped(idx.get(), 100, none, {1, 2},
                      {{AggOp::kCount, nullptr}});
  auto empty = Collect(&grouped);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  ColumnAggOp global(idx.get(), 100, none, {},
                     {{AggOp::kCount, nullptr}, {AggOp::kAvg, Expr::Col(6)}});
  auto one = Collect(&global);
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ(std::get<int64_t>((*one)[0][0]), 0);
  EXPECT_TRUE(IsNull((*one)[0][1]));
}

/// Each row's key encoding, which tells -0.0 from 0.0 where == does not.
std::vector<EncodedKey> Encoded(const std::vector<Row>& rows) {
  std::vector<EncodedKey> keys;
  for (const Row& row : rows) keys.push_back(EncodeKey(row));
  return keys;
}

/// ColumnAggOp's rows, and HashAggOp's over a ColumnScanOp of the same
/// selection, for `aggs` grouped by `cols`.
std::pair<std::vector<Row>, std::vector<Row>> BothAggregates(
    const ColumnIndex& idx, const ExprPtr& filter, const std::vector<int>& cols,
    const std::vector<AggSpec>& aggs, AggMode mode = AggMode::kComplete) {
  ColumnAggOp pushed(&idx, 100, filter, cols, aggs, mode);
  auto fast = Collect(&pushed);
  EXPECT_TRUE(fast.ok()) << fast.status().ToString();
  std::vector<ExprPtr> group_by;
  for (int c : cols) group_by.push_back(Expr::Col(c));
  HashAggOp reference(std::make_unique<ColumnScanOp>(&idx, 100, filter),
                      std::move(group_by), aggs, mode);
  auto slow = Collect(&reference);
  EXPECT_TRUE(slow.ok()) << slow.status().ToString();
  return {fast.ok() ? *fast : std::vector<Row>{},
          slow.ok() ? *slow : std::vector<Row>{}};
}

// Min/max fold int64 and double inputs into typed slots and other inputs
// into Values, and come out as HashAggOp's: the same values of the same
// types, NULL for a group whose inputs are all NULL, the first of -0.0 and
// 0.0. Both fold in selection order, so every cell is equal, sums too.
TEST(ColumnAggTest, MinMaxMatchesHashAgg) {
  Rng rng(43);
  auto idx = MakeGroupIndex(3000, &rng);
  auto late = Expr::Case(Expr::ColCmp(CmpOp::kGt, 6, 0.5), Expr::Col(3),
                         Expr::Lit(Value{}));
  auto product = Expr::Arith(ArithOp::kMul, Expr::Col(3), Expr::Col(4));
  const std::vector<AggSpec> aggs = {
      {AggOp::kMin, Expr::Col(3)},  // int64 with NULLs and 2^53 neighbours
      {AggOp::kMax, Expr::Col(3)},
      {AggOp::kMin, Expr::Col(2)},  // double with -0.0, 0.0 and NULLs
      {AggOp::kMax, Expr::Col(2)},
      {AggOp::kMin, Expr::Col(6)},
      {AggOp::kMax, Expr::Col(6)},
      {AggOp::kMin, late},  // CASE with a NULL branch, shared by min and max
      {AggOp::kMax, late},
      {AggOp::kMax, product},  // int64 arithmetic, max only
      {AggOp::kMin, Expr::Arith(ArithOp::kAdd, Expr::Col(3),
                                Expr::Col(4))},  // int64, min only
      {AggOp::kMin, Expr::Arith(ArithOp::kMul, Expr::Col(6),
                                Expr::Lit(2.0))},  // double, min only
      {AggOp::kMin, Expr::Col(1)},  // strings: Value slots
      {AggOp::kMax, Expr::Col(5)},
      {AggOp::kMin, Expr::Substr(Expr::Col(1), 0, 1)},  // computed string
      {AggOp::kSum, Expr::Contains(Expr::Col(5), "x")},  // no typed shape
      {AggOp::kSum,  // (d + 1) * v / 2: every arithmetic operator
       Expr::Arith(ArithOp::kDiv,
                   Expr::Arith(ArithOp::kMul,
                               Expr::Arith(ArithOp::kAdd, Expr::Col(2),
                                           Expr::Lit(1.0)),
                               Expr::Col(6)),
                   Expr::Lit(2.0))},
      {AggOp::kSum, Expr::Col(6)},
      {AggOp::kCount, late},
      {AggOp::kAvg, Expr::Col(6)},
      {AggOp::kCount, nullptr}};
  const auto filter = Expr::ColCmp(CmpOp::kNe, 4, int64_t{2});
  // {4}: the late CASE is NULL throughout no group; {3}: the int64 NULL
  // group's min/max of column 3 are NULL; {4, 3} and {}: more and fewer.
  for (const std::vector<int>& cols : std::vector<std::vector<int>>{
           {4}, {3}, {4, 3}, {}, {1, 2}}) {
    for (AggMode mode : {AggMode::kComplete, AggMode::kPartial}) {
      auto [fast, slow] = BothAggregates(*idx, filter, cols, aggs, mode);
      ASSERT_FALSE(fast.empty());
      EXPECT_EQ(fast, slow) << cols.size() << " columns";
      EXPECT_EQ(Encoded(fast), Encoded(slow)) << cols.size() << " columns";
    }
  }

  // A group whose inputs are all NULL: late is NULL unless column 6 > 0.5.
  auto none_late = Expr::ColCmp(CmpOp::kLe, 6, 0.5);
  auto [fast, slow] = BothAggregates(*idx, none_late, {4},
                                     {{AggOp::kMin, late}, {AggOp::kMax, late},
                                      {AggOp::kMin, Expr::Col(6)}});
  ASSERT_EQ(fast.size(), 3u);  // j = 0, 1, 2
  EXPECT_EQ(fast, slow);
  for (const Row& row : fast) {
    EXPECT_TRUE(IsNull(row[1]) && IsNull(row[2]));
    EXPECT_TRUE(std::holds_alternative<double>(row[3]));
  }

  // kPartial over two slices, merged by HashAggOp's kFinal, is the
  // complete aggregate: NULL partial extremes do not displace a value.
  std::vector<Row> partials;
  for (RowRange range : {RowRange{0, 1500}, RowRange{1500, RowRange::kToEnd}}) {
    ColumnAggOp part(idx.get(), 100, filter, {4}, aggs, AggMode::kPartial,
                     range);
    auto rows = Collect(&part);
    ASSERT_TRUE(rows.ok());
    partials.insert(partials.end(), rows->begin(), rows->end());
  }
  HashAggOp merged(std::make_unique<ValuesOp>(partials),
                   {Expr::Col(0)}, aggs, AggMode::kFinal);
  auto final_rows = Collect(&merged);
  ASSERT_TRUE(final_rows.ok());
  auto [complete, unused] = BothAggregates(*idx, filter, {4}, aggs);
  ASSERT_EQ(final_rows->size(), complete.size());
  for (size_t g = 0; g < complete.size(); ++g) {
    for (size_t c = 0; c < complete[g].size(); ++c) {
      if (c >= 15 && c <= 19 && c != 18) {  // sums and avg: partials added
        EXPECT_NEAR(std::get<double>((*final_rows)[g][c]),
                    std::get<double>(complete[g][c]), 1e-9);
      } else {
        EXPECT_EQ((*final_rows)[g][c], complete[g][c]) << "col " << c;
      }
    }
  }
}

/// A semi-join build of `keys`, one single-column row each.
JoinBuild KeyBuild(const std::vector<Row>& keys) {
  return JoinBuild(std::make_unique<ValuesOp>(keys));
}

// ColumnAggOp's semi-join keeps the rows ColumnHashJoinOp(kLeftSemi) keeps,
// in the same order, through the same probe: its aggregates equal
// HashAggOp's over that join, and the runtime-filter and probe counters
// are equal, with the filter on and off, for an int64 key (bounds + bloom)
// and a string + int64 key (bloom only).
TEST(ColumnAggTest, SemiJoinMatchesHashAggOverColumnHashJoin) {
  Rng rng(47);
  auto idx = MakeGroupIndex(4000, &rng);
  std::vector<Row> ids;  // every third id, a duplicate, and ids no row has
  for (int64_t id = 0; id < 6000; id += 3) ids.push_back({id});
  ids.push_back({int64_t{3}});
  std::vector<Row> pairs = {{std::string("A"), int64_t{0}},
                            {std::string("B"), int64_t{2}},
                            {std::string(""), int64_t{1}},
                            {std::string("C"), int64_t{1}}};
  struct Case {
    std::vector<Row> build;
    std::vector<int> probe_cols;
  };
  const std::vector<AggSpec> aggs = {
      {AggOp::kMin, Expr::Col(3)}, {AggOp::kMax, Expr::Col(6)},
      {AggOp::kSum, Expr::Col(6)}, {AggOp::kCount, nullptr},
      {AggOp::kMin, Expr::Col(5)}};
  const auto filter = Expr::ColCmp(CmpOp::kNe, 4, int64_t{1});
  for (const Case& c : {Case{ids, {0}}, Case{pairs, {1, 4}}}) {
    std::vector<int> build_keys(c.probe_cols.size());
    std::iota(build_keys.begin(), build_keys.end(), 0);
    for (bool rf : {true, false}) {
      ResetRuntimeFilterStats();
      ColumnAggOp pushed(idx.get(), 100, filter, {5, 4}, aggs,
                         AggMode::kComplete, {},
                         ColumnJoinProbe{KeyBuild(c.build), c.probe_cols,
                                         build_keys, rf});
      auto fast = Collect(&pushed);
      ASSERT_TRUE(fast.ok()) << fast.status().ToString();
      const RuntimeFilterStats fast_stats = ReadRuntimeFilterStats();

      ResetRuntimeFilterStats();
      HashAggOp reference(
          std::make_unique<ColumnHashJoinOp>(
              idx.get(), 100, filter, std::vector<int>{}, c.probe_cols,
              KeyBuild(c.build), build_keys, JoinType::kLeftSemi, rf),
          {Expr::Col(5), Expr::Col(4)}, aggs);
      auto slow = Collect(&reference);
      ASSERT_TRUE(slow.ok()) << slow.status().ToString();
      const RuntimeFilterStats slow_stats = ReadRuntimeFilterStats();

      ASSERT_FALSE(fast->empty());
      EXPECT_EQ(*fast, *slow) << "rf " << rf;
      EXPECT_EQ(fast_stats.scan_rows_tested, slow_stats.scan_rows_tested);
      EXPECT_EQ(fast_stats.scan_rows_dropped, slow_stats.scan_rows_dropped);
      EXPECT_EQ(fast_stats.join_probe_rows, slow_stats.join_probe_rows);
      EXPECT_GT(fast_stats.join_probe_rows, 0u);
      if (rf) {
        EXPECT_GT(fast_stats.scan_rows_dropped, 0u);
      } else {
        EXPECT_EQ(fast_stats.scan_rows_tested, 0u);
      }
    }
  }
}

// A live index takes commits while AP queries read it: ApplyCommit appends
// to (and reallocates) the column vectors a concurrent ColumnAggOp reads.
// Every read must hold the index lock; TSan reports one that does not. The
// reader's snapshot predates every commit, so its result never changes.
TEST(ColumnAggTest, AggregatesWhileCommitsAppend) {
  Rng rng(23);
  auto idx = MakeIndex(1000, &rng);
  const auto filter = Expr::ColCmp(CmpOp::kLt, 2, 40.0);
  auto cheap = Expr::Case(Expr::ColCmp(CmpOp::kLt, 3, 25.0), Expr::Col(0),
                          Expr::Lit(Value{}));
  const std::vector<AggSpec> aggs = {
      {AggOp::kCount, nullptr},
      {AggOp::kSum, Expr::Arith(ArithOp::kMul, Expr::Col(2), Expr::Col(3))},
      {AggOp::kMin, Expr::Col(0)},
      {AggOp::kMax, Expr::Col(3)},
      {AggOp::kMin, cheap},
      {AggOp::kMax, cheap},
      {AggOp::kMax, Expr::Col(1)}};
  std::vector<Row> odd_ids;
  for (int64_t id = 1; id < 1000; id += 2) odd_ids.push_back({id});
  auto semi_join = [&] {
    return ColumnJoinProbe{JoinBuild(std::make_unique<ValuesOp>(odd_ids)),
                           {0}, {0}, true};
  };
  ColumnAggOp first(idx.get(), 100, filter, {1}, aggs);
  auto want = Collect(&first);
  ASSERT_TRUE(want.ok());
  ColumnAggOp first_semi(idx.get(), 100, filter, {1}, aggs,
                         AggMode::kComplete, {}, semi_join());
  auto want_semi = Collect(&first_semi);
  ASSERT_TRUE(want_semi.ok());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int64_t i = 1000; i < 20000; ++i) {
      RedoRecord rec;
      rec.type = RedoType::kInsert;
      rec.key = EncodeKey({i});
      rec.row = {i, std::string(i % 2 == 0 ? "A" : "B"), double(i % 50),
                 1.0};
      idx->ApplyCommit(100 + Timestamp(i), {rec});
    }
    done = true;
  });
  // No ASSERT in the loop: returning early would leave `writer` joinable.
  do {
    ColumnAggOp agg(idx.get(), 100, filter, {1}, aggs);
    auto got = Collect(&agg);
    EXPECT_TRUE(got.ok() && *got == *want);
    ColumnAggOp semi(idx.get(), 100, filter, {1}, aggs, AggMode::kComplete,
                     {}, semi_join());
    auto got_semi = Collect(&semi);
    EXPECT_TRUE(got_semi.ok() && *got_semi == *want_semi);
    std::vector<uint32_t> sel;
    idx->BuildSelection(100, nullptr, &sel);
    std::vector<uint8_t> mask;
    EXPECT_TRUE(idx->EvalBoolVector(*filter, sel, &mask));
  } while (!done.load());
  writer.join();
  EXPECT_EQ(idx->total_versions(), 20000u);
}

}  // namespace
}  // namespace polarx
