// Unit tests for the runtime-filter layer (DESIGN.md §9): the seeded bloom
// filter, the cell/row key hashing shared by the row and column join paths,
// min/max bounds, the build-side filter builder, and the ablation counters.
#include <gtest/gtest.h>

#include "src/exec/runtime_filter.h"

namespace polarx {
namespace {

TEST(BloomFilterTest, NoFalseNegativesOverManyKeys) {
  BloomFilter bloom(50000, kKeyHashSeed);
  for (int64_t i = 0; i < 50000; ++i) bloom.Add(Int64CellHash(i));
  for (int64_t i = 0; i < 50000; ++i) {
    ASSERT_TRUE(bloom.MightContain(Int64CellHash(i))) << i;
  }
}

TEST(BloomFilterTest, DeterministicForSeedAndKeySet) {
  BloomFilter a(1000, 42), b(1000, 42), other_seed(1000, 43);
  for (int64_t i = 0; i < 1000; ++i) {
    a.Add(Int64CellHash(i * 3));
    b.Add(Int64CellHash(i * 3));
    other_seed.Add(Int64CellHash(i * 3));
  }
  bool seeds_differ_somewhere = false;
  for (int64_t i = 0; i < 20000; ++i) {
    uint64_t h = Int64CellHash(1000000 + i);
    EXPECT_EQ(a.MightContain(h), b.MightContain(h))
        << "same (seed, keys) must answer identically";
    seeds_differ_somewhere |=
        a.MightContain(h) != other_seed.MightContain(h);
  }
  EXPECT_TRUE(seeds_differ_somewhere)
      << "different seeds should disagree on some absent keys";
}

TEST(BloomFilterTest, FalsePositiveRateIsSmallWhenSizedRight) {
  BloomFilter bloom(4096, kKeyHashSeed);
  for (int64_t i = 0; i < 4096; ++i) bloom.Add(Int64CellHash(i));
  int fp = 0;
  const int probes = 100000;
  for (int64_t i = 0; i < probes; ++i) {
    if (bloom.MightContain(Int64CellHash(1000000 + i))) ++fp;
  }
  // ~10 bits/key with 6 probes gives well under 2% FP; allow slack.
  EXPECT_LT(double(fp) / probes, 0.05);
}

TEST(BloomFilterTest, DefaultPassesAllSizedEmptyPassesNone) {
  BloomFilter unknown;  // no information: must not drop anything
  EXPECT_TRUE(unknown.MightContain(Int64CellHash(7)));
  BloomFilter empty(16, kKeyHashSeed);  // zero keys added: nothing matches
  EXPECT_FALSE(empty.MightContain(Int64CellHash(7)));
}

TEST(CellHashTest, TypesNeverAlias) {
  // int64 5, double 5.0, string "5", and NULL must occupy disjoint hash
  // values (their memcomparable encodings differ, so they are not one key),
  // and so must the two zeros.
  Value i = int64_t{5}, d = 5.0, s = std::string("5"), n = Value{};
  EXPECT_NE(CellHash(i), CellHash(d));
  EXPECT_NE(CellHash(i), CellHash(s));
  EXPECT_NE(CellHash(i), CellHash(n));
  EXPECT_NE(CellHash(d), CellHash(s));
  EXPECT_NE(CellHash(0.0), CellHash(-0.0));
  EXPECT_EQ(CellHash(n), kNullCellHash);
}

TEST(RuntimeFilterTest, BoundsRejectBeforeBloom) {
  RuntimeFilter rf;
  rf.bloom = BloomFilter(16, kKeyHashSeed);
  for (int64_t k : {100, 150, 200}) {
    rf.bloom.Add(RowKeyHash({Value{k}}, {0}));
  }
  rf.has_bounds = true;
  rf.min_key = 100;
  rf.max_key = 200;
  EXPECT_TRUE(rf.TestKey(150, RowKeyHash({Value{int64_t{150}}}, {0})));
  // Outside the bounds: rejected even if the bloom were saturated.
  EXPECT_FALSE(rf.TestKey(99, RowKeyHash({Value{int64_t{99}}}, {0})));
  EXPECT_FALSE(rf.TestKey(201, RowKeyHash({Value{int64_t{201}}}, {0})));
  // Inside the bounds but not in the key set: the bloom decides.
  EXPECT_FALSE(rf.TestRow({Value{int64_t{137}}}, {0}));
  EXPECT_TRUE(rf.TestRow({Value{int64_t{200}}}, {0}));
}

TEST(RuntimeFilterBuilderTest, SingleIntKeysGetBounds) {
  RuntimeFilterBuilder builder(8, kKeyHashSeed);
  for (int64_t k : {42, -7, 300}) {
    builder.AddKey(RowKeyHash({Value{k}}, {0}), &k);
  }
  auto rf = builder.Finish();
  EXPECT_TRUE(rf->has_bounds);
  EXPECT_EQ(rf->min_key, -7);
  EXPECT_EQ(rf->max_key, 300);
  EXPECT_EQ(rf->num_build_keys, 3u);
  EXPECT_TRUE(rf->TestRow({Value{int64_t{42}}}, {0}));
  EXPECT_FALSE(rf->TestRow({Value{int64_t{1000}}}, {0}));
}

TEST(RuntimeFilterBuilderTest, BoundsDisabledWhenNotPureInt64) {
  // String key: no bounds, bloom still exact for inserted keys.
  RuntimeFilterBuilder strings(8, kKeyHashSeed);
  strings.AddKey(RowKeyHash({Value{std::string("x")}}, {0}), nullptr);
  auto rf_s = strings.Finish();
  EXPECT_FALSE(rf_s->has_bounds);
  EXPECT_TRUE(rf_s->TestRow({Value{std::string("x")}}, {0}));

  // Multi-column key: no bounds.
  RuntimeFilterBuilder multi(8, kKeyHashSeed);
  multi.AddKey(RowKeyHash({Value{int64_t{1}}, Value{int64_t{2}}}, {0, 1}),
               nullptr);
  EXPECT_FALSE(multi.Finish()->has_bounds);

  // A NULL among int64 keys: bounds must be dropped (the NULL carries no
  // order), but the NULL key itself must still pass the bloom.
  RuntimeFilterBuilder with_null(8, kKeyHashSeed);
  const int64_t five = 5;
  with_null.AddKey(RowKeyHash({Value{five}}, {0}), &five);
  with_null.AddKey(RowKeyHash({Value{}}, {0}), nullptr);
  auto rf_n = with_null.Finish();
  EXPECT_FALSE(rf_n->has_bounds);
  EXPECT_TRUE(rf_n->TestRow({Value{}}, {0}));
  EXPECT_TRUE(rf_n->TestRow({Value{int64_t{5}}}, {0}));
}

TEST(RuntimeFilterStatsTest, CountersAccumulateAndReset) {
  ResetRuntimeFilterStats();
  AddScanFilterStats(100, 40);
  AddScanFilterStats(50, 0);
  AddJoinProbeRows(60);
  RuntimeFilterStats s = ReadRuntimeFilterStats();
  EXPECT_EQ(s.scan_rows_tested, 150u);
  EXPECT_EQ(s.scan_rows_dropped, 40u);
  EXPECT_EQ(s.join_probe_rows, 60u);
  ResetRuntimeFilterStats();
  s = ReadRuntimeFilterStats();
  EXPECT_EQ(s.scan_rows_tested, 0u);
  EXPECT_EQ(s.join_probe_rows, 0u);
}

}  // namespace
}  // namespace polarx
