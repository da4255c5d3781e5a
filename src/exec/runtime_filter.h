// Runtime filters for hash joins (§VI-B push-down + §VI-E column engine;
// the PolarDB-IMCI recipe): the build side of a join summarizes its join
// keys into a seeded bloom filter plus min/max bounds, and the summary is
// pushed down into the probe-side scan — row store or column index — so
// non-qualifying tuples are dropped at the scan instead of being shuffled
// into the join.
//
// Contract (DESIGN.md §9): false positives are allowed, false negatives are
// forbidden. A filter only ever shrinks intermediate row sets of an
// inner/semi join probe side, so plan results are bit-identical with
// filters on or off; `tpch_test` asserts this for all 22 queries.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/value.h"

namespace polarx {

/// splitmix64 finalizer: cheap, well-distributed 64-bit mixing.
inline uint64_t MixHash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Type-tagged cell hashing. The tags keep int64/double/string/null hash
// spaces disjoint, mirroring the type-strict key equality (CellEquals)
// every hash join verifies matches with (an int64 and a double never
// compare equal there, so they must not alias here either).
inline constexpr uint64_t kHashTagNull = 0x6b4f1d2c9a8e7035ULL;
inline constexpr uint64_t kHashTagInt = 0x2545f4914f6cdd1dULL;
inline constexpr uint64_t kHashTagDouble = 0x9e6c63d0876a9a4bULL;
inline constexpr uint64_t kHashTagString = 0xc3a5c85c97cb3127ULL;

inline uint64_t Int64CellHash(int64_t v) {
  return MixHash64(static_cast<uint64_t>(v) ^ kHashTagInt);
}

/// Hash of one Value cell, consistent between the row path (Value cells)
/// and the vectorized column path (raw typed arrays).
uint64_t CellHash(const Value& v);

inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  return MixHash64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

inline constexpr uint64_t kKeyHashSeed = 0x8f3a91c24b77d2e5ULL;

/// Join-key hash of `cols` of `row` (seeded fold of per-cell hashes).
uint64_t RowKeyHash(const Row& row, const std::vector<int>& cols);

/// Cell equality with the row-side join semantics: type-strict (int64 5
/// never equals double 5.0), NULL == NULL, doubles bit-exact — exactly the
/// pairs whose memcomparable encodings are equal.
bool CellEquals(const Value& a, const Value& b);

/// Seeded blocked-free bloom filter sized at ~10 bits/key (power-of-two
/// bit count), probed with double hashing. Deterministic for a given
/// (seed, key set).
class BloomFilter {
 public:
  BloomFilter() = default;
  BloomFilter(size_t expected_keys, uint64_t seed);

  void Add(uint64_t key_hash);
  /// May return true for absent keys (false positive), never false for a
  /// key that was Add()ed. A default-constructed filter passes everything;
  /// a sized filter with zero keys passes nothing.
  bool MightContain(uint64_t key_hash) const;

  size_t bit_count() const { return words_.size() * 64; }

 private:
  std::vector<uint64_t> words_;
  uint64_t bit_mask_ = 0;
  uint64_t seed_ = 0;
  int num_probes_ = 6;
};

/// The build side's summary, pushed into probe scans. Bounds are tracked
/// only for single-column int64 join keys (the common PK/FK shape).
struct RuntimeFilter {
  BloomFilter bloom;
  bool has_bounds = false;
  int64_t min_key = 0;
  int64_t max_key = 0;
  size_t num_build_keys = 0;

  bool TestHash(uint64_t key_hash) const {
    return bloom.MightContain(key_hash);
  }
  /// Single-int64-key test: bounds first, then bloom.
  bool TestKey(int64_t key, uint64_t key_hash) const {
    if (has_bounds && (key < min_key || key > max_key)) return false;
    return bloom.MightContain(key_hash);
  }
  /// Row test used by the row-store scan (keys are `cols` of `row`).
  bool TestRow(const Row& row, const std::vector<int>& cols) const;
};

/// Accumulates build-side keys into a RuntimeFilter.
class RuntimeFilterBuilder {
 public:
  RuntimeFilterBuilder(size_t expected_keys, uint64_t seed);

  void AddKey(const Row& row, const std::vector<int>& cols);
  std::shared_ptr<const RuntimeFilter> Finish();

 private:
  std::shared_ptr<RuntimeFilter> filter_;
  bool single_int_key_ = true;
};

/// Plumbing between a join and its probe-side scan within one fragment
/// plan: the planner wires the same slot into both; the join's Open()
/// publishes `filter` after its build side is complete and before opening
/// the probe child, so the scan sees it on its own Open()/Next(). Each
/// fragment has its own slot, but the filter it publishes may be the one
/// of a build table shared by all MPP tasks (JoinHashTable): a filter is
/// read-only after publish, so any number of scans may test it at once.
struct RuntimeFilterSlot {
  /// Join-key positions in the target scan's *output* (projected) row.
  std::vector<int> key_cols;
  std::shared_ptr<const RuntimeFilter> filter;  // null until build completes
};

/// Implemented by scan operators that can apply a pushed-down runtime
/// filter (TableScanOp, ColumnScanOp).
class RuntimeFilterTarget {
 public:
  virtual ~RuntimeFilterTarget() = default;
  virtual void SetRuntimeFilter(std::shared_ptr<RuntimeFilterSlot> slot) = 0;
};

/// Process-global ablation counters (reset/read around a measured run;
/// relaxed atomics, flushed once per batch on the hot paths).
struct RuntimeFilterStats {
  uint64_t scan_rows_tested = 0;   // rows a scan tested against a filter
  uint64_t scan_rows_dropped = 0;  // rows the filter pruned at the scan
  uint64_t join_probe_rows = 0;    // rows reaching a hash-join probe
};

void ResetRuntimeFilterStats();
RuntimeFilterStats ReadRuntimeFilterStats();
void AddScanFilterStats(uint64_t tested, uint64_t dropped);
void AddJoinProbeRows(uint64_t rows);

}  // namespace polarx
