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
//
// This header also defines the executor's one key hash, RowKeyHash: the
// fold of type-tagged cell hashes that join and group tables
// (KeyWordTable), bloom filters and Exchange buckets share, so a join's
// build hashes each row once for its table and its filter.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/storage/value.h"

namespace polarx {

/// splitmix64 finalizer: cheap, well-distributed 64-bit mixing.
constexpr uint64_t MixHash64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Type-tagged cell hashing. The tags keep int64/double/string/null hash
// spaces disjoint, mirroring the type-strict key equality of every hash
// join and group (an int64 and a double are never the same key, so they
// must not alias here either).
inline constexpr uint64_t kHashTagNull = 0x6b4f1d2c9a8e7035ULL;
inline constexpr uint64_t kHashTagInt = 0x2545f4914f6cdd1dULL;
inline constexpr uint64_t kHashTagDouble = 0x9e6c63d0876a9a4bULL;
inline constexpr uint64_t kHashTagString = 0xc3a5c85c97cb3127ULL;

inline constexpr uint64_t kNullCellHash = MixHash64(kHashTagNull);

inline uint64_t Int64CellHash(int64_t v) {
  return MixHash64(static_cast<uint64_t>(v) ^ kHashTagInt);
}

/// Hashes the bits, so -0.0 and 0.0 differ, as they do as keys.
inline uint64_t DoubleCellHash(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return MixHash64(bits ^ kHashTagDouble);
}

/// The bytes eight at a time, folded with MixHash64 from the string tag;
/// the last word holds the remaining bytes and the length in its top byte.
inline uint64_t StringCellHash(std::string_view s) {
  uint64_t h = kHashTagString;
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, s.data() + i, sizeof(word));
    h = MixHash64(h ^ word);
  }
  uint64_t last = uint64_t(s.size()) << 56;
  for (size_t b = i; b < s.size(); ++b) {
    last |= uint64_t(uint8_t(s[b])) << (8 * (b - i));
  }
  return MixHash64(h ^ last);
}

/// Hash of one Value cell: the typed hash above for its type, so the row
/// path (Value cells) and the column path (raw typed arrays) agree.
uint64_t CellHash(const Value& v);

inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  return MixHash64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

inline constexpr uint64_t kKeyHashSeed = 0x8f3a91c24b77d2e5ULL;

/// The executor's key hash: the HashCombine fold of the CellHash of `cols`
/// of `row`, from kKeyHashSeed. Join and group tables (KeyWordTable), bloom
/// filters and Exchange buckets all use it.
uint64_t RowKeyHash(const Row& row, const std::vector<int>& cols);

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
  bool operator==(const BloomFilter&) const = default;

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

  /// Adds a build key by its RowKeyHash. `int_key` is the key's value when
  /// it is a single int64 column, else null, which disables the bounds.
  void AddKey(uint64_t key_hash, const int64_t* int_key);
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
