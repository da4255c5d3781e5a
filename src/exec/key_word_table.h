// The executor's one key table, for grouping and join keys alike (§VI-C
// hash joins and two-phase aggregation): keys as 64-bit words in an
// open-addressed table that numbers each distinct key in first-insertion
// order. HashAggOp and JoinHashTable encode the key cells of each row;
// the column index (§VI-E) encodes its typed column arrays a column at a
// time into the same words (ColumnIndex::EncodeKeys).
//
// A key of n columns is n value words followed by ceil(n / 32) tag words,
// which hold each column's 2-bit ValueType (column k at bit 2·(k % 32) of
// tag word k / 32). Value words:
//   NULL      0;
//   int64     the value;
//   double    its bits;
//   string    up to 7 bytes: the bytes, with the length in the top byte;
//             longer: a code from the table's dictionary for that column,
//             with the top bit set.
// Two keys therefore have equal words exactly when their EncodeKey
// encodings are equal: type-strict (int64 1, double 1.0 and "1" are three
// keys), doubles bit-exact (-0.0 and 0.0 are two), NULL equal to NULL, and
// a key of no columns equal to every other (a cross join).
//
// Encoding a key also returns its hash, which is RowKeyHash: the hash of
// bloom filters and Exchange buckets, so one hash per row serves all three.
//
// A probe encodes with the const calls (EncodeProbe, ProbeStringWord) and
// looks up with Find: a long string missing from the dictionary gets a
// word no key holds, so the probe misses without writing to the table, and
// many threads may probe one table at once.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/exec/runtime_filter.h"
#include "src/storage/value.h"

namespace polarx {

class KeyWordTable {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  /// `expected_keys` sizes the table so that that many keys fit without
  /// growing it.
  explicit KeyWordTable(size_t ncols, size_t expected_keys = 0)
      : ncols_(ncols),
        width_(ncols + (ncols + 31) / 32),
        dicts_(ncols),
        slots_(std::bit_ceil(std::max<size_t>(1024, 2 * expected_keys)), 0) {
    entries_.reserve(expected_keys * (width_ + 1));
  }

  /// Words per key.
  size_t width() const { return width_; }

  /// Records column `col`'s type in `key`'s tag words, which start zeroed.
  void SetTag(uint64_t* key, size_t col, ValueType type) const {
    key[ncols_ + col / 32] |= uint64_t(type) << (2 * (col % 32));
  }

  /// The value word of string `s` in column `col` for a probe: a long
  /// string missing from the dictionary gets kAbsentWord, which is no code,
  /// so no key of the table holds it.
  uint64_t ProbeStringWord(size_t col, std::string_view s) const {
    if (s.size() < 8) return ShortWord(s);
    auto it = dicts_[col].find(s);
    return it == dicts_[col].end() ? kAbsentWord : it->second;
  }
  /// ProbeStringWord that adds a missing long string to the dictionary.
  /// (Finding first spares the node emplace allocates even for a known key.)
  uint64_t StringWord(size_t col, std::string_view s) {
    const uint64_t word = ProbeStringWord(col, s);
    if (word != kAbsentWord) return word;
    auto& dict = dicts_[col];
    return dict.emplace(std::string(s), (uint64_t{1} << 63) | dict.size())
        .first->second;
  }

  /// Writes the key of `cols` of `row` into `key` and returns its hash,
  /// RowKeyHash(row, cols).
  uint64_t Encode(const Row& row, const std::vector<int>& cols,
                  uint64_t* key) {
    return EncodeRow(*this, row, cols, key);
  }
  /// Encode for a probe, which leaves the table unchanged.
  uint64_t EncodeProbe(const Row& row, const std::vector<int>& cols,
                       uint64_t* key) const {
    return EncodeRow(*this, row, cols, key);
  }

  /// The id of `key` (whose hash is `hash`), inserting it as the next id
  /// if it is new.
  uint32_t FindOrInsert(const uint64_t* key, uint64_t hash, bool* inserted) {
    const size_t pos = Probe(key, hash);
    *inserted = slots_[pos] == 0;
    if (!*inserted) return slots_[pos] - 1;
    const uint32_t id = uint32_t(size_);
    entries_.push_back(hash);
    for (size_t w = 0; w < width_; ++w) entries_.push_back(key[w]);
    slots_[pos] = id + 1;
    if (++size_ * 2 > slots_.size()) Grow();
    return id;
  }

  /// The id of `key` (whose hash is `hash`), or kNotFound.
  uint32_t Find(const uint64_t* key, uint64_t hash) const {
    return slots_[Probe(key, hash)] - 1;  // an empty slot gives kNotFound
  }

 private:
  static constexpr uint64_t kAbsentWord = ~uint64_t{0};

  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  static uint64_t ShortWord(std::string_view s) {
    uint64_t word = uint64_t(s.size()) << 56;
    for (size_t b = 0; b < s.size(); ++b) {
      word |= uint64_t(uint8_t(s[b])) << (8 * b);
    }
    return word;
  }

  /// `self` is const for a probe. The tags of up to 32 columns collect in
  /// a register and are stored once: zeroing the tag words and OR-ing each
  /// column into memory made encoding a row ~1.5x slower.
  template <typename Self>
  static uint64_t EncodeRow(Self& self, const Row& row,
                            const std::vector<int>& cols, uint64_t* key) {
    uint64_t h = kKeyHashSeed, tags = 0;
    for (size_t c = 0; c < cols.size(); ++c) {
      const Value& v = row[cols[c]];
      uint64_t word = 0, cell = kNullCellHash;
      if (const auto* i = std::get_if<int64_t>(&v)) {
        word = uint64_t(*i);
        cell = Int64CellHash(*i);
      } else if (const auto* d = std::get_if<double>(&v)) {
        std::memcpy(&word, d, sizeof(word));
        cell = DoubleCellHash(*d);
      } else if (const auto* s = std::get_if<std::string>(&v)) {
        if constexpr (std::is_const_v<Self>) {
          word = self.ProbeStringWord(c, *s);
        } else {
          word = self.StringWord(c, *s);
        }
        cell = StringCellHash(*s);
      }
      key[c] = word;
      h = HashCombine(h, cell);
      tags |= uint64_t(TypeOf(v)) << (2 * (c % 32));
      if (c % 32 == 31 || c + 1 == cols.size()) {
        key[self.ncols_ + c / 32] = tags;
        tags = 0;
      }
    }
    return h;
  }

  /// The slot holding `key`, or the empty slot where it would go.
  size_t Probe(const uint64_t* key, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
      const uint32_t slot = slots_[pos];
      if (slot == 0) return pos;
      const uint64_t* entry = &entries_[(slot - 1) * (width_ + 1)];
      if (entry[0] != hash) continue;
      // A loop: std::equal calls memcmp, which costs a probe ~30%.
      size_t w = 0;
      while (w < width_ && key[w] == entry[1 + w]) ++w;
      if (w == width_) return pos;
    }
  }

  void Grow() {
    std::vector<uint32_t> grown(slots_.size() * 2, 0);
    const size_t mask = grown.size() - 1;
    for (uint32_t id = 0; id < size_; ++id) {
      size_t pos = entries_[id * (width_ + 1)] & mask;
      while (grown[pos] != 0) pos = (pos + 1) & mask;
      grown[pos] = id + 1;
    }
    slots_.swap(grown);
  }

  size_t ncols_;
  size_t width_;
  std::vector<std::unordered_map<std::string, uint64_t, ViewHash,
                                 std::equal_to<>>>
      dicts_;                      // per column: long string -> code
  std::vector<uint32_t> slots_;    // id + 1 per slot, 0 when empty
  std::vector<uint64_t> entries_;  // per id: its hash, then its width_ words
  size_t size_ = 0;                // ids
};

}  // namespace polarx
