// The executor's one grouping table (§VI-C two-phase aggregation): group
// keys as 64-bit words in an open-addressed table that numbers each
// distinct key in first-insertion order. HashAggOp encodes the key values
// of each input row; ColumnAggOp, the first aggregation phase pushed into
// the column index (§VI-E), encodes its typed column arrays a column at a
// time into the same format.
//
// A key of n group columns is n value words followed by ceil(n / 32) tag
// words, which hold each column's 2-bit ValueType (column k at bit
// 2·(k % 32) of tag word k / 32). Value words:
//   NULL      0;
//   int64     the value;
//   double    its bits;
//   string    up to 7 bytes: the bytes, with the length in the top byte;
//             longer: a code from the table's dictionary for that column,
//             with the top bit set.
// Two keys therefore have equal words exactly when their EncodeKey
// encodings are equal: type-strict (int64 1, double 1.0 and "1" are three
// groups), doubles bit-exact (-0.0 and 0.0 are two), NULL equal to NULL.
// A key's hash is the HashCombine fold of its words, from kKeyHashSeed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/exec/runtime_filter.h"
#include "src/storage/value.h"

namespace polarx {

class KeyWordTable {
 public:
  explicit KeyWordTable(size_t ncols)
      : ncols_(ncols),
        width_(ncols + (ncols + 31) / 32),
        dicts_(ncols),
        slots_(1024, 0) {}

  /// Words per key.
  size_t width() const { return width_; }

  /// Records column `col`'s type in `key`'s tag words, which start zeroed.
  void SetTag(uint64_t* key, size_t col, ValueType type) const {
    key[ncols_ + col / 32] |= uint64_t(type) << (2 * (col % 32));
  }

  /// The value word of string `s` in column `col`.
  uint64_t StringWord(size_t col, std::string_view s) {
    if (s.size() < 8) {
      uint64_t word = uint64_t(s.size()) << 56;
      for (size_t b = 0; b < s.size(); ++b) {
        word |= uint64_t(uint8_t(s[b])) << (8 * b);
      }
      return word;
    }
    // Find before emplace: emplace allocates a node even for a known key.
    auto& dict = dicts_[col];
    auto it = dict.find(s);
    if (it == dict.end()) {
      it = dict.emplace(std::string(s), (uint64_t{1} << 63) | dict.size())
               .first;
    }
    return it->second;
  }

  /// Writes the key of the group values `values[0, ncols)` into `key`.
  void Encode(const Value* values, uint64_t* key) {
    std::fill(key, key + width_, 0);
    for (size_t c = 0; c < ncols_; ++c) {
      const Value& v = values[c];
      SetTag(key, c, TypeOf(v));
      if (const auto* i = std::get_if<int64_t>(&v)) {
        key[c] = uint64_t(*i);
      } else if (const auto* d = std::get_if<double>(&v)) {
        std::memcpy(&key[c], d, sizeof(*d));
      } else if (const auto* s = std::get_if<std::string>(&v)) {
        key[c] = StringWord(c, *s);
      }
    }
  }

  uint64_t Hash(const uint64_t* key) const {
    uint64_t h = kKeyHashSeed;
    for (size_t w = 0; w < width_; ++w) h = HashCombine(h, key[w]);
    return h;
  }

  /// The id of `key` (whose hash is `hash`), inserting it as the next id
  /// if it is new.
  uint32_t FindOrInsert(const uint64_t* key, uint64_t hash, bool* inserted) {
    const size_t mask = slots_.size() - 1;
    for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
      const uint32_t slot = slots_[pos];
      if (slot == 0) {
        const uint32_t id = uint32_t(hashes_.size());
        keys_.insert(keys_.end(), key, key + width_);
        hashes_.push_back(hash);
        slots_[pos] = id + 1;
        if (hashes_.size() * 2 > slots_.size()) Grow();
        *inserted = true;
        return id;
      }
      if (hashes_[slot - 1] == hash &&
          std::equal(key, key + width_, keys_.data() + (slot - 1) * width_)) {
        *inserted = false;
        return slot - 1;
      }
    }
  }

 private:
  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  void Grow() {
    std::vector<uint32_t> grown(slots_.size() * 2, 0);
    const size_t mask = grown.size() - 1;
    for (uint32_t id = 0; id < hashes_.size(); ++id) {
      size_t pos = hashes_[id] & mask;
      while (grown[pos] != 0) pos = (pos + 1) & mask;
      grown[pos] = id + 1;
    }
    slots_.swap(grown);
  }

  size_t ncols_;
  size_t width_;
  std::vector<std::unordered_map<std::string, uint64_t, ViewHash,
                                 std::equal_to<>>>
      dicts_;                     // per column: long string -> code
  std::vector<uint32_t> slots_;   // id + 1 per slot, 0 when empty
  std::vector<uint64_t> keys_;    // width_ words per id
  std::vector<uint64_t> hashes_;  // per id
};

}  // namespace polarx
