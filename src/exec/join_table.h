// The build side of a hash join (§VI-C), shared by the row-store
// HashJoinOp and the column index's ColumnHashJoinOp: the build rows in
// build order, a KeyWordTable that numbers their distinct keys, and, for
// inner/semi joins, the runtime filter summarizing those keys. Each key id
// keeps its first build row and each row links to the next row with the
// same key, so a probe walks exactly its matches, in build order, with no
// candidate to verify.
//
// A table is built at most once and is read-only afterwards, so one table
// can serve many probers. The MPP plan builder hands the same table to the
// join of every task of a broadcast join site (DESIGN.md §9): the first task
// to open the join drains its build child into the table while the other
// tasks wait, then all of them probe it concurrently without locks.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/exec/key_word_table.h"
#include "src/exec/runtime_filter.h"
#include "src/storage/value.h"

namespace polarx {

class Operator;

class JoinHashTable {
 public:
  static constexpr uint32_t kNoRow = UINT32_MAX;

  /// Drains `build` (Open, Next until empty, Close) into the table on the
  /// first call; every other call, from any thread, waits for that build
  /// and returns its Status without touching its own `build`. A failed
  /// build's Status is kept and returned to every caller. `with_filter`
  /// also summarizes the `build_keys` of every row into a runtime filter
  /// whose bloom is sized for `filter_keys` keys (0 = the build row count).
  Status Build(Operator* build, const std::vector<int>& build_keys,
               bool with_filter, size_t filter_keys = 0);

  // ---- read-only after Build() returned Ok ----

  const Row& row(uint32_t i) const { return rows_[i]; }
  size_t size() const { return rows_.size(); }

  /// The runtime filter, or null when the build did not ask for one.
  const std::shared_ptr<const RuntimeFilter>& filter() const {
    return filter_;
  }

  /// The build keys' table. A probe encodes its key with keys().EncodeProbe
  /// (or ColumnIndex::EncodeKeys) and walks its matching build rows in
  /// build order: `for (i = First(key, h); i != kNoRow; i = Next(i))`.
  const KeyWordTable& keys() const { return keys_; }
  uint32_t First(const uint64_t* key, uint64_t hash) const {
    const uint32_t id = keys_.Find(key, hash);
    return id == KeyWordTable::kNotFound ? kNoRow : first_[id];
  }
  uint32_t Next(uint32_t i) const { return next_[i]; }

 private:
  Status Fill(Operator* build, const std::vector<int>& build_keys,
              bool with_filter, size_t filter_keys);

  std::once_flag once_;
  Status status_;
  std::vector<Row> rows_;
  KeyWordTable keys_{0};
  std::vector<uint32_t> first_;  // first build row of each key id
  std::vector<uint32_t> next_;   // next build row with the same key, or kNoRow
  std::shared_ptr<const RuntimeFilter> filter_;
};

}  // namespace polarx
