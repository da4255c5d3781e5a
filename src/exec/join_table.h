// The build side of a hash join (§VI-C), shared by the row-store
// HashJoinOp and the column index's ColumnHashJoinOp: the build rows, a
// RowKeyHash -> row-index chain table over them and, for inner/semi joins,
// the runtime filter summarizing their keys.
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

  const std::vector<int>& build_keys() const { return build_keys_; }
  const Row& row(uint32_t i) const { return rows_[i]; }
  size_t size() const { return rows_.size(); }

  /// The runtime filter, or null when the build did not ask for one.
  const std::shared_ptr<const RuntimeFilter>& filter() const {
    return filter_;
  }

  /// Build rows whose key hash equals `hash`, in build order: iterate
  /// `for (i = First(h); i != kNoRow; i = Next(i, h))`. Equal hashes do
  /// not imply equal keys; callers verify each candidate with CellEquals
  /// (KeyEquals does it for row probes).
  uint32_t First(uint64_t hash) const {
    return Skip(heads_.empty() ? kNoRow : heads_[hash & mask_], hash);
  }
  uint32_t Next(uint32_t i, uint64_t hash) const {
    return Skip(next_[i], hash);
  }

  /// Join-key equality of `probe_keys` of `probe` with build row `i`:
  /// type-strict, NULL equals NULL, doubles bit-exact (CellEquals). Empty
  /// keys are equal, which makes an empty-key join a cross join.
  bool KeyEquals(const Row& probe, const std::vector<int>& probe_keys,
                 uint32_t i) const;

 private:
  Status Fill(Operator* build, bool with_filter, size_t filter_keys);
  uint32_t Skip(uint32_t i, uint64_t hash) const {
    while (i != kNoRow && hashes_[i] != hash) i = next_[i];
    return i;
  }

  std::once_flag once_;
  Status status_;
  std::vector<int> build_keys_;
  std::vector<Row> rows_;
  std::vector<uint64_t> hashes_;  // RowKeyHash of each build row
  std::vector<uint32_t> heads_;   // first row of each bucket, or kNoRow
  std::vector<uint32_t> next_;    // next row in the same bucket, or kNoRow
  uint64_t mask_ = 0;
  std::shared_ptr<const RuntimeFilter> filter_;
};

}  // namespace polarx
