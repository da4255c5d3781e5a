// The build side of a hash join (§VI-C), shared by the row-store
// HashJoinOp and the column index's ColumnHashJoinOp: the build rows in
// build order, a KeyWordTable that numbers their distinct keys, and, for
// inner/semi joins, the runtime filter summarizing those keys. Each key id
// keeps its first build row and each row links to the next row with the
// same key, so a probe walks exactly its matches, in build order, with no
// candidate to verify.
//
// A table is built from S slices of its build side, at most once, and is
// read-only afterwards, so one table can serve many probers. The MPP plan
// builder hands the same table to the join of every task of a broadcast
// join site, with S = the number of tasks (DESIGN.md §9): each task that
// opens the join drains the slices nobody has claimed yet, waits for the
// ones other tasks are draining, and then all of them probe the table
// concurrently without locks. A private join is the same code with one
// slice.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/exec/cooperative_runs.h"
#include "src/exec/key_word_table.h"
#include "src/exec/runtime_filter.h"
#include "src/storage/value.h"

namespace polarx {

class Operator;

/// Makes slice `slice` of a join's build side. The slices of one build
/// side are disjoint, and in slice order they are the whole build side in
/// build order.
using BuildSliceFactory =
    std::function<std::unique_ptr<Operator>(int slice)>;

class JoinHashTable {
 public:
  static constexpr uint32_t kNoRow = UINT32_MAX;

  /// Fills the table from `num_slices` slices of the build side, once.
  /// Each caller, from any thread, claims the slices nobody has claimed,
  /// makes each with `slice` and drains it (Open, Next until empty, Close)
  /// into the slice's row chunk, then waits for the slices other callers
  /// claimed. The caller that drains the last slice numbers the keys over
  /// the chunks in slice order, so the table equals a one-slice build of
  /// the same rows. A failed slice's Status is kept and returned to every
  /// caller, now and later. `with_filter` also summarizes the `build_keys`
  /// of every row into a runtime filter whose bloom is sized for
  /// `filter_keys` keys (0 = the build row count). All callers pass the
  /// same arguments, and `slice` factories that make the same slices; a
  /// caller whose `num_slices`, `build_keys`, `with_filter` or
  /// `filter_keys` differ from the first caller's gets InvalidArgument, so
  /// a table cannot be built two ways.
  Status Build(int num_slices, const BuildSliceFactory& slice,
               const std::vector<int>& build_keys, bool with_filter,
               size_t filter_keys = 0);

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
  Status Fill(std::vector<std::vector<Row>>* chunks,
              const std::vector<int>& build_keys, bool with_filter,
              size_t filter_keys);

  /// The first Build() call's arguments, which every later call repeats.
  struct Args {
    int num_slices;
    std::vector<int> build_keys;
    bool with_filter;
    size_t filter_keys;
    bool operator==(const Args&) const = default;
  };
  std::mutex args_mu_;
  std::optional<Args> args_;
  CooperativeRuns<std::vector<Row>> slices_;  // one row chunk per slice
  std::vector<Row> rows_;
  KeyWordTable keys_{0};
  std::vector<uint32_t> first_;  // first build row of each key id
  std::vector<uint32_t> next_;   // next build row with the same key, or kNoRow
  std::shared_ptr<const RuntimeFilter> filter_;
};

}  // namespace polarx
