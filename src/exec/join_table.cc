#include "src/exec/join_table.h"

#include <bit>

#include "src/exec/operator.h"

namespace polarx {

Status JoinHashTable::Build(Operator* build,
                            const std::vector<int>& build_keys,
                            bool with_filter, size_t filter_keys) {
  std::call_once(once_, [&] {
    build_keys_ = build_keys;
    status_ = Fill(build, with_filter, filter_keys);
  });
  return status_;
}

Status JoinHashTable::Fill(Operator* build, bool with_filter,
                           size_t filter_keys) {
  POLARX_RETURN_NOT_OK(build->Open());
  Batch batch;
  for (;;) {
    POLARX_RETURN_NOT_OK(build->Next(&batch));
    if (batch.empty()) break;
    for (auto& row : batch.rows) rows_.push_back(std::move(row));
  }
  build->Close();
  if (rows_.size() >= kNoRow) {
    return Status::NotSupported("JoinHashTable: build side too large");
  }

  const uint32_t n = uint32_t(rows_.size());
  heads_.assign(std::bit_ceil(std::max<size_t>(n, 1)), kNoRow);
  mask_ = heads_.size() - 1;
  hashes_.resize(n);
  next_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    hashes_[i] = RowKeyHash(rows_[i], build_keys_);
  }
  // Prepend in reverse so every bucket chain lists its rows in build order.
  for (uint32_t i = n; i-- > 0;) {
    uint32_t& head = heads_[hashes_[i] & mask_];
    next_[i] = head;
    head = i;
  }
  if (with_filter) {
    RuntimeFilterBuilder rf(filter_keys == 0 ? n : filter_keys,
                            kKeyHashSeed);
    for (const Row& row : rows_) rf.AddKey(row, build_keys_);
    filter_ = rf.Finish();
  }
  return Status::Ok();
}

bool JoinHashTable::KeyEquals(const Row& probe,
                              const std::vector<int>& probe_keys,
                              uint32_t i) const {
  const Row& built = rows_[i];
  for (size_t k = 0; k < probe_keys.size(); ++k) {
    if (!CellEquals(probe[probe_keys[k]], built[build_keys_[k]])) {
      return false;
    }
  }
  return true;
}

}  // namespace polarx
