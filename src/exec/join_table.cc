#include "src/exec/join_table.h"

#include <optional>

#include "src/exec/operator.h"

namespace polarx {

Status JoinHashTable::Build(Operator* build,
                            const std::vector<int>& build_keys,
                            bool with_filter, size_t filter_keys) {
  std::call_once(once_, [&] {
    status_ = Fill(build, build_keys, with_filter, filter_keys);
  });
  return status_;
}

Status JoinHashTable::Fill(Operator* build,
                           const std::vector<int>& build_keys,
                           bool with_filter, size_t filter_keys) {
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
  keys_ = KeyWordTable(build_keys.size(), n);
  next_.resize(n);
  first_.reserve(n);
  std::optional<RuntimeFilterBuilder> rf;
  if (with_filter) rf.emplace(filter_keys == 0 ? n : filter_keys, kKeyHashSeed);
  std::vector<uint64_t> key(keys_.width());
  // Prepend in reverse so every key's rows are linked in build order.
  for (uint32_t i = n; i-- > 0;) {
    const uint64_t hash = keys_.Encode(rows_[i], build_keys, key.data());
    bool inserted = false;
    const uint32_t id = keys_.FindOrInsert(key.data(), hash, &inserted);
    if (inserted) first_.push_back(kNoRow);
    next_[i] = first_[id];
    first_[id] = i;
    if (rf) {
      rf->AddKey(hash, build_keys.size() == 1
                           ? std::get_if<int64_t>(&rows_[i][build_keys[0]])
                           : nullptr);
    }
  }
  if (rf) filter_ = rf->Finish();
  return Status::Ok();
}

}  // namespace polarx
