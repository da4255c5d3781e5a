#include "src/exec/join_table.h"

#include <iterator>
#include <optional>

#include "src/exec/operator.h"

namespace polarx {

Status JoinHashTable::Build(int num_slices, const BuildSliceFactory& slice,
                            const std::vector<int>& build_keys,
                            bool with_filter, size_t filter_keys) {
  {
    Args args{num_slices, build_keys, with_filter, filter_keys};
    std::lock_guard<std::mutex> lock(args_mu_);
    if (!args_) {
      args_ = std::move(args);
    } else if (*args_ != args) {
      return Status::InvalidArgument(
          "JoinHashTable: callers disagree on the build");
    }
  }
  return slices_.Run(
      num_slices,
      [&](int s, std::vector<Row>* chunk) {
        OperatorPtr build = slice(s);
        POLARX_RETURN_NOT_OK(build->Open());
        Batch batch;
        for (;;) {
          POLARX_RETURN_NOT_OK(build->Next(&batch));
          if (batch.empty()) break;
          for (auto& row : batch.rows) chunk->push_back(std::move(row));
        }
        build->Close();
        return Status::Ok();
      },
      [&](std::vector<std::vector<Row>>* chunks) {
        return Fill(chunks, build_keys, with_filter, filter_keys);
      });
}

Status JoinHashTable::Fill(std::vector<std::vector<Row>>* chunks,
                           const std::vector<int>& build_keys,
                           bool with_filter, size_t filter_keys) {
  size_t total = 0;
  for (const auto& chunk : *chunks) total += chunk.size();
  if (total >= kNoRow) {
    return Status::NotSupported("JoinHashTable: build side too large");
  }
  rows_ = std::move(chunks->front());
  rows_.reserve(total);
  for (size_t c = 1; c < chunks->size(); ++c) {
    std::vector<Row> chunk = std::move((*chunks)[c]);
    rows_.insert(rows_.end(), std::make_move_iterator(chunk.begin()),
                 std::make_move_iterator(chunk.end()));
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
