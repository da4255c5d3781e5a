#include "src/exec/operator.h"

#include <algorithm>

#include "src/storage/mvcc.h"

namespace polarx {

namespace {

Row ProjectRow(const Row& row, const std::vector<int>& projection) {
  if (projection.empty()) return row;
  Row out;
  out.reserve(projection.size());
  for (int c : projection) out.push_back(row[c]);
  return out;
}

}  // namespace

Result<std::vector<Row>> Collect(Operator* op) {
  POLARX_RETURN_NOT_OK(op->Open());
  std::vector<Row> rows;
  Batch batch;
  for (;;) {
    POLARX_RETURN_NOT_OK(op->Next(&batch));
    if (batch.empty()) break;
    for (auto& r : batch.rows) rows.push_back(std::move(r));
  }
  op->Close();
  return rows;
}

// ------------------------------------------------------------ TableScan --

TableScanOp::TableScanOp(std::vector<TableStore*> shards,
                         Timestamp snapshot_ts, ExprPtr filter,
                         std::vector<int> projection)
    : shards_(std::move(shards)),
      snapshot_ts_(snapshot_ts),
      filter_(std::move(filter)),
      projection_(std::move(projection)) {}

Status TableScanOp::Open() {
  shard_index_ = 0;
  cursor_ = range_from_;
  return Status::Ok();
}

Status TableScanOp::Next(Batch* out) {
  out->rows.clear();
  const RuntimeFilter* rf =
      rf_slot_ != nullptr ? rf_slot_->filter.get() : nullptr;
  uint64_t rf_tested = 0, rf_dropped = 0;
  while (shard_index_ < shards_.size() && out->rows.size() < kExecBatchSize) {
    TableStore* shard = shards_[shard_index_];
    EncodedKey last;
    size_t before = out->rows.size();
    shard->rows().ScanRange(
        cursor_, range_to_,
        [&](const EncodedKey& key, const VersionPtr& head) {
          last = key;
          const Version* v = LatestVisible(head, snapshot_ts_);
          if (v != nullptr && !v->deleted) {
            if (filter_ == nullptr || filter_->EvalBool(v->row)) {
              Row projected = ProjectRow(v->row, projection_);
              if (rf != nullptr) {
                ++rf_tested;
                if (!rf->TestRow(projected, rf_slot_->key_cols)) {
                  ++rf_dropped;
                  return true;
                }
              }
              out->rows.push_back(std::move(projected));
            }
          }
          return out->rows.size() < kExecBatchSize;
        });
    if (out->rows.size() >= kExecBatchSize) {
      // Resume strictly after the last visited key next time.
      cursor_ = last + '\0';
      break;
    }
    // Shard exhausted (the scan visited everything without filling the
    // batch, or produced nothing new past the cursor).
    if (out->rows.size() == before && !last.empty() &&
        last + '\0' != cursor_) {
      // Keys were visited but all filtered out; continue within the shard.
      cursor_ = last + '\0';
      continue;
    }
    ++shard_index_;
    cursor_ = range_from_;
  }
  AddScanFilterStats(rf_tested, rf_dropped);
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

// ------------------------------------------------------------ IndexScan --

IndexScanOp::IndexScanOp(TableStore* table, LocalIndex* index,
                         EncodedKey from, EncodedKey to,
                         Timestamp snapshot_ts, ExprPtr filter)
    : table_(table),
      index_(index),
      from_(std::move(from)),
      to_(std::move(to)),
      snapshot_ts_(snapshot_ts),
      filter_(std::move(filter)) {}

Status IndexScanOp::Open() {
  pks_ = index_->Lookup(from_, to_);
  pos_ = 0;
  return Status::Ok();
}

Status IndexScanOp::Next(Batch* out) {
  out->rows.clear();
  while (pos_ < pks_.size() && out->rows.size() < kExecBatchSize) {
    const EncodedKey& pk = pks_[pos_++];
    const Version* v = LatestVisible(table_->rows().Head(pk), snapshot_ts_);
    if (v != nullptr && !v->deleted) {
      // Re-validate: index entries may be stale.
      if (filter_ == nullptr || filter_->EvalBool(v->row)) {
        out->rows.push_back(v->row);
      }
    }
  }
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

// --------------------------------------------------------------- Values --

Status ValuesOp::Next(Batch* out) {
  out->rows.clear();
  // Rows move out rather than copy: the operator contract is Open() once,
  // so the source is never re-read after a full drain.
  while (pos_ < source_.size() && out->rows.size() < kExecBatchSize) {
    out->rows.push_back(std::move(source_[pos_++]));
  }
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

// --------------------------------------------------------------- Filter --

Status FilterOp::Next(Batch* out) {
  out->rows.clear();
  Batch in;
  while (out->rows.empty()) {
    POLARX_RETURN_NOT_OK(child_->Next(&in));
    if (in.empty()) break;
    for (auto& row : in.rows) {
      if (predicate_->EvalBool(row)) out->rows.push_back(std::move(row));
    }
  }
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

// -------------------------------------------------------------- Project --

Status ProjectOp::Next(Batch* out) {
  out->rows.clear();
  Batch in;
  POLARX_RETURN_NOT_OK(child_->Next(&in));
  out->rows.reserve(in.rows.size());
  for (const auto& row : in.rows) {
    Row projected;
    projected.reserve(exprs_.size());
    for (const auto& e : exprs_) projected.push_back(e->Eval(row));
    out->rows.push_back(std::move(projected));
  }
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

// ------------------------------------------------------------- HashJoin --

HashJoinOp::HashJoinOp(OperatorPtr probe, OperatorPtr build,
                       std::vector<int> probe_keys,
                       std::vector<int> build_keys, JoinType type,
                       size_t build_width,
                       std::shared_ptr<JoinHashTable> shared)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)),
      type_(type),
      build_width_(build_width),
      table_(shared != nullptr ? std::move(shared)
                               : std::make_shared<JoinHashTable>()) {}

Status HashJoinOp::Open() {
  // Runtime filters never attach to anti/outer probes: a pruned probe row
  // would (wrongly) surface as "no match" output there.
  const bool emit_rf =
      rf_slot_ != nullptr &&
      (type_ == JoinType::kInner || type_ == JoinType::kLeftSemi);
  POLARX_RETURN_NOT_OK(
      table_->Build(build_.get(), build_keys_, emit_rf, rf_expected_keys_));
  // Publish before opening the probe: the probe-side scan reads the slot
  // at its own Open()/Next(), strictly after this point.
  if (emit_rf) rf_slot_->filter = table_->filter();
  return probe_->Open();
}

Status HashJoinOp::Next(Batch* out) {
  out->rows.clear();
  const JoinHashTable& table = *table_;
  uint64_t probed = 0;
  while (out->rows.size() < kExecBatchSize) {
    if (probe_pos_ >= pending_probe_.rows.size()) {
      POLARX_RETURN_NOT_OK(probe_->Next(&pending_probe_));
      probe_pos_ = 0;
      if (pending_probe_.empty()) break;
    }
    Row& probe_row = pending_probe_.rows[probe_pos_++];
    ++probed;
    const uint64_t hash = RowKeyHash(probe_row, probe_keys_);
    // Hash candidates in build order, skipping collisions.
    auto matching = [&](uint32_t i) {
      while (i != JoinHashTable::kNoRow &&
             !table.KeyEquals(probe_row, probe_keys_, i)) {
        i = table.Next(i, hash);
      }
      return i;
    };
    uint32_t match = matching(table.First(hash));
    switch (type_) {
      case JoinType::kInner:
      case JoinType::kLeftOuter:
        if (match == JoinHashTable::kNoRow) {
          if (type_ == JoinType::kInner) break;
          size_t width = build_width_;
          if (width == 0 && table.size() > 0) width = table.row(0).size();
          probe_row.resize(probe_row.size() + width);  // NULL padding
          out->rows.push_back(std::move(probe_row));
          break;
        }
        for (; match != JoinHashTable::kNoRow;
             match = matching(table.Next(match, hash))) {
          const Row& built = table.row(match);
          Row joined;
          joined.reserve(probe_row.size() + built.size());
          joined.insert(joined.end(), probe_row.begin(), probe_row.end());
          joined.insert(joined.end(), built.begin(), built.end());
          out->rows.push_back(std::move(joined));
        }
        break;
      case JoinType::kLeftSemi:
        if (match != JoinHashTable::kNoRow) {
          out->rows.push_back(std::move(probe_row));
        }
        break;
      case JoinType::kLeftAnti:
        if (match == JoinHashTable::kNoRow) {
          out->rows.push_back(std::move(probe_row));
        }
        break;
    }
  }
  AddJoinProbeRows(probed);
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

// ----------------------------------------------------------- LookupJoin --

LookupJoinOp::LookupJoinOp(OperatorPtr probe,
                           std::vector<TableStore*> inner_shards,
                           std::vector<ExprPtr> key_exprs,
                           Timestamp snapshot_ts, JoinType type)
    : probe_(std::move(probe)),
      inner_(std::move(inner_shards)),
      key_exprs_(std::move(key_exprs)),
      snapshot_ts_(snapshot_ts),
      type_(type) {}

Status LookupJoinOp::Next(Batch* out) {
  out->rows.clear();
  Batch in;
  while (out->rows.empty()) {
    POLARX_RETURN_NOT_OK(probe_->Next(&in));
    if (in.empty()) break;
    for (auto& probe_row : in.rows) {
      Row key_values;
      key_values.reserve(key_exprs_.size());
      for (const auto& e : key_exprs_) key_values.push_back(e->Eval(probe_row));
      EncodedKey pk = EncodeKey(key_values);
      ++lookups_;
      TableStore* shard =
          inner_[ShardOf(pk, static_cast<uint32_t>(inner_.size()))];
      const Version* v = LatestVisible(shard->rows().Head(pk), snapshot_ts_);
      bool found = v != nullptr && !v->deleted;
      switch (type_) {
        case JoinType::kInner:
          if (found) {
            Row joined = std::move(probe_row);
            joined.insert(joined.end(), v->row.begin(), v->row.end());
            out->rows.push_back(std::move(joined));
          }
          break;
        case JoinType::kLeftSemi:
          if (found) out->rows.push_back(std::move(probe_row));
          break;
        case JoinType::kLeftAnti:
          if (!found) out->rows.push_back(std::move(probe_row));
          break;
      }
    }
  }
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

// -------------------------------------------------------------- Subplan --

Status SubplanOp::Open() {
  POLARX_ASSIGN_OR_RETURN(std::vector<Row> rows, Collect(child_.get()));
  inner_ = builder_(std::move(rows));
  return inner_->Open();
}

Status SubplanOp::Next(Batch* out) {
  Status s = inner_->Next(out);
  rows_produced_ += out->rows.size();
  return s;
}

void SubplanOp::Close() {
  if (inner_ != nullptr) inner_->Close();
}

// -------------------------------------------------------------- HashAgg --

HashAggOp::HashAggOp(OperatorPtr child, std::vector<ExprPtr> group_by,
                     std::vector<AggSpec> aggs, AggMode mode)
    : child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)),
      mode_(mode) {}

Status HashAggOp::Open() {
  POLARX_RETURN_NOT_OK(child_->Open());
  consumed_ = false;
  groups_.clear();
  fast_vals_.clear();
  fast_nulls_.clear();
  fast_states_.clear();
  fast_slots_.clear();
  fast_group_count_ = 0;
  results_.clear();
  out_pos_ = 0;
  return Status::Ok();
}

uint64_t HashAggOp::FastHash(const uint64_t* vals, uint64_t nulls) const {
  uint64_t h = MixHash64(kKeyHashSeed ^ nulls);
  for (size_t i = 0; i < group_by_.size(); ++i) {
    h = HashCombine(h, MixHash64(vals[i]));
  }
  return h;
}

void HashAggOp::FastRehash() {
  std::vector<uint32_t> grown(fast_slots_.size() * 2, 0);
  const size_t mask = grown.size() - 1;
  const size_t n = group_by_.size();
  for (size_t idx = 0; idx < fast_group_count_; ++idx) {
    size_t pos =
        size_t(FastHash(fast_vals_.data() + idx * n, fast_nulls_[idx])) & mask;
    while (grown[pos] != 0) pos = (pos + 1) & mask;
    grown[pos] = uint32_t(idx) + 1;
  }
  fast_slots_ = std::move(grown);
}

HashAggOp::AggState* HashAggOp::FastFindOrInsert(const uint64_t* vals,
                                                 uint64_t nulls) {
  if (fast_slots_.empty()) fast_slots_.assign(1024, 0);
  const size_t n = group_by_.size();
  const size_t mask = fast_slots_.size() - 1;
  size_t pos = size_t(FastHash(vals, nulls)) & mask;
  for (;;) {
    const uint32_t slot = fast_slots_[pos];
    if (slot == 0) {
      const size_t idx = fast_group_count_++;
      fast_vals_.insert(fast_vals_.end(), vals, vals + n);
      fast_nulls_.push_back(nulls);
      fast_states_.resize(fast_states_.size() + aggs_.size());
      fast_slots_[pos] = uint32_t(idx) + 1;
      // Keep load under 70%; the returned pointer is recomputed after any
      // arena growth so it stays valid for the caller's fold.
      if (fast_group_count_ * 10 >= fast_slots_.size() * 7) FastRehash();
      return fast_states_.data() + idx * aggs_.size();
    }
    const size_t idx = slot - 1;
    if (fast_nulls_[idx] == nulls &&
        std::equal(vals, vals + n, fast_vals_.data() + idx * n)) {
      return fast_states_.data() + idx * aggs_.size();
    }
    pos = (pos + 1) & mask;
  }
}

HashAggOp::AggState* HashAggOp::TryFastStates(const Value* group, size_t n) {
  if (n > kFastMaxGroupCols) return nullptr;
  uint64_t vals[kFastMaxGroupCols] = {0, 0, 0, 0};
  uint64_t nulls = 0;
  for (size_t i = 0; i < n; ++i) {
    if (const auto* k = std::get_if<int64_t>(&group[i])) {
      vals[i] = static_cast<uint64_t>(*k);
    } else if (IsNull(group[i])) {
      nulls |= uint64_t{1} << i;
    } else {
      return nullptr;
    }
  }
  return FastFindOrInsert(vals, nulls);
}

void HashAggOp::Accumulate(const Row& row) {
  group_buf_.clear();
  group_buf_.reserve(group_by_.size());
  for (const auto& g : group_by_) group_buf_.push_back(g->Eval(row));
  AggState* states = TryFastStates(group_buf_.data(), group_buf_.size());
  if (states == nullptr) {
    key_buf_.clear();
    for (const auto& v : group_buf_) EncodeValue(v, &key_buf_);
    auto it = groups_.find(key_buf_);
    if (it == groups_.end()) {
      it = groups_
               .emplace(key_buf_,
                        std::make_pair(std::move(group_buf_),
                                       std::vector<AggState>(aggs_.size())))
               .first;
      group_buf_.clear();
    }
    states = it->second.second.data();
  }
  Fold(row, states);
}

void HashAggOp::Fold(const Row& row, AggState* states) {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    AggState& st = states[i];
    const AggSpec& spec = aggs_[i];
    if (spec.op == AggOp::kCount && spec.expr == nullptr) {
      ++st.count;
      st.any = true;
      continue;
    }
    Value v = spec.expr->Eval(row);
    if (IsNull(v)) continue;
    switch (spec.op) {
      case AggOp::kCount:
        ++st.count;
        break;
      case AggOp::kSum:
      case AggOp::kAvg: {
        auto d = ValueAsDouble(v);
        if (d.ok()) {
          st.sum += *d;
          ++st.count;
        }
        break;
      }
      case AggOp::kMin:
        if (!st.any || CompareValues(v, st.min) < 0) st.min = v;
        break;
      case AggOp::kMax:
        if (!st.any || CompareValues(v, st.max) > 0) st.max = v;
        break;
    }
    st.any = true;
  }
}

void HashAggOp::MergeState(const Row& row) {
  // Input layout: group columns, then states (sum,count per avg; single
  // column otherwise) in agg order.
  AggState* states = TryFastStates(row.data(), group_by_.size());
  if (states == nullptr) {
    key_buf_.clear();
    for (size_t i = 0; i < group_by_.size(); ++i) {
      EncodeValue(row[i], &key_buf_);
    }
    auto it = groups_.find(key_buf_);
    if (it == groups_.end()) {
      it = groups_
               .emplace(key_buf_,
                        std::make_pair(
                            Row(row.begin(), row.begin() + group_by_.size()),
                            std::vector<AggState>(aggs_.size())))
               .first;
    }
    states = it->second.second.data();
  }
  FoldMerged(row, states);
}

void HashAggOp::FoldMerged(const Row& row, AggState* states) {
  size_t col = group_by_.size();
  for (size_t i = 0; i < aggs_.size(); ++i) {
    AggState& st = states[i];
    switch (aggs_[i].op) {
      case AggOp::kCount:
        st.count += ValueAsInt(row[col]).ValueOr(0);
        ++col;
        break;
      case AggOp::kSum:
        st.sum += ValueAsDouble(row[col]).ValueOr(0);
        ++col;
        break;
      case AggOp::kAvg:
        st.sum += ValueAsDouble(row[col]).ValueOr(0);
        st.count += ValueAsInt(row[col + 1]).ValueOr(0);
        col += 2;
        break;
      case AggOp::kMin: {
        const Value& v = row[col];
        if (!IsNull(v) && (!st.any || CompareValues(v, st.min) < 0)) {
          st.min = v;
        }
        ++col;
        break;
      }
      case AggOp::kMax: {
        const Value& v = row[col];
        if (!IsNull(v) && (!st.any || CompareValues(v, st.max) > 0)) {
          st.max = v;
        }
        ++col;
        break;
      }
    }
    st.any = true;
  }
}

Row HashAggOp::Finalize(const Row& group, AggState* states) const {
  Row out = group;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    AggState& st = states[i];
    if (mode_ == AggMode::kPartial) {
      switch (aggs_[i].op) {
        case AggOp::kCount:
          out.push_back(st.count);
          break;
        case AggOp::kSum:
          out.push_back(st.sum);
          break;
        case AggOp::kAvg:
          out.push_back(st.sum);
          out.push_back(st.count);
          break;
        case AggOp::kMin:
          out.push_back(st.any ? st.min : Value{});
          break;
        case AggOp::kMax:
          out.push_back(st.any ? st.max : Value{});
          break;
      }
      continue;
    }
    switch (aggs_[i].op) {
      case AggOp::kCount:
        out.push_back(st.count);
        break;
      case AggOp::kSum:
        out.push_back(st.sum);
        break;
      case AggOp::kAvg:
        out.push_back(st.count == 0 ? Value{} : Value{st.sum / st.count});
        break;
      case AggOp::kMin:
        out.push_back(st.any ? st.min : Value{});
        break;
      case AggOp::kMax:
        out.push_back(st.any ? st.max : Value{});
        break;
    }
  }
  return out;
}

Status HashAggOp::Next(Batch* out) {
  out->rows.clear();
  if (!consumed_) {
    Batch in;
    for (;;) {
      POLARX_RETURN_NOT_OK(child_->Next(&in));
      if (in.empty()) break;
      for (const auto& row : in.rows) {
        if (mode_ == AggMode::kFinal) {
          MergeState(row);
        } else {
          Accumulate(row);
        }
      }
    }
    // Global aggregation (no GROUP BY) yields one row even on empty input.
    if (groups_.empty() && fast_group_count_ == 0 && group_by_.empty()) {
      std::vector<AggState> states(aggs_.size());
      results_.push_back(Finalize({}, states.data()));
    }
    Row group;
    for (size_t idx = 0; idx < fast_group_count_; ++idx) {
      group.clear();
      for (size_t c = 0; c < group_by_.size(); ++c) {
        if ((fast_nulls_[idx] >> c) & 1) {
          group.push_back(Value{});
        } else {
          group.push_back(
              static_cast<int64_t>(fast_vals_[idx * group_by_.size() + c]));
        }
      }
      results_.push_back(
          Finalize(group, fast_states_.data() + idx * aggs_.size()));
    }
    for (auto& [key, entry] : groups_) {
      results_.push_back(Finalize(entry.first, entry.second.data()));
    }
    groups_.clear();
    fast_vals_.clear();
    fast_nulls_.clear();
    fast_states_.clear();
    fast_slots_.clear();
    fast_group_count_ = 0;
    consumed_ = true;
  }
  while (out_pos_ < results_.size() && out->rows.size() < kExecBatchSize) {
    out->rows.push_back(std::move(results_[out_pos_++]));
  }
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

void HashAggOp::Close() { child_->Close(); }

// ----------------------------------------------------------------- Sort --

Status SortOp::Open() {
  rows_.clear();
  sorted_ = false;
  pos_ = 0;
  return child_->Open();
}

Status SortOp::Next(Batch* out) {
  out->rows.clear();
  if (!sorted_) {
    Batch in;
    for (;;) {
      POLARX_RETURN_NOT_OK(child_->Next(&in));
      if (in.empty()) break;
      for (auto& r : in.rows) rows_.push_back(std::move(r));
    }
    auto cmp = [this](const Row& a, const Row& b) {
      for (const auto& k : keys_) {
        int c = CompareValues(a[k.column], b[k.column]);
        if (c != 0) return k.ascending ? c < 0 : c > 0;
      }
      return false;
    };
    if (limit_ > 0 && rows_.size() > limit_) {
      std::partial_sort(rows_.begin(), rows_.begin() + limit_, rows_.end(),
                        cmp);
      rows_.resize(limit_);
    } else {
      std::sort(rows_.begin(), rows_.end(), cmp);
    }
    sorted_ = true;
  }
  while (pos_ < rows_.size() && out->rows.size() < kExecBatchSize) {
    out->rows.push_back(std::move(rows_[pos_++]));
  }
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

// ---------------------------------------------------------------- Limit --

Status LimitOp::Next(Batch* out) {
  out->rows.clear();
  if (produced_ >= limit_) return Status::Ok();
  Batch in;
  POLARX_RETURN_NOT_OK(child_->Next(&in));
  for (auto& row : in.rows) {
    if (produced_ >= limit_) break;
    out->rows.push_back(std::move(row));
    ++produced_;
  }
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

}  // namespace polarx
