#include "src/exec/operator.h"

#include <algorithm>
#include <numeric>

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

/// Folds `v` into min/max slot `slot`, which is NULL until the first
/// non-NULL input; NULL inputs are skipped.
void FoldExtreme(AggOp op, const Value& v, Value* slot) {
  if (IsNull(v)) return;
  const int c = IsNull(*slot) ? 0 : CompareValues(v, *slot);
  if (IsNull(*slot) || (op == AggOp::kMin ? c < 0 : c > 0)) *slot = v;
}

}  // namespace

void FoldAggInput(AggOp op, const Value& v, AggAcc* acc, Value* extreme) {
  switch (op) {
    case AggOp::kCount:
      acc->count += !IsNull(v);
      break;
    case AggOp::kSum:
    case AggOp::kAvg:
      // Numbers only: NULLs and strings are skipped.
      if (const auto* d = std::get_if<double>(&v)) {
        acc->sum += *d;
      } else if (const auto* n = std::get_if<int64_t>(&v)) {
        acc->sum += double(*n);
      } else {
        break;
      }
      ++acc->count;
      break;
    case AggOp::kMin:
    case AggOp::kMax:
      FoldExtreme(op, v, extreme);
      break;
  }
}

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

BuildSliceFactory JoinBuild::OneSlice(OperatorPtr build) {
  auto only = std::make_shared<OperatorPtr>(std::move(build));
  return [only](int) { return std::move(*only); };
}

HashJoinOp::HashJoinOp(OperatorPtr probe, JoinBuild build,
                       std::vector<int> probe_keys,
                       std::vector<int> build_keys, JoinType type,
                       size_t build_width)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)),
      type_(type),
      build_width_(build_width) {}

Status HashJoinOp::Open() {
  // Runtime filters never attach to anti/outer probes: a pruned probe row
  // would (wrongly) surface as "no match" output there.
  const bool emit_rf =
      rf_slot_ != nullptr &&
      (type_ == JoinType::kInner || type_ == JoinType::kLeftSemi);
  JoinHashTable& table = *build_.table;
  POLARX_RETURN_NOT_OK(table.Build(build_.num_slices, build_.slice,
                                   build_keys_, emit_rf));
  // Publish before opening the probe: the probe-side scan reads the slot
  // at its own Open()/Next(), strictly after this point.
  if (emit_rf) rf_slot_->filter = table.filter();
  probe_key_.resize(table.keys().width());
  return probe_->Open();
}

Status HashJoinOp::Next(Batch* out) {
  out->rows.clear();
  const JoinHashTable& table = *build_.table;
  uint64_t probed = 0;
  while (out->rows.size() < kExecBatchSize) {
    if (probe_pos_ >= pending_probe_.rows.size()) {
      POLARX_RETURN_NOT_OK(probe_->Next(&pending_probe_));
      probe_pos_ = 0;
      if (pending_probe_.empty()) break;
    }
    Row& probe_row = pending_probe_.rows[probe_pos_++];
    ++probed;
    const uint64_t hash =
        table.keys().EncodeProbe(probe_row, probe_keys_, probe_key_.data());
    uint32_t match = table.First(probe_key_.data(), hash);
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
        for (; match != JoinHashTable::kNoRow; match = table.Next(match)) {
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
                           PartitionRule rule, std::vector<ExprPtr> key_exprs,
                           Timestamp snapshot_ts, JoinType type)
    : probe_(std::move(probe)),
      inner_(std::move(inner_shards)),
      rule_(rule),
      key_exprs_(std::move(key_exprs)),
      snapshot_ts_(snapshot_ts),
      type_(type) {}

Status LookupJoinOp::Open() {
  if (type_ == JoinType::kLeftOuter) {
    return Status::NotSupported("LookupJoinOp: left outer join");
  }
  return probe_->Open();
}

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
      TableStore* shard = inner_[rule_.ShardOfPk(key_values, pk)];
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
        case JoinType::kLeftOuter:  // refused by Open()
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

void AppendAggregates(const std::vector<AggSpec>& aggs, AggMode mode,
                      const AggAcc* accs, Value* extremes, Row* out) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    const AggAcc& acc = accs[i];
    switch (aggs[i].op) {
      case AggOp::kCount:
        out->push_back(acc.count);
        break;
      case AggOp::kSum:
        out->push_back(acc.sum);
        break;
      case AggOp::kAvg:
        if (mode == AggMode::kPartial) {
          out->push_back(acc.sum);
          out->push_back(acc.count);
        } else {
          out->push_back(acc.count == 0 ? Value{}
                                        : Value{acc.sum / double(acc.count)});
        }
        break;
      case AggOp::kMin:
      case AggOp::kMax:
        out->push_back(std::move(*extremes++));
        break;
    }
  }
}

HashAggOp::HashAggOp(OperatorPtr child, std::vector<ExprPtr> group_by,
                     std::vector<AggSpec> aggs, AggMode mode)
    : child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)),
      mode_(mode),
      input_cols_(aggs_.size(), -1),
      extreme_of_(aggs_.size()),
      group_cols_(group_by_.size()),
      table_(group_by_.size()),
      key_buf_(table_.width()) {
  std::iota(group_cols_.begin(), group_cols_.end(), 0);
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const ExprPtr& e = aggs_[i].expr;
    if (e != nullptr && e->kind() == Expr::Kind::kColumn) {
      input_cols_[i] = e->column();
    }
    if (aggs_[i].op == AggOp::kMin || aggs_[i].op == AggOp::kMax) {
      extreme_of_[i] = num_extremes_++;
    }
  }
  if (mode_ == AggMode::kFinal) {
    key_cols_ = group_cols_;
    return;
  }
  for (const auto& g : group_by_) {
    if (g->kind() != Expr::Kind::kColumn) {
      key_cols_.clear();
      return;
    }
    key_cols_.push_back(g->column());
  }
}

Status HashAggOp::Open() {
  POLARX_RETURN_NOT_OK(child_->Open());
  consumed_ = false;
  table_ = KeyWordTable(group_by_.size());
  groups_.clear();
  accs_.clear();
  extremes_.clear();
  out_pos_ = 0;
  return Status::Ok();
}

size_t HashAggOp::GroupOf(const Row& row, const std::vector<int>& cols) {
  const uint64_t hash = table_.Encode(row, cols, key_buf_.data());
  bool inserted = false;
  const uint32_t id = table_.FindOrInsert(key_buf_.data(), hash, &inserted);
  if (inserted) {
    // Room for the aggregates AppendAggregates adds (two columns for a
    // partial avg), so emitting the group does not reallocate its row.
    Row& values = groups_.emplace_back();
    values.reserve(cols.size() + 2 * aggs_.size());
    for (int c : cols) values.push_back(row[c]);
    accs_.resize(accs_.size() + aggs_.size());
    extremes_.resize(extremes_.size() + num_extremes_);
  }
  return id;
}

void HashAggOp::Fold(const Row& row, size_t g) {
  AggAcc* accs = accs_.data() + g * aggs_.size();
  Value* extremes = extremes_.data() + g * num_extremes_;
  Value computed;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& spec = aggs_[i];
    if (spec.expr == nullptr) {  // COUNT(*)
      ++accs[i].count;
      continue;
    }
    const Value* v = &computed;
    if (input_cols_[i] >= 0) {
      v = &row[input_cols_[i]];
    } else {
      computed = spec.expr->Eval(row);
    }
    FoldAggInput(spec.op, *v, &accs[i], extremes + extreme_of_[i]);
  }
}

void HashAggOp::FoldMerged(const Row& row, size_t g) {
  // Input layout: group columns, then states (sum,count per avg; single
  // column otherwise) in agg order, as AppendAggregates writes them.
  AggAcc* accs = accs_.data() + g * aggs_.size();
  size_t col = group_by_.size();
  for (size_t i = 0; i < aggs_.size(); ++i) {
    switch (aggs_[i].op) {
      case AggOp::kCount:
        accs[i].count += ValueAsInt(row[col++]).ValueOr(0);
        break;
      case AggOp::kSum:
        accs[i].sum += ValueAsDouble(row[col++]).ValueOr(0);
        break;
      case AggOp::kAvg:
        accs[i].sum += ValueAsDouble(row[col]).ValueOr(0);
        accs[i].count += ValueAsInt(row[col + 1]).ValueOr(0);
        col += 2;
        break;
      case AggOp::kMin:
      case AggOp::kMax:
        // A NULL state is a partial that saw no non-NULL input.
        FoldExtreme(aggs_[i].op, row[col++],
                    &extremes_[g * num_extremes_ + extreme_of_[i]]);
        break;
    }
  }
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
          FoldMerged(row, GroupOf(row, key_cols_));
        } else if (key_cols_.size() == group_by_.size()) {
          Fold(row, GroupOf(row, key_cols_));
        } else {
          group_buf_.clear();
          for (const auto& g : group_by_) group_buf_.push_back(g->Eval(row));
          Fold(row, GroupOf(group_buf_, group_cols_));
        }
      }
    }
    // Global aggregation (no GROUP BY) yields one row even on empty input.
    if (groups_.empty() && group_by_.empty()) GroupOf(Row{}, group_cols_);
    consumed_ = true;
  }
  while (out_pos_ < groups_.size() && out->rows.size() < kExecBatchSize) {
    const size_t g = out_pos_++;
    Row row = std::move(groups_[g]);
    AppendAggregates(aggs_, mode_, accs_.data() + g * aggs_.size(),
                     extremes_.data() + g * num_extremes_, &row);
    out->rows.push_back(std::move(row));
  }
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

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

}  // namespace polarx
