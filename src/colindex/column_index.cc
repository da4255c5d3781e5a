#include "src/colindex/column_index.h"

#include <algorithm>
#include <mutex>

#include "src/storage/key_codec.h"

namespace polarx {

void ColumnVector::Append(const Value& v) {
  bool null = IsNull(v);
  nulls.push_back(null);
  switch (type) {
    case ValueType::kInt64:
      ints.push_back(null ? 0 : std::get<int64_t>(v));
      break;
    case ValueType::kDouble:
      doubles.push_back(null ? 0.0 : std::get<double>(v));
      break;
    case ValueType::kString:
      strings.push_back(null ? std::string() : std::get<std::string>(v));
      break;
    default:
      break;
  }
}

Value ColumnVector::Get(size_t row) const {
  if (nulls[row]) return Value{};
  switch (type) {
    case ValueType::kInt64:
      return Value{ints[row]};
    case ValueType::kDouble:
      return Value{doubles[row]};
    case ValueType::kString:
      return Value{strings[row]};
    default:
      return Value{};
  }
}

ColumnIndex::ColumnIndex(Schema schema, std::vector<int> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  if (columns_.empty()) {
    for (size_t i = 0; i < schema_.num_columns(); ++i) {
      columns_.push_back(static_cast<int>(i));
    }
  }
  data_.resize(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    data_[i].type = schema_.columns()[columns_[i]].type;
  }
}

void ColumnIndex::SetBatching(bool enabled, size_t max_buffered_ops) {
  std::unique_lock lock(mu_);
  batching_ = enabled;
  max_buffered_ = max_buffered_ops;
}

void ColumnIndex::ApplyCommit(Timestamp commit_ts,
                              const std::vector<RedoRecord>& ops) {
  std::unique_lock lock(mu_);
  if (batching_) {
    pending_.push_back(PendingCommit{commit_ts, ops});
    pending_op_count_ += ops.size();
    if (pending_op_count_ < max_buffered_) return;
    // Buffer full: apply everything now.
    for (const auto& commit : pending_) {
      for (const auto& op : commit.ops) ApplyOne(commit.commit_ts, op);
      version_ = std::max(version_, commit.commit_ts);
    }
    pending_.clear();
    pending_op_count_ = 0;
    return;
  }
  for (const auto& op : ops) ApplyOne(commit_ts, op);
  version_ = std::max(version_, commit_ts);
}

void ColumnIndex::FlushPending() {
  std::unique_lock lock(mu_);
  for (const auto& commit : pending_) {
    for (const auto& op : commit.ops) ApplyOne(commit.commit_ts, op);
    version_ = std::max(version_, commit.commit_ts);
  }
  pending_.clear();
  pending_op_count_ = 0;
}

void ColumnIndex::ApplyOne(Timestamp commit_ts, const RedoRecord& op) {
  auto it = pk_to_row_.find(op.key);
  // Tombstone any current version of this key.
  if (it != pk_to_row_.end()) {
    delete_ts_[it->second] = commit_ts;
  }
  if (op.type == RedoType::kDelete) {
    if (it != pk_to_row_.end()) pk_to_row_.erase(it);
    return;
  }
  uint32_t rowid = static_cast<uint32_t>(insert_ts_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    data_[i].Append(op.row[columns_[i]]);
  }
  insert_ts_.push_back(commit_ts);
  delete_ts_.push_back(kMaxTimestamp);
  pk_to_row_[op.key] = rowid;
}

Timestamp ColumnIndex::version() const {
  std::shared_lock lock(mu_);
  return version_;
}

size_t ColumnIndex::pending_ops() const {
  std::shared_lock lock(mu_);
  return pending_op_count_;
}

size_t ColumnIndex::live_rows(Timestamp snapshot) const {
  std::shared_lock lock(mu_);
  size_t n = 0;
  for (size_t r = 0; r < insert_ts_.size(); ++r) {
    n += insert_ts_[r] <= snapshot && snapshot < delete_ts_[r];
  }
  return n;
}

size_t ColumnIndex::total_versions() const {
  std::shared_lock lock(mu_);
  return insert_ts_.size();
}

namespace {

/// A simple comparison of an indexed numeric/string column vs a literal,
/// extracted from a conjunction for the vectorized pass.
struct SimplePred {
  int col;
  CmpOp op;
  Value lit;
};

/// Splits `expr` into vectorizable simple predicates and a residual.
/// Returns false if the expr is not a conjunction decomposable this way
/// (then everything goes to the residual).
void Decompose(const ExprPtr& expr, std::vector<SimplePred>* simple,
               std::vector<ExprPtr>* residual) {
  if (expr == nullptr) return;
  if (expr->kind() == Expr::Kind::kLogic &&
      expr->logic_op() == LogicOp::kAnd) {
    Decompose(expr->children()[0], simple, residual);
    Decompose(expr->children()[1], simple, residual);
    return;
  }
  if (expr->kind() == Expr::Kind::kCompare) {
    const auto& kids = expr->children();
    if (kids[0]->kind() == Expr::Kind::kColumn &&
        kids[1]->kind() == Expr::Kind::kLiteral) {
      simple->push_back(
          SimplePred{kids[0]->column(), expr->cmp_op(), kids[1]->literal()});
      return;
    }
  }
  residual->push_back(expr);
}

template <typename T, typename V>
bool CmpScalar(CmpOp op, const T& a, const V& b) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

}  // namespace

void ColumnIndex::BuildSelection(Timestamp snapshot, const ExprPtr& filter,
                                 std::vector<uint32_t>* selection,
                                 RowRange range) const {
  std::shared_lock lock(mu_);
  selection->clear();
  const size_t end = std::min(range.end, insert_ts_.size());
  const size_t begin = std::min(range.begin, end);
  const size_t n = end - begin;

  std::vector<SimplePred> simple;
  std::vector<ExprPtr> residual;
  Decompose(filter, &simple, &residual);

  // Pass 1: visibility (vectorized).
  std::vector<uint32_t> sel;
  sel.reserve(n / 2);
  for (uint32_t r = uint32_t(begin); r < end; ++r) {
    if (insert_ts_[r] <= snapshot && snapshot < delete_ts_[r]) {
      sel.push_back(r);
    }
  }

  // Pass 2: one tight loop per simple predicate, shrinking the selection.
  for (const auto& pred : simple) {
    const ColumnVector& col = data_[pred.col];
    std::vector<uint32_t> next;
    next.reserve(sel.size());
    switch (col.type) {
      case ValueType::kInt64: {
        auto lit = ValueAsInt(pred.lit);
        if (!lit.ok()) break;
        int64_t v = *lit;
        for (uint32_t r : sel) {
          if (!col.nulls[r] && CmpScalar(pred.op, col.ints[r], v)) {
            next.push_back(r);
          }
        }
        break;
      }
      case ValueType::kDouble: {
        auto lit = ValueAsDouble(pred.lit);
        if (!lit.ok()) break;
        double v = *lit;
        for (uint32_t r : sel) {
          if (!col.nulls[r] && CmpScalar(pred.op, col.doubles[r], v)) {
            next.push_back(r);
          }
        }
        break;
      }
      case ValueType::kString: {
        const auto* v = std::get_if<std::string>(&pred.lit);
        if (v == nullptr) break;
        for (uint32_t r : sel) {
          if (!col.nulls[r] && CmpScalar(pred.op, col.strings[r], *v)) {
            next.push_back(r);
          }
        }
        break;
      }
      default:
        break;
    }
    sel.swap(next);
  }

  // Pass 3: residual predicates on materialized rows.
  if (!residual.empty()) {
    std::vector<uint32_t> next;
    next.reserve(sel.size());
    Row row(columns_.size());
    for (uint32_t r : sel) {
      for (size_t i = 0; i < columns_.size(); ++i) row[i] = data_[i].Get(r);
      bool pass = true;
      for (const auto& e : residual) {
        if (!e->EvalBool(row)) {
          pass = false;
          break;
        }
      }
      if (pass) next.push_back(r);
    }
    sel.swap(next);
  }
  selection->swap(sel);
}

Row ColumnIndex::MaterializeRow(uint32_t rowid) const {
  std::shared_lock lock(mu_);
  Row row(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) row[i] = data_[i].Get(rowid);
  return row;
}

void ColumnIndex::MaterializeBatch(const std::vector<uint32_t>& selection,
                                   size_t start, size_t count,
                                   const std::vector<int>& cols,
                                   std::vector<Row>* out) const {
  std::shared_lock lock(mu_);
  const size_t end = std::min(start + count, selection.size());
  for (size_t i = start; i < end; ++i) {
    const uint32_t r = selection[i];
    Row row;
    if (cols.empty()) {
      row.reserve(columns_.size());
      for (size_t c = 0; c < columns_.size(); ++c) {
        row.push_back(data_[c].Get(r));
      }
    } else {
      row.reserve(cols.size());
      for (int c : cols) row.push_back(data_[c].Get(r));
    }
    out->push_back(std::move(row));
  }
}

double ColumnIndex::SumSelected(int col,
                                const std::vector<uint32_t>& selection) const {
  std::shared_lock lock(mu_);
  const ColumnVector& c = data_[col];
  double sum = 0;
  if (c.type == ValueType::kInt64) {
    for (uint32_t r : selection) {
      if (!c.nulls[r]) sum += double(c.ints[r]);
    }
  } else if (c.type == ValueType::kDouble) {
    for (uint32_t r : selection) {
      if (!c.nulls[r]) sum += c.doubles[r];
    }
  }
  return sum;
}

bool ColumnIndex::EvalNumericVector(const Expr& expr,
                                    const std::vector<uint32_t>& selection,
                                    std::vector<double>* out) const {
  out->resize(selection.size());
  switch (expr.kind()) {
    case Expr::Kind::kColumn: {
      int c = expr.column();
      if (c < 0 || size_t(c) >= data_.size()) return false;
      const ColumnVector& col = data_[c];
      if (col.type == ValueType::kDouble) {
        for (size_t i = 0; i < selection.size(); ++i) {
          (*out)[i] = col.doubles[selection[i]];
        }
        return true;
      }
      if (col.type == ValueType::kInt64) {
        for (size_t i = 0; i < selection.size(); ++i) {
          (*out)[i] = double(col.ints[selection[i]]);
        }
        return true;
      }
      return false;
    }
    case Expr::Kind::kLiteral: {
      auto v = ValueAsDouble(expr.literal());
      if (!v.ok()) return false;
      std::fill(out->begin(), out->end(), *v);
      return true;
    }
    case Expr::Kind::kArith: {
      std::vector<double> lhs, rhs;
      if (!EvalNumericVector(*expr.children()[0], selection, &lhs) ||
          !EvalNumericVector(*expr.children()[1], selection, &rhs)) {
        return false;
      }
      switch (expr.arith_op()) {
        case ArithOp::kAdd:
          for (size_t i = 0; i < lhs.size(); ++i) (*out)[i] = lhs[i] + rhs[i];
          return true;
        case ArithOp::kSub:
          for (size_t i = 0; i < lhs.size(); ++i) (*out)[i] = lhs[i] - rhs[i];
          return true;
        case ArithOp::kMul:
          for (size_t i = 0; i < lhs.size(); ++i) (*out)[i] = lhs[i] * rhs[i];
          return true;
        case ArithOp::kDiv:
          for (size_t i = 0; i < lhs.size(); ++i) {
            (*out)[i] = rhs[i] == 0 ? 0 : lhs[i] / rhs[i];
          }
          return true;
      }
      return false;
    }
    case Expr::Kind::kCase: {
      // cond ? then : else, with cond evaluated row-at-a-time only when the
      // branches vectorize (sufficient for the TPC-H CASE aggregates).
      std::vector<double> then_v, else_v;
      if (!EvalNumericVector(*expr.children()[1], selection, &then_v) ||
          !EvalNumericVector(*expr.children()[2], selection, &else_v)) {
        return false;
      }
      const Expr& cond = *expr.children()[0];
      std::vector<uint8_t> cond_v;
      if (EvalBoolVector(cond, selection, &cond_v)) {
        for (size_t i = 0; i < selection.size(); ++i) {
          (*out)[i] = cond_v[i] ? then_v[i] : else_v[i];
        }
        return true;
      }
      Row row(data_.size());
      for (size_t i = 0; i < selection.size(); ++i) {
        for (size_t c = 0; c < data_.size(); ++c) {
          row[c] = data_[c].Get(selection[i]);
        }
        (*out)[i] = cond.EvalBool(row) ? then_v[i] : else_v[i];
      }
      return true;
    }
    default:
      return false;
  }
}

bool ColumnIndex::EvalBoolVector(const Expr& expr,
                                 const std::vector<uint32_t>& selection,
                                 std::vector<uint8_t>* out) const {
  out->assign(selection.size(), 0);
  switch (expr.kind()) {
    case Expr::Kind::kCompare: {
      const Expr& lhs = *expr.children()[0];
      const Expr& rhs = *expr.children()[1];
      CmpOp op = expr.cmp_op();
      // String column vs literal compares directly on the string vector.
      if (lhs.kind() == Expr::Kind::kColumn && lhs.column() >= 0 &&
          size_t(lhs.column()) < data_.size() &&
          data_[lhs.column()].type == ValueType::kString &&
          rhs.kind() == Expr::Kind::kLiteral) {
        const auto* lit = std::get_if<std::string>(&rhs.literal());
        if (lit == nullptr) return false;
        const ColumnVector& col = data_[lhs.column()];
        for (size_t i = 0; i < selection.size(); ++i) {
          uint32_t r = selection[i];
          (*out)[i] = !col.nulls[r] && CmpScalar(op, col.strings[r], *lit);
        }
        return true;
      }
      std::vector<double> a, b;
      if (!EvalNumericVector(lhs, selection, &a) ||
          !EvalNumericVector(rhs, selection, &b)) {
        return false;
      }
      // A NULL operand makes the comparison false (EvalBool semantics);
      // the numeric vectors carry 0 for NULL slots, so check the flags.
      std::vector<int> cols;
      lhs.CollectColumns(&cols);
      rhs.CollectColumns(&cols);
      for (size_t i = 0; i < selection.size(); ++i) {
        bool null = false;
        for (int c : cols) {
          if (data_[c].nulls[selection[i]]) {
            null = true;
            break;
          }
        }
        (*out)[i] = !null && CmpScalar(op, a[i], b[i]);
      }
      return true;
    }
    case Expr::Kind::kLogic: {
      std::vector<uint8_t> a, b;
      switch (expr.logic_op()) {
        case LogicOp::kAnd:
          if (!EvalBoolVector(*expr.children()[0], selection, &a) ||
              !EvalBoolVector(*expr.children()[1], selection, &b)) {
            return false;
          }
          for (size_t i = 0; i < a.size(); ++i) (*out)[i] = a[i] && b[i];
          return true;
        case LogicOp::kOr:
          if (!EvalBoolVector(*expr.children()[0], selection, &a) ||
              !EvalBoolVector(*expr.children()[1], selection, &b)) {
            return false;
          }
          for (size_t i = 0; i < a.size(); ++i) (*out)[i] = a[i] || b[i];
          return true;
        case LogicOp::kNot:
          if (!EvalBoolVector(*expr.children()[0], selection, &a)) {
            return false;
          }
          for (size_t i = 0; i < a.size(); ++i) (*out)[i] = !a[i];
          return true;
      }
      return false;
    }
    default:
      return false;
  }
}

void ColumnIndex::HashAndFilterSelection(const std::vector<int>& key_cols,
                                         const RuntimeFilter* rf,
                                         std::vector<uint32_t>* selection,
                                         std::vector<uint64_t>* hashes,
                                         uint64_t* tested,
                                         uint64_t* dropped) const {
  std::shared_lock lock(mu_);
  std::vector<uint32_t> kept;
  kept.reserve(selection->size());
  std::vector<uint64_t> kept_hashes;
  if (hashes != nullptr) kept_hashes.reserve(selection->size());
  uint64_t n_tested = 0, n_dropped = 0;
  const bool single_int =
      key_cols.size() == 1 && data_[key_cols[0]].type == ValueType::kInt64;
  if (single_int) {
    const ColumnVector& col = data_[key_cols[0]];
    for (uint32_t r : *selection) {
      const bool null = col.nulls[r];
      const uint64_t h =
          HashCombine(kKeyHashSeed, null ? MixHash64(kHashTagNull)
                                         : Int64CellHash(col.ints[r]));
      if (rf != nullptr) {
        ++n_tested;
        // NULL keys skip the min/max bounds (they carry no int value).
        const bool pass = null ? rf->TestHash(h) : rf->TestKey(col.ints[r], h);
        if (!pass) {
          ++n_dropped;
          continue;
        }
      }
      kept.push_back(r);
      if (hashes != nullptr) kept_hashes.push_back(h);
    }
  } else {
    for (uint32_t r : *selection) {
      uint64_t h = kKeyHashSeed;
      for (int c : key_cols) h = HashCombine(h, CellHash(data_[c].Get(r)));
      if (rf != nullptr) {
        ++n_tested;
        if (!rf->TestHash(h)) {
          ++n_dropped;
          continue;
        }
      }
      kept.push_back(r);
      if (hashes != nullptr) kept_hashes.push_back(h);
    }
  }
  selection->swap(kept);
  if (hashes != nullptr) hashes->swap(kept_hashes);
  if (tested != nullptr) *tested = n_tested;
  if (dropped != nullptr) *dropped = n_dropped;
}

void ColumnIndex::FilterSelection(const RuntimeFilter& rf,
                                  const std::vector<int>& key_cols,
                                  std::vector<uint32_t>* selection,
                                  uint64_t* tested, uint64_t* dropped) const {
  HashAndFilterSelection(key_cols, &rf, selection, nullptr, tested, dropped);
}

namespace {

/// Walks `table`'s chain for key hash `hash` from candidate `i` to the
/// first build row whose key equals the `probe_cols` of index row `rowid`
/// (CellEquals semantics); kNoRow if none.
uint32_t NextMatch(const ColumnIndex& index, const JoinHashTable& table,
                   const std::vector<int>& probe_cols, uint32_t rowid,
                   uint64_t hash, uint32_t i) {
  for (; i != JoinHashTable::kNoRow; i = table.Next(i, hash)) {
    const Row& built = table.row(i);
    bool equal = true;
    for (size_t k = 0; k < probe_cols.size() && equal; ++k) {
      equal = CellEquals(index.column(probe_cols[k]).Get(rowid),
                         built[table.build_keys()[k]]);
    }
    if (equal) return i;
  }
  return JoinHashTable::kNoRow;
}

}  // namespace

ColumnAggOp::ColumnAggOp(const ColumnIndex* index, Timestamp snapshot_ts,
                         ExprPtr filter, std::vector<int> group_cols,
                         std::vector<AggSpec> aggs, AggMode mode,
                         RowRange range)
    : index_(index),
      snapshot_ts_(snapshot_ts),
      filter_(std::move(filter)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      mode_(mode),
      range_(range) {}

void ColumnAggOp::SetSemiJoin(OperatorPtr build, std::vector<int> build_keys,
                              std::vector<int> probe_cols) {
  semi_build_ = std::move(build);
  semi_build_keys_ = std::move(build_keys);
  semi_probe_cols_ = std::move(probe_cols);
}

Status ColumnAggOp::Open() {
  results_.clear();
  pos_ = 0;
  std::vector<uint32_t> selection;
  index_->BuildSelection(snapshot_ts_, filter_, &selection, range_);

  if (semi_build_ != nullptr) {
    // Exact membership in the hash joins' build table, never a bloom test.
    JoinHashTable table;
    POLARX_RETURN_NOT_OK(
        table.Build(semi_build_.get(), semi_build_keys_, false));
    std::vector<uint64_t> hashes;
    uint64_t tested = 0, dropped = 0;
    index_->HashAndFilterSelection(semi_probe_cols_, nullptr, &selection,
                                   &hashes, &tested, &dropped);
    std::vector<uint32_t> kept;
    kept.reserve(selection.size());
    for (size_t i = 0; i < selection.size(); ++i) {
      if (NextMatch(*index_, table, semi_probe_cols_, selection[i], hashes[i],
                    table.First(hashes[i])) != JoinHashTable::kNoRow) {
        kept.push_back(selection[i]);
      }
    }
    selection.swap(kept);
  }

  // Group id per selected row.
  std::unordered_map<std::string, uint32_t> group_ids;
  std::vector<uint32_t> row_group(selection.size());
  std::vector<Row> group_values;
  if (group_cols_.empty()) {
    group_ids.emplace("", 0);
    group_values.push_back({});
    std::fill(row_group.begin(), row_group.end(), 0);
  } else {
    bool int_groups = true;
    for (int c : group_cols_) {
      if (index_->column(c).type != ValueType::kInt64) {
        int_groups = false;
        break;
      }
    }
    EncodedKey key;
    for (size_t i = 0; i < selection.size(); ++i) {
      key.clear();
      if (int_groups) {
        // Packed 9 bytes per column (null flag + raw bits): injective for
        // grouping and much cheaper than the memcomparable encoding.
        for (int c : group_cols_) {
          const ColumnVector& col = index_->column(c);
          uint32_t r = selection[i];
          bool null = col.nulls[r];
          key.push_back(null ? '\1' : '\0');
          int64_t v = null ? 0 : col.ints[r];
          key.append(reinterpret_cast<const char*>(&v), sizeof(v));
        }
      } else {
        for (int c : group_cols_) {
          EncodeValue(index_->column(c).Get(selection[i]), &key);
        }
      }
      auto [it, inserted] =
          group_ids.emplace(key, uint32_t(group_values.size()));
      if (inserted) {
        Row group;
        group.reserve(group_cols_.size());
        for (int c : group_cols_) {
          group.push_back(index_->column(c).Get(selection[i]));
        }
        group_values.push_back(std::move(group));
      }
      row_group[i] = it->second;
    }
  }

  const size_t ngroups = group_values.size();
  // Accumulate each aggregate vectorized.
  struct Acc {
    std::vector<double> sum;
    std::vector<int64_t> count;
  };
  std::vector<Acc> accs(aggs_.size());
  for (size_t a = 0; a < aggs_.size(); ++a) {
    accs[a].sum.assign(ngroups, 0);
    accs[a].count.assign(ngroups, 0);
    const AggSpec& spec = aggs_[a];
    if (spec.op == AggOp::kCount && spec.expr == nullptr) {
      for (size_t i = 0; i < selection.size(); ++i) {
        ++accs[a].count[row_group[i]];
      }
      continue;
    }
    std::vector<double> values;
    if (spec.expr != nullptr &&
        index_->EvalNumericVector(*spec.expr, selection, &values)) {
      for (size_t i = 0; i < selection.size(); ++i) {
        accs[a].sum[row_group[i]] += values[i];
        ++accs[a].count[row_group[i]];
      }
    } else {
      // Fallback: row-at-a-time.
      for (size_t i = 0; i < selection.size(); ++i) {
        Row row = index_->MaterializeRow(selection[i]);
        auto v = ValueAsDouble(spec.expr->Eval(row));
        if (v.ok()) {
          accs[a].sum[row_group[i]] += *v;
          ++accs[a].count[row_group[i]];
        }
      }
    }
  }

  // Emit in HashAggOp-compatible layout. Min/max are not vectorized here;
  // plans that need them over a column index use ColumnScanOp + HashAggOp.
  for (size_t g = 0; g < ngroups; ++g) {
    Row row = group_values[g];
    for (size_t a = 0; a < aggs_.size(); ++a) {
      switch (aggs_[a].op) {
        case AggOp::kCount:
          row.push_back(accs[a].count[g]);
          break;
        case AggOp::kSum:
          row.push_back(accs[a].sum[g]);
          break;
        case AggOp::kAvg:
          if (mode_ == AggMode::kPartial) {
            row.push_back(accs[a].sum[g]);
            row.push_back(accs[a].count[g]);
          } else {
            row.push_back(accs[a].count[g] == 0
                              ? Value{}
                              : Value{accs[a].sum[g] /
                                      double(accs[a].count[g])});
          }
          break;
        case AggOp::kMin:
        case AggOp::kMax:
          return Status::NotSupported(
              "min/max not supported by ColumnAggOp");
      }
    }
    results_.push_back(std::move(row));
  }
  return Status::Ok();
}

Status ColumnAggOp::Next(Batch* out) {
  out->rows.clear();
  while (pos_ < results_.size() && out->rows.size() < kExecBatchSize) {
    out->rows.push_back(std::move(results_[pos_++]));
  }
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

ColumnScanOp::ColumnScanOp(const ColumnIndex* index, Timestamp snapshot_ts,
                           ExprPtr filter, std::vector<int> projection,
                           RowRange range)
    : index_(index),
      snapshot_ts_(snapshot_ts),
      filter_(std::move(filter)),
      projection_(std::move(projection)),
      range_(range) {}

Status ColumnScanOp::Open() {
  index_->BuildSelection(snapshot_ts_, filter_, &selection_, range_);
  if (rf_slot_ != nullptr && rf_slot_->filter != nullptr) {
    // Map the slot's projected-output key positions back to index columns,
    // then prune the selection before any row is materialized.
    std::vector<int> key_cols;
    key_cols.reserve(rf_slot_->key_cols.size());
    for (int k : rf_slot_->key_cols) {
      key_cols.push_back(projection_.empty() ? k : projection_[k]);
    }
    uint64_t tested = 0, dropped = 0;
    index_->FilterSelection(*rf_slot_->filter, key_cols, &selection_, &tested,
                            &dropped);
    AddScanFilterStats(tested, dropped);
  }
  pos_ = 0;
  return Status::Ok();
}

Status ColumnScanOp::Next(Batch* out) {
  out->rows.clear();
  if (pos_ < selection_.size()) {
    const size_t n = std::min(kExecBatchSize, selection_.size() - pos_);
    out->rows.reserve(n);
    index_->MaterializeBatch(selection_, pos_, n, projection_, &out->rows);
    pos_ += n;
  }
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

ColumnHashJoinOp::ColumnHashJoinOp(const ColumnIndex* index,
                                   Timestamp snapshot_ts, ExprPtr probe_filter,
                                   std::vector<int> projection,
                                   std::vector<int> probe_keys,
                                   OperatorPtr build,
                                   std::vector<int> build_keys, JoinType type,
                                   bool use_runtime_filter, RowRange range,
                                   std::shared_ptr<JoinHashTable> shared)
    : index_(index),
      snapshot_ts_(snapshot_ts),
      probe_filter_(std::move(probe_filter)),
      projection_(std::move(projection)),
      probe_keys_(std::move(probe_keys)),
      build_(std::move(build)),
      build_keys_(std::move(build_keys)),
      type_(type),
      use_runtime_filter_(use_runtime_filter),
      range_(range),
      table_(shared != nullptr ? std::move(shared)
                               : std::make_shared<JoinHashTable>()) {
  probe_key_cols_.reserve(probe_keys_.size());
  for (int k : probe_keys_) {
    probe_key_cols_.push_back(projection_.empty() ? k : projection_[k]);
  }
}

Status ColumnHashJoinOp::Open() {
  if (type_ == JoinType::kLeftOuter) {
    return Status::NotSupported("ColumnHashJoinOp: left outer join");
  }
  pos_ = 0;
  // Anti joins keep exactly the rows a filter would prune, so they never
  // build one; inner/semi get the bloom + bounds summary from the pass
  // that fills the hash table.
  const bool prune =
      use_runtime_filter_ &&
      (type_ == JoinType::kInner || type_ == JoinType::kLeftSemi);
  POLARX_RETURN_NOT_OK(table_->Build(build_.get(), build_keys_, prune));

  index_->BuildSelection(snapshot_ts_, probe_filter_, &selection_, range_);
  uint64_t tested = 0, dropped = 0;
  index_->HashAndFilterSelection(
      probe_key_cols_, prune ? table_->filter().get() : nullptr, &selection_,
      &probe_hashes_, &tested, &dropped);
  AddScanFilterStats(tested, dropped);
  return Status::Ok();
}

Status ColumnHashJoinOp::Next(Batch* out) {
  out->rows.clear();
  uint64_t probed = 0;
  // Probe first, collecting only surviving row ids (plus the matched build
  // row for inner joins); the survivors then materialize in one batched
  // pass — one index lock and only the projected columns, instead of a
  // full-width materialization per row. A batch may exceed kExecBatchSize
  // by the duplicate matches of its last probe row (same tolerance as
  // ValuesOp sources — downstream operators iterate rows, not batch
  // slots).
  hits_.clear();
  hit_build_.clear();
  const JoinHashTable& table = *table_;
  while (pos_ < selection_.size() && hits_.size() < kExecBatchSize) {
    const uint32_t rowid = selection_[pos_];
    const uint64_t hash = probe_hashes_[pos_];
    ++pos_;
    ++probed;
    uint32_t match = NextMatch(*index_, table, probe_key_cols_, rowid, hash,
                               table.First(hash));
    if (type_ == JoinType::kInner) {
      for (; match != JoinHashTable::kNoRow;
           match = NextMatch(*index_, table, probe_key_cols_, rowid, hash,
                             table.Next(match, hash))) {
        hits_.push_back(rowid);
        hit_build_.push_back(match);
      }
    } else if ((match != JoinHashTable::kNoRow) ==
               (type_ == JoinType::kLeftSemi)) {
      hits_.push_back(rowid);
    }
  }
  out->rows.reserve(hits_.size());
  index_->MaterializeBatch(hits_, 0, hits_.size(), projection_, &out->rows);
  if (type_ == JoinType::kInner) {
    for (size_t i = 0; i < hit_build_.size(); ++i) {
      const Row& build_row = table.row(hit_build_[i]);
      out->rows[i].insert(out->rows[i].end(), build_row.begin(),
                          build_row.end());
    }
  }
  AddJoinProbeRows(probed);
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

void ColumnHashJoinOp::Close() {
  selection_.clear();
  probe_hashes_.clear();
}

}  // namespace polarx
