#include "src/colindex/column_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <mutex>
#include <span>
#include <string_view>
#include <type_traits>

#include "src/exec/key_word_table.h"
#include "src/storage/key_codec.h"

namespace polarx {

void ColumnVector::Append(const Value& v) {
  bool null = IsNull(v);
  nulls.push_back(null);
  null_count += null;
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

/// A comparison of an indexed column with a literal, extracted from a
/// conjunction for the tight pass-2 loops.
struct SimplePred {
  int col;
  CmpOp op;
  Value lit;
};

/// True when the typed array of a `type` column decides a comparison with
/// `lit` exactly as CompareValues does: int64 vs int64, double vs int64 or
/// double (compared as doubles there too), string vs string. Other pairs
/// (an int64 column vs 10.5 or 'x', a string column vs 5) go to the
/// residual pass, which follows CompareValues across types.
bool TypedLiteral(ValueType type, const Value& lit) {
  switch (type) {
    case ValueType::kInt64:
      return std::holds_alternative<int64_t>(lit);
    case ValueType::kDouble:
      return std::holds_alternative<int64_t>(lit) ||
             std::holds_alternative<double>(lit);
    case ValueType::kString:
      return std::holds_alternative<std::string>(lit);
    default:
      return false;
  }
}

/// Splits the conjunction `expr` into simple predicates and residual
/// conjuncts.
void Decompose(const ExprPtr& expr, const std::vector<ColumnVector>& data,
               std::vector<SimplePred>* simple,
               std::vector<ExprPtr>* residual) {
  if (expr == nullptr) return;
  if (expr->kind() == Expr::Kind::kLogic &&
      expr->logic_op() == LogicOp::kAnd) {
    Decompose(expr->children()[0], data, simple, residual);
    Decompose(expr->children()[1], data, simple, residual);
    return;
  }
  if (expr->kind() == Expr::Kind::kCompare) {
    const Expr& lhs = *expr->children()[0];
    const Expr& rhs = *expr->children()[1];
    if (lhs.kind() == Expr::Kind::kColumn && lhs.column() >= 0 &&
        size_t(lhs.column()) < data.size() &&
        rhs.kind() == Expr::Kind::kLiteral &&
        TypedLiteral(data[lhs.column()].type, rhs.literal())) {
      simple->push_back(
          SimplePred{lhs.column(), expr->cmp_op(), rhs.literal()});
      return;
    }
  }
  residual->push_back(expr);
}

/// Three-way comparison in CompareValues' order for two operands of one
/// type (a NaN compares equal to everything, as it does there).
template <typename T,
          typename = std::enable_if_t<std::is_arithmetic_v<T>>>
int Cmp3(T a, T b) {
  return a < b ? -1 : (b < a ? 1 : 0);
}
int Cmp3(std::string_view a, std::string_view b) {
  const int c = a.compare(b);
  return (c > 0) - (c < 0);
}

constexpr bool Holds(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

/// Calls `f(std::integral_constant<CmpOp, op>{})`, so a loop over a
/// selection compiles once per operator instead of switching per row.
template <typename F>
void WithOp(CmpOp op, F&& f) {
  using C = CmpOp;
  switch (op) {
    case C::kEq: return f(std::integral_constant<C, C::kEq>{});
    case C::kNe: return f(std::integral_constant<C, C::kNe>{});
    case C::kLt: return f(std::integral_constant<C, C::kLt>{});
    case C::kLe: return f(std::integral_constant<C, C::kLe>{});
    case C::kGt: return f(std::integral_constant<C, C::kGt>{});
    case C::kGe: return f(std::integral_constant<C, C::kGe>{});
  }
}

/// One scalar expression over a selection, typed the way Expr::Eval types
/// it: int64 for int64 columns and literals, Year(), and +,-,* of two int64
/// operands; double for other arithmetic; views into the column or literal
/// for strings and Substr(). `null[i]` marks rows where Eval is NULL.
struct TypedVector {
  ValueType type = ValueType::kInt64;  // kInt64, kDouble or kString
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string_view> strs;
  std::vector<uint8_t> null;

  bool numeric() const { return type != ValueType::kString; }
};

void ToDoubles(TypedVector* v) {
  if (v->type != ValueType::kInt64) return;
  v->doubles.assign(v->ints.begin(), v->ints.end());
  v->type = ValueType::kDouble;
}

bool EvalBoolVec(const std::vector<ColumnVector>& data, const Expr& expr,
                 std::span<const uint32_t> sel, std::vector<uint8_t>* out);

/// Calls `f(i, row)` for each selected row, `row` holding only the
/// columns `expr` references (the others stay NULL, as unreferenced cells
/// never matter to it).
template <typename F>
void ForEachRow(const std::vector<ColumnVector>& data, const Expr& expr,
                std::span<const uint32_t> sel, F&& f) {
  std::vector<int> cols;
  expr.CollectColumns(&cols);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  cols.erase(std::remove_if(cols.begin(), cols.end(),
                            [&](int c) {
                              return c < 0 || size_t(c) >= data.size();
                            }),
             cols.end());
  Row row(cols.empty() ? 0 : size_t(cols.back()) + 1);
  for (size_t i = 0; i < sel.size(); ++i) {
    for (int c : cols) row[c] = data[c].Get(sel[i]);
    f(i, row);
  }
}

/// Row-at-a-time EvalBool, on rows of just the columns `expr` reads.
void EvalBoolRows(const std::vector<ColumnVector>& data, const Expr& expr,
                  std::span<const uint32_t> sel, std::vector<uint8_t>* out) {
  out->resize(sel.size());
  ForEachRow(data, expr, sel,
             [&](size_t i, const Row& row) { (*out)[i] = expr.EvalBool(row); });
}

/// Evaluates `expr` over `sel` into `out`; false when its shape is not
/// covered (string arithmetic, comparisons used as values, a CASE whose
/// branches differ in type, ...).
bool EvalTyped(const std::vector<ColumnVector>& data, const Expr& expr,
               std::span<const uint32_t> sel, TypedVector* out) {
  const size_t n = sel.size();
  out->null.assign(n, 0);
  switch (expr.kind()) {
    case Expr::Kind::kColumn: {
      const int c = expr.column();
      if (c < 0 || size_t(c) >= data.size()) return false;
      const ColumnVector& col = data[c];
      out->type = col.type;
      if (col.null_count != 0) {
        for (size_t i = 0; i < n; ++i) out->null[i] = col.nulls[sel[i]];
      }
      switch (col.type) {
        case ValueType::kInt64:
          out->ints.resize(n);
          for (size_t i = 0; i < n; ++i) out->ints[i] = col.ints[sel[i]];
          return true;
        case ValueType::kDouble:
          out->doubles.resize(n);
          for (size_t i = 0; i < n; ++i) {
            out->doubles[i] = col.doubles[sel[i]];
          }
          return true;
        case ValueType::kString:
          out->strs.resize(n);
          for (size_t i = 0; i < n; ++i) out->strs[i] = col.strings[sel[i]];
          return true;
        default:
          return false;
      }
    }
    case Expr::Kind::kLiteral: {
      const Value& v = expr.literal();
      if (const auto* i = std::get_if<int64_t>(&v)) {
        out->type = ValueType::kInt64;
        out->ints.assign(n, *i);
      } else if (const auto* d = std::get_if<double>(&v)) {
        out->type = ValueType::kDouble;
        out->doubles.assign(n, *d);
      } else if (const auto* s = std::get_if<std::string>(&v)) {
        out->type = ValueType::kString;
        out->strs.assign(n, *s);
      } else {
        out->type = ValueType::kInt64;
        out->ints.assign(n, 0);
        out->null.assign(n, 1);
      }
      return true;
    }
    case Expr::Kind::kArith: {
      TypedVector a, b;
      if (!EvalTyped(data, *expr.children()[0], sel, &a) ||
          !EvalTyped(data, *expr.children()[1], sel, &b) || !a.numeric() ||
          !b.numeric()) {
        return false;
      }
      for (size_t i = 0; i < n; ++i) out->null[i] = a.null[i] | b.null[i];
      const ArithOp op = expr.arith_op();
      if (a.type == ValueType::kInt64 && b.type == ValueType::kInt64 &&
          op != ArithOp::kDiv) {
        // Two's-complement wraparound, computed unsigned to stay defined.
        out->type = ValueType::kInt64;
        out->ints.resize(n);
        auto run = [&](auto f) {
          for (size_t i = 0; i < n; ++i) {
            out->ints[i] =
                int64_t(f(uint64_t(a.ints[i]), uint64_t(b.ints[i])));
          }
        };
        if (op == ArithOp::kAdd) run(std::plus<>());
        if (op == ArithOp::kSub) run(std::minus<>());
        if (op == ArithOp::kMul) run(std::multiplies<>());
        return true;
      }
      ToDoubles(&a);
      ToDoubles(&b);
      out->type = ValueType::kDouble;
      out->doubles.resize(n);
      auto run = [&](auto f) {
        for (size_t i = 0; i < n; ++i) {
          out->doubles[i] = f(a.doubles[i], b.doubles[i]);
        }
      };
      switch (op) {
        case ArithOp::kAdd: run(std::plus<>()); break;
        case ArithOp::kSub: run(std::minus<>()); break;
        case ArithOp::kMul: run(std::multiplies<>()); break;
        case ArithOp::kDiv:
          run([](double x, double y) { return y == 0 ? 0.0 : x / y; });
          break;
      }
      return true;
    }
    case Expr::Kind::kCase: {
      TypedVector then_v, else_v;
      if (!EvalTyped(data, *expr.children()[1], sel, &then_v) ||
          !EvalTyped(data, *expr.children()[2], sel, &else_v) ||
          !then_v.numeric() || then_v.type != else_v.type) {
        return false;
      }
      const Expr& cond = *expr.children()[0];
      std::vector<uint8_t> pick;
      if (!EvalBoolVec(data, cond, sel, &pick)) {
        EvalBoolRows(data, cond, sel, &pick);
      }
      out->type = then_v.type;
      for (size_t i = 0; i < n; ++i) {
        out->null[i] = pick[i] ? then_v.null[i] : else_v.null[i];
      }
      if (out->type == ValueType::kInt64) {
        out->ints.resize(n);
        for (size_t i = 0; i < n; ++i) {
          out->ints[i] = pick[i] ? then_v.ints[i] : else_v.ints[i];
        }
      } else {
        out->doubles.resize(n);
        for (size_t i = 0; i < n; ++i) {
          out->doubles[i] = pick[i] ? then_v.doubles[i] : else_v.doubles[i];
        }
      }
      return true;
    }
    case Expr::Kind::kYear: {
      TypedVector d;
      if (!EvalTyped(data, *expr.children()[0], sel, &d) || !d.numeric()) {
        return false;
      }
      out->type = ValueType::kInt64;
      out->null.swap(d.null);
      out->ints.resize(n);
      for (size_t i = 0; i < n; ++i) {
        // ValueAsInt rounds a double day number, as Eval does.
        out->ints[i] = YearOfDays(d.type == ValueType::kInt64
                                      ? d.ints[i]
                                      : std::llround(d.doubles[i]));
      }
      return true;
    }
    case Expr::Kind::kSubstr: {
      TypedVector s;
      if (expr.substr_pos() < 0 ||
          !EvalTyped(data, *expr.children()[0], sel, &s)) {
        return false;
      }
      out->type = ValueType::kString;
      out->strs.assign(n, std::string_view());
      if (!s.numeric()) {
        out->null.swap(s.null);
        const size_t pos = size_t(expr.substr_pos());
        const size_t len = size_t(expr.substr_len());
        for (size_t i = 0; i < n; ++i) {
          if (pos < s.strs[i].size()) {
            out->strs[i] = s.strs[i].substr(pos, len);
          }
        }
      } else {
        out->null.assign(n, 1);  // Substr of a number is NULL
      }
      return true;
    }
    default:
      return false;
  }
}

/// `a <op> b` row by row with CompareValues' rules: int64 pairs compare
/// exactly, other number pairs as doubles, strings bytewise, every number
/// below every string, and a NULL side makes the row false.
void CompareVectors(CmpOp op, TypedVector* a, TypedVector* b,
                    std::vector<uint8_t>* out) {
  const size_t n = a->null.size();
  out->resize(n);
  if (a->numeric() != b->numeric()) {
    const bool holds = Holds(op, a->numeric() ? -1 : 1);
    for (size_t i = 0; i < n; ++i) {
      (*out)[i] = holds && !a->null[i] && !b->null[i];
    }
    return;
  }
  if (a->numeric() && a->type != b->type) {
    ToDoubles(a);
    ToDoubles(b);
  }
  WithOp(op, [&](auto k) {
    constexpr CmpOp kOp = decltype(k)::value;
    auto run = [&](const auto& x, const auto& y) {
      for (size_t i = 0; i < n; ++i) {
        (*out)[i] =
            !a->null[i] && !b->null[i] && Holds(kOp, Cmp3(x[i], y[i]));
      }
    };
    switch (a->type) {
      case ValueType::kInt64: return run(a->ints, b->ints);
      case ValueType::kDouble: return run(a->doubles, b->doubles);
      default: return run(a->strs, b->strs);
    }
  });
}

/// `a IN (set)`: CompareValues(a, member) == 0 for some member, so numbers
/// match numbers (int64 pairs exactly), strings match strings, and a NULL
/// member or a NULL `a` matches nothing.
void InVector(const std::vector<Value>& set, const TypedVector& a,
              std::vector<uint8_t>* out) {
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string_view> strs;
  for (const Value& v : set) {
    if (const auto* i = std::get_if<int64_t>(&v)) ints.push_back(*i);
    if (const auto* d = std::get_if<double>(&v)) doubles.push_back(*d);
    if (const auto* s = std::get_if<std::string>(&v)) strs.push_back(*s);
  }
  auto scan = [&](auto hit) {
    out->resize(a.null.size());
    for (size_t i = 0; i < a.null.size(); ++i) {
      (*out)[i] = !a.null[i] && hit(i);
    }
  };
  auto any_double = [&](double x) {
    return std::any_of(doubles.begin(), doubles.end(),
                       [x](double d) { return Cmp3(x, d) == 0; });
  };
  switch (a.type) {
    case ValueType::kInt64:
      scan([&](size_t i) {
        return std::find(ints.begin(), ints.end(), a.ints[i]) != ints.end() ||
               any_double(double(a.ints[i]));
      });
      break;
    case ValueType::kDouble:
      doubles.insert(doubles.end(), ints.begin(), ints.end());
      scan([&](size_t i) { return any_double(a.doubles[i]); });
      break;
    default:
      scan([&](size_t i) {
        return std::find(strs.begin(), strs.end(), a.strs[i]) != strs.end();
      });
      break;
  }
}

bool EvalBoolVec(const std::vector<ColumnVector>& data, const Expr& expr,
                 std::span<const uint32_t> sel, std::vector<uint8_t>* out) {
  const size_t n = sel.size();
  out->assign(n, 0);
  switch (expr.kind()) {
    case Expr::Kind::kCompare: {
      TypedVector a, b;
      if (!EvalTyped(data, *expr.children()[0], sel, &a) ||
          !EvalTyped(data, *expr.children()[1], sel, &b)) {
        return false;
      }
      CompareVectors(expr.cmp_op(), &a, &b, out);
      return true;
    }
    case Expr::Kind::kLogic: {
      // Two-valued, as EvalBool: a NULL comparison is false, NOT of it
      // true.
      std::vector<uint8_t> a, b;
      if (!EvalBoolVec(data, *expr.children()[0], sel, &a)) return false;
      if (expr.logic_op() == LogicOp::kNot) {
        for (size_t i = 0; i < n; ++i) (*out)[i] = !a[i];
        return true;
      }
      if (!EvalBoolVec(data, *expr.children()[1], sel, &b)) return false;
      for (size_t i = 0; i < n; ++i) {
        (*out)[i] = expr.logic_op() == LogicOp::kAnd ? a[i] && b[i]
                                                     : a[i] || b[i];
      }
      return true;
    }
    case Expr::Kind::kIn: {
      TypedVector a;
      if (!EvalTyped(data, *expr.children()[0], sel, &a)) return false;
      InVector(expr.in_set(), a, out);
      return true;
    }
    case Expr::Kind::kContains:
    case Expr::Kind::kStartsWith: {
      TypedVector s;
      if (!EvalTyped(data, *expr.children()[0], sel, &s)) return false;
      if (s.numeric()) return true;  // NULL for a number: false everywhere
      const std::string_view arg = expr.str_arg();
      const bool contains = expr.kind() == Expr::Kind::kContains;
      for (size_t i = 0; i < n; ++i) {
        (*out)[i] = !s.null[i] &&
                    (contains ? s.strs[i].find(arg) != std::string_view::npos
                              : s.strs[i].substr(0, arg.size()) == arg);
      }
      return true;
    }
    case Expr::Kind::kIsNull: {
      TypedVector v;
      if (!EvalTyped(data, *expr.children()[0], sel, &v)) return false;
      out->swap(v.null);
      return true;
    }
    default: {
      // Any other scalar is true when it is a non-zero number.
      TypedVector v;
      if (!EvalTyped(data, expr, sel, &v)) return false;
      if (v.type == ValueType::kInt64) {
        for (size_t i = 0; i < n; ++i) (*out)[i] = !v.null[i] && v.ints[i];
      } else if (v.type == ValueType::kDouble) {
        for (size_t i = 0; i < n; ++i) {
          (*out)[i] = !v.null[i] && v.doubles[i] != 0;
        }
      }
      return true;
    }
  }
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
  Decompose(filter, data_, &simple, &residual);

  // Pass 1: visibility (vectorized).
  std::vector<uint32_t> sel;
  sel.reserve(n / 2);
  for (uint32_t r = uint32_t(begin); r < end; ++r) {
    if (insert_ts_[r] <= snapshot && snapshot < delete_ts_[r]) {
      sel.push_back(r);
    }
  }

  // Pass 2: one tight loop per simple predicate, compacting the selection
  // in place.
  for (const auto& pred : simple) {
    const ColumnVector& col = data_[pred.col];
    size_t kept = 0;
    auto run = [&](const auto& values, auto lit) {
      WithOp(pred.op, [&](auto k) {
        constexpr CmpOp kOp = decltype(k)::value;
        for (uint32_t r : sel) {
          if (!col.nulls[r] && Holds(kOp, Cmp3(values[r], lit))) {
            sel[kept++] = r;
          }
        }
      });
    };
    if (col.type == ValueType::kInt64) {
      run(col.ints, std::get<int64_t>(pred.lit));
    } else if (col.type == ValueType::kDouble) {
      run(col.doubles, *ValueAsDouble(pred.lit));
    } else {
      run(col.strings, std::string_view(std::get<std::string>(pred.lit)));
    }
    sel.resize(kept);
  }

  // Pass 3: each residual conjunct on the typed arrays; a shape they do
  // not cover runs row at a time on rows of just the columns it reads.
  std::vector<uint8_t> keep;
  for (const auto& e : residual) {
    if (!EvalBoolVec(data_, *e, sel, &keep)) {
      EvalBoolRows(data_, *e, sel, &keep);
    }
    size_t kept = 0;
    for (size_t i = 0; i < sel.size(); ++i) {
      if (keep[i]) sel[kept++] = sel[i];
    }
    sel.resize(kept);
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

bool ColumnIndex::EvalBoolVector(const Expr& expr,
                                 const std::vector<uint32_t>& selection,
                                 std::vector<uint8_t>* out) const {
  std::shared_lock lock(mu_);
  return EvalBoolVec(data_, expr, selection, out);
}

namespace {

/// Sets `hashes` to the RowKeyHash of `key_cols` of each selected row,
/// folding a column at a time, so the rows' hash chains overlap instead of
/// running one after another.
void HashKeyColumns(const std::vector<ColumnVector>& data,
                    const std::vector<int>& key_cols,
                    const std::vector<uint32_t>& selection,
                    std::vector<uint64_t>* hashes) {
  hashes->assign(selection.size(), kKeyHashSeed);
  for (int c : key_cols) {
    const ColumnVector& col = data[c];
    for (size_t i = 0; i < selection.size(); ++i) {
      const uint32_t r = selection[i];
      const uint64_t cell =
          col.nulls[r]                     ? kNullCellHash
          : col.type == ValueType::kInt64  ? Int64CellHash(col.ints[r])
          : col.type == ValueType::kDouble ? DoubleCellHash(col.doubles[r])
                                           : StringCellHash(col.strings[r]);
      (*hashes)[i] = HashCombine((*hashes)[i], cell);
    }
  }
}

/// Sets `keys` to the words of `key_cols` of each selected row as keys of
/// `table`, table.width() per row, and (if kHash) `hashes` to their
/// RowKeyHash, a column at a time. A const `table` is probed: a long string
/// missing from its dictionary gets a word no key holds.
template <bool kHash, typename Table>
void EncodeKeyColumns(const std::vector<ColumnVector>& data,
                      const std::vector<int>& key_cols,
                      const std::vector<uint32_t>& selection, Table& table,
                      std::vector<uint64_t>* keys,
                      std::vector<uint64_t>* hashes) {
  const size_t width = table.width();
  keys->assign(selection.size() * width, 0);
  if (kHash) hashes->assign(selection.size(), kKeyHashSeed);
  for (size_t k = 0; k < key_cols.size(); ++k) {
    const ColumnVector& col = data[key_cols[k]];
    for (size_t i = 0; i < selection.size(); ++i) {
      const uint32_t r = selection[i];
      uint64_t* key = keys->data() + i * width;
      uint64_t cell = kNullCellHash;  // a NULL's word and tag stay 0
      if (!col.nulls[r]) {
        if (col.type == ValueType::kInt64) {
          key[k] = uint64_t(col.ints[r]);
          if (kHash) cell = Int64CellHash(col.ints[r]);
        } else if (col.type == ValueType::kDouble) {
          std::memcpy(&key[k], &col.doubles[r], sizeof(double));
          if (kHash) cell = DoubleCellHash(col.doubles[r]);
        } else {
          if constexpr (std::is_const_v<Table>) {
            key[k] = table.ProbeStringWord(k, col.strings[r]);
          } else {
            key[k] = table.StringWord(k, col.strings[r]);
          }
          if (kHash) cell = StringCellHash(col.strings[r]);
        }
        table.SetTag(key, k, col.type);
      }
      if (kHash) (*hashes)[i] = HashCombine((*hashes)[i], cell);
    }
  }
}

}  // namespace

void ColumnIndex::EncodeKeys(const std::vector<int>& key_cols,
                             const std::vector<uint32_t>& selection,
                             KeyWordTable* table, std::vector<uint64_t>* keys,
                             std::vector<uint64_t>* hashes) const {
  std::shared_lock lock(mu_);
  EncodeKeyColumns<true>(data_, key_cols, selection, *table, keys, hashes);
}

void ColumnIndex::EncodeKeys(const std::vector<int>& key_cols,
                             const std::vector<uint32_t>& selection,
                             const KeyWordTable& table,
                             std::vector<uint64_t>* keys,
                             std::vector<uint64_t>* hashes,
                             bool hashed) const {
  std::shared_lock lock(mu_);
  if (hashed) {
    EncodeKeyColumns<false>(data_, key_cols, selection, table, keys, hashes);
  } else {
    EncodeKeyColumns<true>(data_, key_cols, selection, table, keys, hashes);
  }
}

void ColumnIndex::FilterSelection(const RuntimeFilter& rf,
                                  const std::vector<int>& key_cols,
                                  std::vector<uint32_t>* selection,
                                  uint64_t* tested, uint64_t* dropped,
                                  std::vector<uint64_t>* kept_hashes) const {
  std::shared_lock lock(mu_);
  std::vector<uint64_t> hashes;
  HashKeyColumns(data_, key_cols, *selection, &hashes);
  // Only a single int64 key column meets the bounds; NULL keys skip them
  // (they carry no int value).
  const ColumnVector* ints =
      key_cols.size() == 1 && data_[key_cols[0]].type == ValueType::kInt64
          ? &data_[key_cols[0]]
          : nullptr;
  size_t kept = 0;
  for (size_t i = 0; i < selection->size(); ++i) {
    const uint32_t r = (*selection)[i];
    const bool pass = ints != nullptr && !ints->nulls[r]
                          ? rf.TestKey(ints->ints[r], hashes[i])
                          : rf.TestHash(hashes[i]);
    if (pass) {
      (*selection)[kept] = r;
      hashes[kept++] = hashes[i];
    }
  }
  *tested = selection->size();
  *dropped = selection->size() - kept;
  selection->resize(kept);
  if (kept_hashes != nullptr) {
    hashes.resize(kept);
    kept_hashes->swap(hashes);
  }
}

Status ProbeColumnJoin(const ColumnIndex& index, Timestamp snapshot,
                       const ExprPtr& filter, RowRange range,
                       const ColumnJoinProbe& join,
                       std::vector<uint32_t>* selection,
                       std::vector<uint32_t>* matches) {
  JoinHashTable& table = *join.build.table;
  POLARX_RETURN_NOT_OK(table.Build(join.build.num_slices, join.build.slice,
                                   join.build_keys, join.use_runtime_filter));

  index.BuildSelection(snapshot, filter, selection, range);
  std::vector<uint64_t> keys, hashes;
  const bool filtered = join.use_runtime_filter && table.filter() != nullptr;
  if (filtered) {
    // Filtering on the hashes first spares the dropped rows their words;
    // the survivors keep their hashes for the lookups.
    uint64_t tested = 0, dropped = 0;
    index.FilterSelection(*table.filter(), join.probe_cols, selection,
                          &tested, &dropped, &hashes);
    AddScanFilterStats(tested, dropped);
  }
  index.EncodeKeys(join.probe_cols, *selection, table.keys(), &keys, &hashes,
                   /*hashed=*/filtered);
  const size_t width = table.keys().width();
  matches->resize(selection->size());
  for (size_t i = 0; i < selection->size(); ++i) {
    (*matches)[i] = table.First(keys.data() + i * width, hashes[i]);
  }
  AddJoinProbeRows(selection->size());
  return Status::Ok();
}

namespace {

/// Whether two aggregate inputs are one expression: the same node, or
/// references to the same column.
bool SameInput(const Expr& a, const Expr& b) {
  return &a == &b || (a.kind() == Expr::Kind::kColumn &&
                      b.kind() == Expr::Kind::kColumn &&
                      a.column() == b.column());
}

/// The least and greatest value of one int64 or double aggregate input in
/// every group, for the min and max aggregates that read it, folded in one
/// pass over each block (Q21's late CASE feeds both). EvalTyped types an
/// input by its shape and its columns' types alone, so every block of one
/// input has the same type.
struct TypedExtremes {
  bool min = false, max = false;      // which of the two an aggregate reads
  ValueType type = ValueType::kNull;  // kInt64 or kDouble once folded
  std::vector<int64_t> ints[2];       // [0] least, [1] greatest, per group
  std::vector<double> doubles[2];
  std::vector<uint8_t> seen;          // the group has had a non-NULL input

  void Fold(const TypedVector& v, const uint32_t* group, size_t ngroups) {
    if (type == ValueType::kNull) {
      type = v.type;
      seen.resize(ngroups);
      for (int side : {0, 1}) {
        const bool used = side == 0 ? min : max;
        ints[side].resize(used && type == ValueType::kInt64 ? ngroups : 0);
        doubles[side].resize(used && type == ValueType::kDouble ? ngroups : 0);
      }
    }
    if (type == ValueType::kInt64) {
      FoldAs(v.ints, v.null, group, ints);
    } else {
      FoldAs(v.doubles, v.null, group, doubles);
    }
  }

  /// The fold of aggregate `op` (kMin or kMax) for group `g`, NULL when
  /// the group had no non-NULL input.
  Value Get(AggOp op, size_t g) const {
    const int side = op == AggOp::kMin ? 0 : 1;
    if (type == ValueType::kNull || !seen[g]) return Value{};
    if (type == ValueType::kInt64) return Value{ints[side][g]};
    return Value{doubles[side][g]};
  }

 private:
  template <typename T>
  void FoldAs(const std::vector<T>& in, const std::vector<uint8_t>& null,
              const uint32_t* group, std::vector<T>* slots) {
    if (min && max) {
      Run<true, true>(in, null, group, slots);
    } else if (min) {
      Run<true, false>(in, null, group, slots);
    } else {
      Run<false, true>(in, null, group, slots);
    }
  }

  /// Skips NULLs. A slot takes an input strictly below (least) or above
  /// (greatest) it, so it keeps the first of equal ones, and a NaN
  /// neither displaces nor is displaced once held, as under CompareValues.
  /// The selects compile to conditional moves, which a group's
  /// unpredictable inputs would otherwise make mispredicted branches.
  template <bool kMin, bool kMax, typename T>
  void Run(const std::vector<T>& in, const std::vector<uint8_t>& null,
           const uint32_t* group, std::vector<T>* slots) {
    // Raw pointers: a store through `set` could alias the vectors'
    // members, which the loop would then reload on every row.
    const T* x = in.data();
    const uint8_t* skip = null.data();
    T* lo = slots[0].data();
    T* hi = slots[1].data();
    uint8_t* set = seen.data();
    for (size_t i = 0, n = in.size(); i < n; ++i) {
      if (skip[i]) continue;
      const uint32_t g = group[i];
      const T v = x[i];
      if (!set[g]) {
        if (kMin) lo[g] = v;
        if (kMax) hi[g] = v;
        set[g] = 1;
        continue;
      }
      if (kMin) lo[g] = v < lo[g] ? v : lo[g];
      if (kMax) hi[g] = hi[g] < v ? v : hi[g];
    }
  }
};

}  // namespace

ColumnAggOp::ColumnAggOp(const ColumnIndex* index, Timestamp snapshot_ts,
                         ExprPtr filter, std::vector<int> group_cols,
                         std::vector<AggSpec> aggs, AggMode mode,
                         RowRange range,
                         std::optional<ColumnJoinProbe> semi_join)
    : index_(index),
      snapshot_ts_(snapshot_ts),
      filter_(std::move(filter)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      mode_(mode),
      range_(range),
      semi_join_(std::move(semi_join)) {}

Status ColumnAggOp::Open() {
  results_.clear();
  pos_ = 0;
  std::vector<uint32_t> selection;
  if (semi_join_) {
    std::vector<uint32_t> matches;
    POLARX_RETURN_NOT_OK(ProbeColumnJoin(*index_, snapshot_ts_, filter_,
                                         range_, *semi_join_, &selection,
                                         &matches));
    size_t kept = 0;
    for (size_t i = 0; i < selection.size(); ++i) {
      if (matches[i] != JoinHashTable::kNoRow) selection[kept++] = selection[i];
    }
    selection.resize(kept);
  } else {
    index_->BuildSelection(snapshot_ts_, filter_, &selection, range_);
  }

  // Group id per selected row, numbered in first-seen order by the
  // executor's key table, whose keys the index encodes a column at a time.
  KeyWordTable table(group_cols_.size());
  std::vector<uint64_t> keys, hashes;
  index_->EncodeKeys(group_cols_, selection, &table, &keys, &hashes);
  std::vector<uint32_t> row_group(selection.size());
  std::vector<uint32_t> group_first;  // first selected row of each group
  for (size_t i = 0; i < selection.size(); ++i) {
    bool inserted = false;
    row_group[i] = table.FindOrInsert(keys.data() + i * table.width(),
                                      hashes[i], &inserted);
    if (inserted) group_first.push_back(selection[i]);
  }
  // A global aggregate (no group columns: one key) has its row even when
  // no row is selected.
  if (group_cols_.empty() && group_first.empty()) group_first.push_back(0);

  // The distinct inputs: aggregate a reads inputs[input_of[a]] (-1 for
  // COUNT(*)).
  const size_t ngroups = group_first.size(), naggs = aggs_.size();
  auto is_extreme = [](AggOp op) {
    return op == AggOp::kMin || op == AggOp::kMax;
  };
  std::vector<const Expr*> inputs;
  std::vector<int> input_of(naggs, -1);
  for (size_t a = 0; a < naggs; ++a) {
    const ExprPtr& expr = aggs_[a].expr;
    if (expr == nullptr) continue;
    size_t k = 0;
    while (k < inputs.size() && !SameInput(*inputs[k], *expr)) ++k;
    if (k == inputs.size()) inputs.push_back(expr.get());
    input_of[a] = int(k);
  }
  // HashAggOp's accumulators: group g's state of aggregate a is
  // accs[g * naggs + a]. Min/max of a typed input keep their extremes per
  // input (typed_extremes[k]), of any other input a Value per group per
  // aggregate (value_extremes[a]).
  std::vector<AggAcc> accs(ngroups * naggs);
  std::vector<TypedExtremes> typed_extremes(inputs.size());
  std::vector<std::vector<Value>> value_extremes(naggs);
  for (size_t a = 0; a < naggs; ++a) {
    if (input_of[a] < 0) continue;
    if (aggs_[a].op == AggOp::kMin) typed_extremes[input_of[a]].min = true;
    if (aggs_[a].op == AggOp::kMax) typed_extremes[input_of[a]].max = true;
  }

  std::shared_lock lock(index_->mu_);
  const std::vector<ColumnVector>& data = index_->data_;
  // Per input: whether it evaluates typed (decided on the first block),
  // and its values over the current block, typed or as Values.
  enum class Path { kUnknown, kTyped, kRows };
  std::vector<Path> how(inputs.size(), Path::kUnknown);
  std::vector<TypedVector> typed(inputs.size());
  std::vector<std::vector<Value>> values(inputs.size());
  for (size_t begin = 0; begin < selection.size(); begin += kExecBatchSize) {
    const std::span<const uint32_t> block(
        selection.data() + begin,
        std::min(kExecBatchSize, selection.size() - begin));
    const uint32_t* group = row_group.data() + begin;
    for (size_t k = 0; k < inputs.size(); ++k) {
      if (how[k] != Path::kRows) {
        const bool ok = EvalTyped(data, *inputs[k], block, &typed[k]) &&
                        typed[k].numeric();
        how[k] = ok ? Path::kTyped : Path::kRows;
      }
      if (how[k] == Path::kTyped) {
        TypedExtremes& ext = typed_extremes[k];
        if (ext.min || ext.max) ext.Fold(typed[k], group, ngroups);
        continue;
      }
      values[k].resize(block.size());
      ForEachRow(data, *inputs[k], block, [&](size_t i, const Row& row) {
        values[k][i] = inputs[k]->Eval(row);
      });
    }
    for (size_t a = 0; a < naggs; ++a) {
      const AggOp op = aggs_[a].op;
      AggAcc* acc = accs.data() + a;
      if (input_of[a] < 0) {  // COUNT(*)
        for (size_t i = 0; i < block.size(); ++i) {
          ++acc[group[i] * naggs].count;
        }
        continue;
      }
      const size_t k = size_t(input_of[a]);
      if (how[k] == Path::kRows) {
        Value* ext = nullptr;
        if (is_extreme(op)) {
          value_extremes[a].resize(ngroups);
          ext = value_extremes[a].data();
        }
        for (size_t i = 0; i < block.size(); ++i) {
          const uint32_t g = group[i];
          FoldAggInput(op, values[k][i], &acc[g * naggs],
                       ext != nullptr ? &ext[g] : nullptr);
        }
        continue;
      }
      if (is_extreme(op)) continue;  // folded per input above
      // COUNT counts the non-NULL inputs; SUM and AVG also add them.
      const TypedVector& v = typed[k];
      auto fold = [&](auto value) {
        for (size_t i = 0; i < block.size(); ++i) {
          if (v.null[i]) continue;
          AggAcc& s = acc[group[i] * naggs];
          s.sum += value(i);
          ++s.count;
        }
      };
      if (v.type == ValueType::kInt64) {
        fold([&](size_t i) { return double(v.ints[i]); });
      } else {
        fold([&](size_t i) { return v.doubles[i]; });
      }
    }
  }

  // Emit through HashAggOp's emit path. Each row is sized for its keys and
  // aggregates (two columns for a partial avg), so appending the
  // aggregates does not reallocate it.
  size_t width = group_cols_.size();
  for (const AggSpec& spec : aggs_) {
    width += spec.op == AggOp::kAvg && mode_ == AggMode::kPartial ? 2 : 1;
  }
  results_.reserve(ngroups);
  std::vector<Value> group_extremes;  // the group's min/max, in agg order
  for (size_t g = 0; g < ngroups; ++g) {
    Row& row = results_.emplace_back();
    row.reserve(width);
    for (int c : group_cols_) row.push_back(data[c].Get(group_first[g]));
    group_extremes.clear();
    for (size_t a = 0; a < naggs; ++a) {
      if (!is_extreme(aggs_[a].op)) continue;
      if (!value_extremes[a].empty()) {
        group_extremes.push_back(std::move(value_extremes[a][g]));
      } else if (input_of[a] >= 0) {
        group_extremes.push_back(
            typed_extremes[input_of[a]].Get(aggs_[a].op, g));
      } else {
        group_extremes.emplace_back();  // no input: NULL, as in HashAggOp
      }
    }
    AppendAggregates(aggs_, mode_, &accs[g * naggs], group_extremes.data(),
                     &row);
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

namespace {

/// `probe_keys`, positions in a row of `projection` (empty = all columns),
/// as index column positions.
std::vector<int> ProbeKeyColumns(const std::vector<int>& projection,
                                 const std::vector<int>& probe_keys) {
  std::vector<int> cols;
  cols.reserve(probe_keys.size());
  for (int k : probe_keys) {
    cols.push_back(projection.empty() ? k : projection[k]);
  }
  return cols;
}

}  // namespace

ColumnHashJoinOp::ColumnHashJoinOp(const ColumnIndex* index,
                                   Timestamp snapshot_ts, ExprPtr probe_filter,
                                   std::vector<int> projection,
                                   std::vector<int> probe_keys,
                                   JoinBuild build,
                                   std::vector<int> build_keys, JoinType type,
                                   bool use_runtime_filter, RowRange range)
    : index_(index),
      snapshot_ts_(snapshot_ts),
      probe_filter_(std::move(probe_filter)),
      projection_(std::move(projection)),
      type_(type),
      range_(range),
      // Anti joins keep exactly the rows a filter would prune, so they
      // never build one; inner/semi get the bloom + bounds summary from
      // the pass that fills the hash table.
      join_{std::move(build), ProbeKeyColumns(projection_, probe_keys),
            std::move(build_keys),
            use_runtime_filter &&
                (type == JoinType::kInner || type == JoinType::kLeftSemi)} {}

Status ColumnHashJoinOp::Open() {
  if (type_ == JoinType::kLeftOuter) {
    return Status::NotSupported("ColumnHashJoinOp: left outer join");
  }
  pos_ = 0;
  return ProbeColumnJoin(*index_, snapshot_ts_, probe_filter_, range_, join_,
                         &selection_, &matches_);
}

Status ColumnHashJoinOp::Next(Batch* out) {
  out->rows.clear();
  // Probe first, collecting only surviving row ids (plus the matched build
  // row for inner joins); the survivors then materialize in one batched
  // pass — one index lock and only the projected columns, instead of a
  // full-width materialization per row. A batch may exceed kExecBatchSize
  // by the duplicate matches of its last probe row (same tolerance as
  // ValuesOp sources — downstream operators iterate rows, not batch
  // slots).
  hits_.clear();
  hit_build_.clear();
  const JoinHashTable& table = *join_.build.table;
  while (pos_ < selection_.size() && hits_.size() < kExecBatchSize) {
    const uint32_t rowid = selection_[pos_];
    uint32_t match = matches_[pos_];
    ++pos_;
    if (type_ == JoinType::kInner) {
      for (; match != JoinHashTable::kNoRow; match = table.Next(match)) {
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
  rows_produced_ += out->rows.size();
  return Status::Ok();
}

void ColumnHashJoinOp::Close() {
  selection_.clear();
  matches_.clear();
}

}  // namespace polarx
