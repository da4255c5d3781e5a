#include "src/exec/expr.h"

#include <algorithm>
#include <cmath>

namespace polarx {

ExprPtr Expr::Col(int column) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kColumn;
  e->column_ = column;
  return e;
}

ExprPtr Expr::Lit(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Cmp(CmpOp op, ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kCompare;
  e->cmp_ = op;
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

ExprPtr Expr::And(ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kLogic;
  e->logic_ = LogicOp::kAnd;
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

ExprPtr Expr::Or(ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kLogic;
  e->logic_ = LogicOp::kOr;
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

ExprPtr Expr::Not(ExprPtr a) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kLogic;
  e->logic_ = LogicOp::kNot;
  e->children_ = {std::move(a)};
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kArith;
  e->arith_ = op;
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

ExprPtr Expr::Contains(ExprPtr a, std::string needle) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kContains;
  e->str_arg_ = std::move(needle);
  e->children_ = {std::move(a)};
  return e;
}

ExprPtr Expr::StartsWith(ExprPtr a, std::string prefix) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kStartsWith;
  e->str_arg_ = std::move(prefix);
  e->children_ = {std::move(a)};
  return e;
}

ExprPtr Expr::Case(ExprPtr cond, ExprPtr then_e, ExprPtr else_e) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kCase;
  e->children_ = {std::move(cond), std::move(then_e), std::move(else_e)};
  return e;
}

ExprPtr Expr::IsNull(ExprPtr a) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kIsNull;
  e->children_ = {std::move(a)};
  return e;
}

ExprPtr Expr::In(ExprPtr a, std::vector<Value> set) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kIn;
  e->in_set_ = std::move(set);
  e->children_ = {std::move(a)};
  return e;
}

ExprPtr Expr::Year(ExprPtr date) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kYear;
  e->children_ = {std::move(date)};
  return e;
}

ExprPtr Expr::Substr(ExprPtr a, int pos, int len) {
  auto e = std::make_shared<Expr>();
  e->kind_ = Kind::kSubstr;
  e->substr_pos_ = pos;
  e->substr_len_ = len;
  e->children_ = {std::move(a)};
  return e;
}

ExprPtr Expr::Between(int column, Value lo, Value hi) {
  return And(ColCmp(CmpOp::kGe, column, std::move(lo)),
             ColCmp(CmpOp::kLe, column, std::move(hi)));
}

Value Expr::Eval(const Row& row) const {
  switch (kind_) {
    case Kind::kColumn:
      if (column_ < 0 || size_t(column_) >= row.size()) return Value{};
      return row[column_];
    case Kind::kLiteral:
      return literal_;
    case Kind::kCompare: {
      Value a = children_[0]->Eval(row);
      Value b = children_[1]->Eval(row);
      if (polarx::IsNull(a) || polarx::IsNull(b)) return Value{};
      int c = CompareValues(a, b);
      bool r = false;
      switch (cmp_) {
        case CmpOp::kEq: r = c == 0; break;
        case CmpOp::kNe: r = c != 0; break;
        case CmpOp::kLt: r = c < 0; break;
        case CmpOp::kLe: r = c <= 0; break;
        case CmpOp::kGt: r = c > 0; break;
        case CmpOp::kGe: r = c >= 0; break;
      }
      return Value{int64_t(r)};
    }
    case Kind::kLogic: {
      if (logic_ == LogicOp::kNot) {
        return Value{int64_t(!children_[0]->EvalBool(row))};
      }
      bool a = children_[0]->EvalBool(row);
      if (logic_ == LogicOp::kAnd) {
        return Value{int64_t(a && children_[1]->EvalBool(row))};
      }
      return Value{int64_t(a || children_[1]->EvalBool(row))};
    }
    case Kind::kArith: {
      Value a = children_[0]->Eval(row);
      Value b = children_[1]->Eval(row);
      if (polarx::IsNull(a) || polarx::IsNull(b)) return Value{};
      // Integer arithmetic only when both are ints and op is not division.
      if (std::holds_alternative<int64_t>(a) &&
          std::holds_alternative<int64_t>(b) && arith_ != ArithOp::kDiv) {
        int64_t x = std::get<int64_t>(a), y = std::get<int64_t>(b);
        switch (arith_) {
          case ArithOp::kAdd: return Value{x + y};
          case ArithOp::kSub: return Value{x - y};
          case ArithOp::kMul: return Value{x * y};
          default: break;
        }
      }
      auto ra = ValueAsDouble(a);
      auto rb = ValueAsDouble(b);
      if (!ra.ok() || !rb.ok()) return Value{};
      double x = *ra, y = *rb;
      switch (arith_) {
        case ArithOp::kAdd: return Value{x + y};
        case ArithOp::kSub: return Value{x - y};
        case ArithOp::kMul: return Value{x * y};
        case ArithOp::kDiv: return Value{y == 0 ? 0.0 : x / y};
      }
      return Value{};
    }
    case Kind::kContains: {
      Value a = children_[0]->Eval(row);
      const auto* s = std::get_if<std::string>(&a);
      if (s == nullptr) return Value{};
      return Value{int64_t(s->find(str_arg_) != std::string::npos)};
    }
    case Kind::kStartsWith: {
      Value a = children_[0]->Eval(row);
      const auto* s = std::get_if<std::string>(&a);
      if (s == nullptr) return Value{};
      return Value{int64_t(s->rfind(str_arg_, 0) == 0)};
    }
    case Kind::kCase:
      return children_[0]->EvalBool(row) ? children_[1]->Eval(row)
                                         : children_[2]->Eval(row);
    case Kind::kIsNull:
      return Value{int64_t(polarx::IsNull(children_[0]->Eval(row)))};
    case Kind::kIn: {
      Value a = children_[0]->Eval(row);
      if (polarx::IsNull(a)) return Value{};
      for (const auto& v : in_set_) {
        if (CompareValues(a, v) == 0) return Value{int64_t{1}};
      }
      return Value{int64_t{0}};
    }
    case Kind::kYear: {
      auto d = ValueAsInt(children_[0]->Eval(row));
      if (!d.ok()) return Value{};
      return Value{YearOfDays(*d)};
    }
    case Kind::kSubstr: {
      Value a = children_[0]->Eval(row);
      const auto* s = std::get_if<std::string>(&a);
      if (s == nullptr) return Value{};
      if (substr_pos_ >= static_cast<int>(s->size())) {
        return Value{std::string()};
      }
      return Value{s->substr(substr_pos_, substr_len_)};
    }
  }
  return Value{};
}

bool Expr::EvalBool(const Row& row) const {
  Value v = Eval(row);
  if (const auto* i = std::get_if<int64_t>(&v)) return *i != 0;
  if (const auto* d = std::get_if<double>(&v)) return *d != 0;
  return false;
}

void Expr::CollectColumns(std::vector<int>* out) const {
  if (kind_ == Kind::kColumn) out->push_back(column_);
  for (const auto& c : children_) c->CollectColumns(out);
}

int64_t Days(int year, int month, int day) {
  // Howard Hinnant's days_from_civil algorithm.
  int y = year - (month <= 2);
  int era = (y >= 0 ? y : y - 399) / 400;
  unsigned yoe = static_cast<unsigned>(y - era * 400);
  unsigned doy = (153u * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1;
  unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097LL + static_cast<int64_t>(doe) - 719468LL;
}

int64_t YearOfDays(int64_t days) {
  // civil_from_days (Hinnant), year component only.
  int64_t z = days + 719468;
  int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  uint64_t doe = static_cast<uint64_t>(z - era * 146097);
  uint64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t y = static_cast<int64_t>(yoe) + era * 400;
  uint64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  uint64_t mp = (5 * doy + 2) / 153;
  int64_t m = static_cast<int64_t>(mp < 10 ? mp + 3 : mp - 9);
  return y + (m <= 2 ? 1 : 0);
}

}  // namespace polarx
