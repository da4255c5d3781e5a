// Scalar expressions evaluated over rows: column references, literals,
// comparisons, boolean logic, arithmetic, string predicates, and CASE WHEN.
// This is the expression language shared by the executor's Filter/Project
// operators, the optimizer's cost model, and the TPC-H query plans.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/value.h"

namespace polarx {

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicOp { kAnd, kOr, kNot };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

class Expr {
 public:
  enum class Kind {
    kColumn,      // row[column]
    kLiteral,     // constant
    kCompare,     // children[0] <op> children[1]
    kLogic,       // AND/OR/NOT over children
    kArith,       // numeric arithmetic
    kContains,    // strpos(children[0], literal) — LIKE '%x%'
    kStartsWith,  // LIKE 'x%'
    kCase,        // children: cond, then, else
    kIsNull,
    kIn,          // children[0] IN (literals)
    kYear,        // calendar year of a Days()-encoded date
    kSubstr,      // substring(children[0], pos, len) (0-based pos)
  };

  // ---- constructors ----
  static ExprPtr Col(int column);
  static ExprPtr Lit(Value v);
  static ExprPtr Cmp(CmpOp op, ExprPtr a, ExprPtr b);
  static ExprPtr And(ExprPtr a, ExprPtr b);
  static ExprPtr Or(ExprPtr a, ExprPtr b);
  static ExprPtr Not(ExprPtr a);
  static ExprPtr Arith(ArithOp op, ExprPtr a, ExprPtr b);
  static ExprPtr Contains(ExprPtr a, std::string needle);
  static ExprPtr StartsWith(ExprPtr a, std::string prefix);
  static ExprPtr Case(ExprPtr cond, ExprPtr then_e, ExprPtr else_e);
  static ExprPtr IsNull(ExprPtr a);
  static ExprPtr In(ExprPtr a, std::vector<Value> set);
  static ExprPtr Year(ExprPtr date);
  static ExprPtr Substr(ExprPtr a, int pos, int len);

  /// Convenience: column <op> literal.
  static ExprPtr ColCmp(CmpOp op, int column, Value v) {
    return Cmp(op, Col(column), Lit(std::move(v)));
  }
  /// Convenience: lo <= column <= hi (BETWEEN).
  static ExprPtr Between(int column, Value lo, Value hi);

  Kind kind() const { return kind_; }
  int column() const { return column_; }
  const Value& literal() const { return literal_; }
  CmpOp cmp_op() const { return cmp_; }
  LogicOp logic_op() const { return logic_; }
  ArithOp arith_op() const { return arith_; }
  const std::string& str_arg() const { return str_arg_; }
  int substr_pos() const { return substr_pos_; }
  int substr_len() const { return substr_len_; }
  const std::vector<Value>& in_set() const { return in_set_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// Evaluates against a row. Type errors surface as NULL (SQL semantics
  /// are looser; our workloads are type-correct by construction).
  Value Eval(const Row& row) const;

  /// Boolean evaluation: NULL/absent treated as false.
  bool EvalBool(const Row& row) const;

  /// All column indices referenced.
  void CollectColumns(std::vector<int>* out) const;

 private:
  Kind kind_ = Kind::kLiteral;
  int column_ = -1;
  Value literal_;
  CmpOp cmp_ = CmpOp::kEq;
  LogicOp logic_ = LogicOp::kAnd;
  ArithOp arith_ = ArithOp::kAdd;
  int substr_pos_ = 0;
  int substr_len_ = 0;
  std::string str_arg_;
  std::vector<Value> in_set_;
  std::vector<ExprPtr> children_;
};

/// Encodes a calendar date as the int64 day number since 1970-01-01
/// (proleptic Gregorian). TPC-H dates are stored and compared this way.
int64_t Days(int year, int month, int day);

/// Calendar year of a Days()-encoded date (what Expr::Year evaluates to).
int64_t YearOfDays(int64_t days);

}  // namespace polarx
