// Row values and table schemas for the row-store engine. PolarDB-X is
// MySQL-compatible; we model the subset of types the workloads need
// (BIGINT, DOUBLE, VARCHAR) plus NULL.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace polarx {

/// Column type tags.
enum class ValueType : uint8_t { kNull = 0, kInt64 = 1, kDouble = 2, kString = 3 };

/// A single column value. monostate represents SQL NULL.
using Value = std::variant<std::monostate, int64_t, double, std::string>;

/// A row: one Value per column, in schema order.
using Row = std::vector<Value>;

inline ValueType TypeOf(const Value& v) {
  return static_cast<ValueType>(v.index());
}
inline bool IsNull(const Value& v) {
  return std::holds_alternative<std::monostate>(v);
}

/// Three-way comparison with SQL semantics for ordering: NULL sorts first;
/// numeric types compare numerically across int64/double.
int CompareValues(const Value& a, const Value& b);

/// Equality consistent with CompareValues.
inline bool ValueEquals(const Value& a, const Value& b) {
  return CompareValues(a, b) == 0;
}

/// Renders a value for diagnostics and example output.
std::string ValueToString(const Value& v);

/// Extracts an int64 (promoting from double); error on other types.
Result<int64_t> ValueAsInt(const Value& v);
/// Extracts a double (promoting from int64); error on other types.
Result<double> ValueAsDouble(const Value& v);

/// One column in a table schema.
struct ColumnDef {
  std::string name;
  ValueType type = ValueType::kInt64;
  bool nullable = true;
};

/// Table schema: ordered columns plus the primary-key column indices.
/// PolarDB-X hash-partitions on the primary key; if the user declares no
/// primary key an implicit auto-increment BIGINT is added (§II-B). That
/// implicit column is materialized by the catalog layer, so at this level a
/// schema always has at least one key column.
class Schema {
 public:
  Schema() = default;
  Schema(std::vector<ColumnDef> columns, std::vector<uint32_t> key_columns);

  const std::vector<ColumnDef>& columns() const { return columns_; }
  const std::vector<uint32_t>& key_columns() const { return key_columns_; }
  size_t num_columns() const { return columns_.size(); }

  /// Validates a row against the schema (arity, types, nullability).
  Status ValidateRow(const Row& row) const;

  /// Extracts the primary-key values from a full row.
  Row ExtractKey(const Row& row) const;

 private:
  std::vector<ColumnDef> columns_;
  std::vector<uint32_t> key_columns_;
};

}  // namespace polarx
