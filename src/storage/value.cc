#include "src/storage/value.h"

#include <cmath>
#include <cstdio>

namespace polarx {

int CompareValues(const Value& a, const Value& b) {
  const bool a_null = IsNull(a), b_null = IsNull(b);
  if (a_null || b_null) {
    if (a_null && b_null) return 0;
    return a_null ? -1 : 1;
  }
  // Numeric cross-type comparison.
  auto numeric = [](const Value& v, double* out) {
    if (const auto* i = std::get_if<int64_t>(&v)) {
      *out = static_cast<double>(*i);
      return true;
    }
    if (const auto* d = std::get_if<double>(&v)) {
      *out = *d;
      return true;
    }
    return false;
  };
  double da, db;
  const bool a_num = numeric(a, &da), b_num = numeric(b, &db);
  if (a_num && b_num) {
    // Exact comparison for the int64/int64 case to avoid precision loss.
    if (std::holds_alternative<int64_t>(a) &&
        std::holds_alternative<int64_t>(b)) {
      int64_t ia = std::get<int64_t>(a), ib = std::get<int64_t>(b);
      return ia < ib ? -1 : (ia > ib ? 1 : 0);
    }
    return da < db ? -1 : (da > db ? 1 : 0);
  }
  if (a_num != b_num) return a_num ? -1 : 1;  // numbers sort before strings
  const std::string& sa = std::get<std::string>(a);
  const std::string& sb = std::get<std::string>(b);
  int c = sa.compare(sb);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

std::string ValueToString(const Value& v) {
  switch (TypeOf(v)) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(std::get<int64_t>(v));
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", std::get<double>(v));
      return buf;
    }
    case ValueType::kString:
      return std::get<std::string>(v);
  }
  return "?";
}

Result<int64_t> ValueAsInt(const Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) return *i;
  if (const auto* d = std::get_if<double>(&v)) {
    return static_cast<int64_t>(std::llround(*d));
  }
  return Status::InvalidArgument("value is not numeric");
}

Result<double> ValueAsDouble(const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* i = std::get_if<int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  return Status::InvalidArgument("value is not numeric");
}

Schema::Schema(std::vector<ColumnDef> columns,
               std::vector<uint32_t> key_columns)
    : columns_(std::move(columns)), key_columns_(std::move(key_columns)) {}

int Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Schema::ValidateRow(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("row arity " + std::to_string(row.size()) +
                                   " != schema arity " +
                                   std::to_string(columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (IsNull(row[i])) {
      if (!columns_[i].nullable) {
        return Status::InvalidArgument("NULL in non-nullable column " +
                                       columns_[i].name);
      }
      continue;
    }
    if (TypeOf(row[i]) != columns_[i].type) {
      return Status::InvalidArgument("type mismatch in column " +
                                     columns_[i].name);
    }
  }
  return Status::Ok();
}

Row Schema::ExtractKey(const Row& row) const {
  Row key;
  key.reserve(key_columns_.size());
  for (uint32_t c : key_columns_) key.push_back(row[c]);
  return key;
}

}  // namespace polarx
