// Partitioning metadata (§II-B): hash partitioning on a partition key (a
// prefix of the primary key), implicit primary keys, and table groups /
// partition groups.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/storage/key_codec.h"
#include "src/storage/value.h"

namespace polarx {

/// Routing of keys/rows to shards: a hash of the partition key, which is
/// the first `key_prefix` primary-key columns (0: the whole primary key).
class PartitionRule {
 public:
  explicit PartitionRule(uint32_t num_shards, size_t key_prefix = 0)
      : num_shards_(num_shards), key_prefix_(key_prefix) {}

  uint32_t num_shards() const { return num_shards_; }

  /// Shard of an encoded partition key.
  ShardId ShardOfKey(const EncodedKey& key) const {
    return ShardOf(key, num_shards_);
  }

  /// Shard of the primary key whose values are `pk` and whose encoding is
  /// `encoded_pk` (EncodeKey(pk)); the encoding is the partition key's
  /// when the partition key is the whole primary key.
  ShardId ShardOfPk(const Row& pk, const EncodedKey& encoded_pk) const;

  /// Shard of a full row under `schema` (extracts the key first).
  ShardId ShardOfRow(const Schema& schema, const Row& row) const {
    Row pk = schema.ExtractKey(row);
    return ShardOfPk(pk, EncodeKey(pk));
  }

 private:
  uint32_t num_shards_;
  size_t key_prefix_;
};

/// Logical definition of a partitioned table.
struct TableDef {
  TableId id = 0;
  std::string name;
  Schema schema;
  uint32_t num_shards = 4;
  /// Partition-key columns: a prefix of the primary key's columns. Empty
  /// means the whole primary key.
  std::vector<uint32_t> partition_key;
  /// Optional table group: tables in one group share the partition rule and
  /// placement (shard i of every member lives on the same DN).
  std::string table_group;
  /// True if the user declared no primary key and an implicit auto-increment
  /// BIGINT `__pk` column was prepended.
  bool implicit_pk = false;

  /// The partition-key columns, resolving the empty default.
  const std::vector<uint32_t>& PartitionColumns() const {
    return partition_key.empty() ? schema.key_columns() : partition_key;
  }
  /// The rule that routes this table's rows to its shards.
  PartitionRule rule() const;
};

/// Builds a TableDef from user columns. If `key_columns` is empty, an
/// implicit auto-increment BIGINT primary key column `__pk` is prepended
/// (invisible to users), as §II-B specifies.
TableDef MakeTableDef(TableId id, const std::string& name,
                      std::vector<ColumnDef> columns,
                      std::vector<uint32_t> key_columns,
                      uint32_t num_shards);

/// A partition group: the co-located shard set (one shard from each table
/// of a table group). The unit of migration/resharding (§II-B, §V).
struct PartitionGroup {
  std::string table_group;
  ShardId shard = 0;
  std::vector<TableId> tables;
};

/// Table-group registry: enforces that member tables agree on shard count
/// and partition-key types, and yields partition groups.
class TableGroupRegistry {
 public:
  /// Registers `def` into its table group (no-op if def.table_group empty).
  /// Fails if its partition key is not a prefix of its primary key.
  Status Register(const TableDef& def);

  /// All partition groups of a table group.
  std::vector<PartitionGroup> GroupsOf(const std::string& table_group) const;

  /// Whether two tables are in the same table group (partition-wise join /
  /// single-shard transactions apply, §II-B).
  bool Colocated(TableId a, TableId b) const;

  /// Whether an equi-join of `a` and `b` on a_cols[i] = b_cols[i] runs
  /// inside each partition: both tables are in one table group, and the
  /// join pairs each partition-key column of `a` with the one of `b` in the
  /// same position, so matching rows hash to the same shard.
  bool PartitionWise(const TableDef& a, const std::vector<uint32_t>& a_cols,
                     const TableDef& b,
                     const std::vector<uint32_t>& b_cols) const;

 private:
  struct GroupInfo {
    uint32_t num_shards = 0;
    std::vector<ValueType> key_types;
    std::vector<TableId> tables;
  };
  std::map<std::string, GroupInfo> groups_;
  std::map<TableId, std::string> table_to_group_;
};

}  // namespace polarx
