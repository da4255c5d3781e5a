#include "src/partition/partition.h"

#include <algorithm>

namespace polarx {

ShardId PartitionRule::ShardOfPk(const Row& pk,
                                 const EncodedKey& encoded_pk) const {
  if (key_prefix_ == 0 || key_prefix_ >= pk.size()) {
    return ShardOfKey(encoded_pk);
  }
  EncodedKey key;
  for (size_t i = 0; i < key_prefix_; ++i) EncodeValue(pk[i], &key);
  return ShardOfKey(key);
}

PartitionRule TableDef::rule() const {
  return PartitionRule(num_shards, partition_key.size());
}

TableDef MakeTableDef(TableId id, const std::string& name,
                      std::vector<ColumnDef> columns,
                      std::vector<uint32_t> key_columns,
                      uint32_t num_shards) {
  TableDef def;
  def.id = id;
  def.name = name;
  def.num_shards = num_shards == 0 ? 1 : num_shards;
  if (key_columns.empty()) {
    // §II-B: add an invisible auto-increment BIGINT primary key.
    std::vector<ColumnDef> with_pk;
    with_pk.push_back(ColumnDef{"__pk", ValueType::kInt64, false});
    for (auto& c : columns) with_pk.push_back(std::move(c));
    def.schema = Schema(std::move(with_pk), {0});
    def.implicit_pk = true;
  } else {
    def.schema = Schema(std::move(columns), std::move(key_columns));
  }
  return def;
}

Status TableGroupRegistry::Register(const TableDef& def) {
  const std::vector<uint32_t>& pk = def.schema.key_columns();
  if (def.partition_key.size() > pk.size() ||
      !std::equal(def.partition_key.begin(), def.partition_key.end(),
                  pk.begin())) {
    return Status::InvalidArgument("partition key of " + def.name +
                                   " is not a prefix of its primary key");
  }
  if (def.table_group.empty()) return Status::Ok();
  std::vector<ValueType> key_types;
  for (uint32_t c : def.PartitionColumns()) {
    key_types.push_back(def.schema.columns()[c].type);
  }
  GroupInfo& info = groups_[def.table_group];
  if (info.tables.empty()) {
    info.num_shards = def.num_shards;
    info.key_types = key_types;
  } else if (info.num_shards != def.num_shards) {
    return Status::InvalidArgument(
        "table group " + def.table_group + " requires " +
        std::to_string(info.num_shards) + " shards, got " +
        std::to_string(def.num_shards));
  } else if (info.key_types != key_types) {
    return Status::InvalidArgument("table group " + def.table_group +
                                   ": partition key types differ");
  }
  if (std::find(info.tables.begin(), info.tables.end(), def.id) !=
      info.tables.end()) {
    return Status::InvalidArgument("table already registered");
  }
  info.tables.push_back(def.id);
  table_to_group_[def.id] = def.table_group;
  return Status::Ok();
}

std::vector<PartitionGroup> TableGroupRegistry::GroupsOf(
    const std::string& table_group) const {
  std::vector<PartitionGroup> out;
  auto it = groups_.find(table_group);
  if (it == groups_.end()) return out;
  for (uint32_t shard = 0; shard < it->second.num_shards; ++shard) {
    PartitionGroup pg;
    pg.table_group = table_group;
    pg.shard = shard;
    pg.tables = it->second.tables;
    out.push_back(std::move(pg));
  }
  return out;
}

bool TableGroupRegistry::Colocated(TableId a, TableId b) const {
  auto ia = table_to_group_.find(a);
  auto ib = table_to_group_.find(b);
  return ia != table_to_group_.end() && ib != table_to_group_.end() &&
         ia->second == ib->second;
}

bool TableGroupRegistry::PartitionWise(
    const TableDef& a, const std::vector<uint32_t>& a_cols, const TableDef& b,
    const std::vector<uint32_t>& b_cols) const {
  if (!Colocated(a.id, b.id)) return false;
  const std::vector<uint32_t>& ka = a.PartitionColumns();
  const std::vector<uint32_t>& kb = b.PartitionColumns();
  for (size_t i = 0; i < ka.size(); ++i) {
    bool paired = false;
    for (size_t j = 0; j < a_cols.size() && j < b_cols.size(); ++j) {
      paired |= a_cols[j] == ka[i] && b_cols[j] == kb[i];
    }
    if (!paired) return false;
  }
  return true;
}

}  // namespace polarx
