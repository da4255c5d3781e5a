// A stored table: schema + MVCC primary index + local secondary indexes.
// Local secondary indexes (§II-B) are partitioned with the table, so
// maintaining them never requires a distributed transaction; they are
// updated at commit time and reads re-check row visibility.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/key_codec.h"
#include "src/storage/mvcc.h"
#include "src/storage/value.h"

namespace polarx {

/// A local secondary index: maps encoded index-key -> set of primary keys.
/// Entries may be stale (pointing at deleted/overwritten rows); readers must
/// re-validate against the primary index under their snapshot.
class LocalIndex {
 public:
  LocalIndex(std::string name, std::vector<uint32_t> columns)
      : name_(std::move(name)), columns_(std::move(columns)) {}

  const std::string& name() const { return name_; }
  const std::vector<uint32_t>& columns() const { return columns_; }

  /// Builds the index key for a full row.
  EncodedKey KeyFor(const Row& row) const;

  void Insert(const EncodedKey& index_key, const EncodedKey& pk);
  void Remove(const EncodedKey& index_key, const EncodedKey& pk);

  /// Collects primary keys whose index key is in [from, to); empty `to`
  /// means "equal to from" (point lookup).
  std::vector<EncodedKey> Lookup(const EncodedKey& from,
                                 const EncodedKey& to) const;

 private:
  std::string name_;
  std::vector<uint32_t> columns_;
  mutable std::mutex mu_;
  std::map<EncodedKey, std::set<EncodedKey>> entries_;
};

/// One table's physical storage on a DN.
class TableStore {
 public:
  TableStore(TableId id, std::string name, Schema schema,
             TenantId tenant = 0);

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  TenantId tenant() const { return tenant_; }
  void set_tenant(TenantId t) { tenant_ = t; }

  MvccTable& rows() { return rows_; }
  const MvccTable& rows() const { return rows_; }

  /// Adds a local secondary index over the given columns.
  LocalIndex* AddIndex(const std::string& name,
                       std::vector<uint32_t> columns);
  const std::vector<std::unique_ptr<LocalIndex>>& indexes() const {
    return indexes_;
  }

  /// Page number a key belongs to, for buffer-pool dirty tracking.
  uint32_t PageNoFor(const EncodedKey& key) const;

  /// Approximate row count (committed + uncommitted heads).
  size_t ApproxRows() const { return rows_.NumKeys(); }

 private:
  TableId id_;
  std::string name_;
  Schema schema_;
  TenantId tenant_;
  MvccTable rows_;
  std::vector<std::unique_ptr<LocalIndex>> indexes_;
};

/// The set of tables resident on one engine (DN / RO replica mirror).
/// Tables are shared-ownership: under PolarDB-MT's shared storage, a tenant
/// transfer detaches the TableStore from the source RW and attaches the
/// same object to the destination — the data never moves (§V).
class TableCatalog {
 public:
  /// Creates a table; fails if the id is taken.
  Result<TableStore*> CreateTable(TableId id, const std::string& name,
                                  Schema schema, TenantId tenant = 0);

  TableStore* FindTable(TableId id) const;
  TableStore* FindTableByName(const std::string& name) const;

  /// Removes a table (tenant transfer closes its resources on the source).
  Status DropTable(TableId id);

  /// Attaches an existing (shared-storage) table object.
  Status AttachTable(std::shared_ptr<TableStore> table);

  /// Detaches a table, returning the shared object for re-attachment on
  /// another node.
  Result<std::shared_ptr<TableStore>> DetachTable(TableId id);

  std::vector<TableStore*> TablesOfTenant(TenantId tenant) const;
  std::vector<TableStore*> AllTables() const;

 private:
  mutable std::mutex mu_;
  std::map<TableId, std::shared_ptr<TableStore>> tables_;
};

}  // namespace polarx
