// A stored table: schema + MVCC primary index, and the per-node catalog of
// the tables an engine holds.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/key_codec.h"
#include "src/storage/mvcc.h"
#include "src/storage/value.h"

namespace polarx {

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
