#include "src/storage/table.h"

namespace polarx {

TableStore::TableStore(TableId id, std::string name, Schema schema,
                       TenantId tenant)
    : id_(id),
      name_(std::move(name)),
      schema_(std::move(schema)),
      tenant_(tenant) {}

uint32_t TableStore::PageNoFor(const EncodedKey& key) const {
  // ~16 KB pages, ~64 rows per page: hash keys into a page space sized to
  // keep dirty-page tracking meaningful without per-row granularity.
  constexpr uint32_t kPageSpace = 1 << 14;
  return static_cast<uint32_t>(HashKey(key) & (kPageSpace - 1));
}

Result<TableStore*> TableCatalog::CreateTable(TableId id,
                                              const std::string& name,
                                              Schema schema,
                                              TenantId tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(id) != 0) {
    return Status::InvalidArgument("table id " + std::to_string(id) +
                                   " already exists");
  }
  auto table = std::make_shared<TableStore>(id, name, std::move(schema),
                                            tenant);
  TableStore* ptr = table.get();
  tables_.emplace(id, std::move(table));
  return ptr;
}

Status TableCatalog::AttachTable(std::shared_ptr<TableStore> table) {
  std::lock_guard<std::mutex> lock(mu_);
  TableId id = table->id();
  if (tables_.count(id) != 0) {
    return Status::InvalidArgument("table id " + std::to_string(id) +
                                   " already attached");
  }
  tables_.emplace(id, std::move(table));
  return Status::Ok();
}

Result<std::shared_ptr<TableStore>> TableCatalog::DetachTable(TableId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(id);
  if (it == tables_.end()) {
    return Status::NotFound("table id " + std::to_string(id));
  }
  std::shared_ptr<TableStore> table = std::move(it->second);
  tables_.erase(it);
  return table;
}

TableStore* TableCatalog::FindTable(TableId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<TableStore*> TableCatalog::TablesOfTenant(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TableStore*> out;
  for (const auto& [id, table] : tables_) {
    if (table->tenant() == tenant) out.push_back(table.get());
  }
  return out;
}

std::vector<TableStore*> TableCatalog::AllTables() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TableStore*> out;
  out.reserve(tables_.size());
  for (const auto& [id, table] : tables_) out.push_back(table.get());
  return out;
}

}  // namespace polarx
