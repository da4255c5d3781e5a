#include "src/workload/tpch.h"

#include <cassert>
#include <cmath>

#include "src/clock/hlc.h"
#include "src/exec/expr.h"
#include "src/storage/key_codec.h"

namespace polarx::tpch {

namespace {

const char* kNations[25] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
// region of each nation, per the TPC-H spec.
const int kNationRegion[25] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                               4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};
const char* kRegions[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                           "MIDDLE EAST"};
const char* kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                            "MACHINERY", "HOUSEHOLD"};
const char* kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                              "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[7] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                             "TRUCK",   "MAIL", "FOB"};
const char* kInstructs[4] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                             "TAKE BACK RETURN"};
const char* kTypeSyl1[6] = {"STANDARD", "SMALL",   "MEDIUM",
                            "LARGE",    "ECONOMY", "PROMO"};
const char* kTypeSyl2[5] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                            "BRUSHED"};
const char* kTypeSyl3[5] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
const char* kContainerSyl1[5] = {"SM", "LG", "MED", "JUMBO", "WRAP"};
const char* kContainerSyl2[8] = {"CASE", "BOX", "BAG", "JAR",
                                 "PKG",  "PACK", "CAN", "DRUM"};
const char* kColors[10] = {"almond", "antique", "aquamarine", "azure",
                           "beige",  "bisque",  "black",      "forest",
                           "green",  "blue"};

int64_t kStartDate;  // 1992-01-01
int64_t kEndDate;    // 1998-08-02
int64_t kCurrentDate;  // 1995-06-17, dbgen's CURRENTDATE

struct DateInit {
  DateInit() {
    kStartDate = Days(1992, 1, 1);
    kEndDate = Days(1998, 8, 2);
    kCurrentDate = Days(1995, 6, 17);
  }
} date_init;

double Decimal(Rng* rng, double lo, double hi) {
  return std::round((lo + (hi - lo) * rng->NextDouble()) * 100.0) / 100.0;
}

}  // namespace

const char* TableName(Table t) {
  switch (t) {
    case kRegion: return "region";
    case kNation: return "nation";
    case kSupplier: return "supplier";
    case kCustomer: return "customer";
    case kPart: return "part";
    case kPartSupp: return "partsupp";
    case kOrders: return "orders";
    case kLineItem: return "lineitem";
    default: return "?";
  }
}

Schema TableSchema(Table t) {
  using VT = ValueType;
  switch (t) {
    case kRegion:
      return Schema({{"r_regionkey", VT::kInt64, false},
                     {"r_name", VT::kString, false}},
                    {0});
    case kNation:
      return Schema({{"n_nationkey", VT::kInt64, false},
                     {"n_name", VT::kString, false},
                     {"n_regionkey", VT::kInt64, false}},
                    {0});
    case kSupplier:
      return Schema({{"s_suppkey", VT::kInt64, false},
                     {"s_name", VT::kString, false},
                     {"s_address", VT::kString, false},
                     {"s_nationkey", VT::kInt64, false},
                     {"s_phone", VT::kString, false},
                     {"s_acctbal", VT::kDouble, false},
                     {"s_comment", VT::kString, false}},
                    {0});
    case kCustomer:
      return Schema({{"c_custkey", VT::kInt64, false},
                     {"c_name", VT::kString, false},
                     {"c_address", VT::kString, false},
                     {"c_nationkey", VT::kInt64, false},
                     {"c_phone", VT::kString, false},
                     {"c_acctbal", VT::kDouble, false},
                     {"c_mktsegment", VT::kString, false},
                     {"c_comment", VT::kString, false}},
                    {0});
    case kPart:
      return Schema({{"p_partkey", VT::kInt64, false},
                     {"p_name", VT::kString, false},
                     {"p_mfgr", VT::kString, false},
                     {"p_brand", VT::kString, false},
                     {"p_type", VT::kString, false},
                     {"p_size", VT::kInt64, false},
                     {"p_container", VT::kString, false},
                     {"p_retailprice", VT::kDouble, false}},
                    {0});
    case kPartSupp:
      return Schema({{"ps_partkey", VT::kInt64, false},
                     {"ps_suppkey", VT::kInt64, false},
                     {"ps_availqty", VT::kInt64, false},
                     {"ps_supplycost", VT::kDouble, false}},
                    {0, 1});
    case kOrders:
      return Schema({{"o_orderkey", VT::kInt64, false},
                     {"o_custkey", VT::kInt64, false},
                     {"o_orderstatus", VT::kString, false},
                     {"o_totalprice", VT::kDouble, false},
                     {"o_orderdate", VT::kInt64, false},
                     {"o_orderpriority", VT::kString, false},
                     {"o_shippriority", VT::kInt64, false},
                     {"o_comment", VT::kString, false}},
                    {0});
    case kLineItem:
      return Schema({{"l_orderkey", VT::kInt64, false},
                     {"l_partkey", VT::kInt64, false},
                     {"l_suppkey", VT::kInt64, false},
                     {"l_linenumber", VT::kInt64, false},
                     {"l_quantity", VT::kDouble, false},
                     {"l_extendedprice", VT::kDouble, false},
                     {"l_discount", VT::kDouble, false},
                     {"l_tax", VT::kDouble, false},
                     {"l_returnflag", VT::kString, false},
                     {"l_linestatus", VT::kString, false},
                     {"l_shipdate", VT::kInt64, false},
                     {"l_commitdate", VT::kInt64, false},
                     {"l_receiptdate", VT::kInt64, false},
                     {"l_shipinstruct", VT::kString, false},
                     {"l_shipmode", VT::kString, false}},
                    {0, 3});
    default:
      return Schema();
  }
}

TpchDb::TpchDb(TpchConfig config) : config_(config) {
  for (int t = 0; t < kNumTables; ++t) {
    Schema schema = TableSchema(Table(t));
    defs_[t] = MakeTableDef(TableId(t), TableName(Table(t)), schema.columns(),
                            schema.key_columns(), config_.shards_per_table);
  }
  // One table group on orderkey (§II-B): lineitem is partitioned on the
  // l_orderkey prefix of its primary key, so each order's lines share the
  // order's shard number, and joins and groupings on orderkey run inside
  // each partition.
  defs_[kOrders].table_group = defs_[kLineItem].table_group = "orderkey";
  defs_[kLineItem].partition_key = {uint32_t(col::l_orderkey)};
  for (const TableDef& def : defs_) {
    [[maybe_unused]] Status s = table_groups_.Register(def);
    assert(s.ok());
  }
}

void TpchDb::LoadTable(Table t, std::vector<Row> rows) {
  const TableDef& def = defs_[t];
  const PartitionRule rule = def.rule();
  if (shards_[t].empty()) {
    for (uint32_t s = 0; s < def.num_shards; ++s) {
      shards_[t].push_back(std::make_shared<TableStore>(
          static_cast<TableId>(t * 100 + s),
          def.name + "#" + std::to_string(s), def.schema, 0));
      shard_ptrs_[t].push_back(shards_[t].back().get());
    }
  }
  for (auto& row : rows) {
    Row pk = def.schema.ExtractKey(row);
    EncodedKey key = EncodeKey(pk);
    uint32_t shard = rule.ShardOfPk(pk, key);
    auto version = std::make_shared<Version>(1, false, std::move(row));
    version->commit_ts.store(load_ts_, std::memory_order_release);
    shards_[t][shard]->rows().Push(key, version);
  }
  row_counts_[t] += rows.size();
}

Timestamp TpchDb::Load() {
  load_ts_ = hlc_layout::Pack(1000, 1);
  Rng rng(config_.seed);
  const double sf = config_.scale;
  const int64_t num_supplier = std::max<int64_t>(10, int64_t(10000 * sf));
  const int64_t num_part = std::max<int64_t>(20, int64_t(200000 * sf));
  const int64_t num_customer = std::max<int64_t>(30, int64_t(150000 * sf));
  const int64_t num_orders = std::max<int64_t>(100, int64_t(1500000 * sf));

  // region / nation
  {
    std::vector<Row> rows;
    for (int64_t r = 0; r < 5; ++r) {
      rows.push_back({r, std::string(kRegions[r])});
    }
    LoadTable(kRegion, std::move(rows));
    rows.clear();
    for (int64_t n = 0; n < 25; ++n) {
      rows.push_back({n, std::string(kNations[n]),
                      int64_t(kNationRegion[n])});
    }
    LoadTable(kNation, std::move(rows));
  }

  // supplier
  {
    std::vector<Row> rows;
    for (int64_t s = 1; s <= num_supplier; ++s) {
      std::string comment = rng.AlphaString(30);
      // ~0.05% complaints / compliments, per spec (Q16).
      if (rng.Bernoulli(0.005)) comment = "Customer Complaints " + comment;
      rows.push_back({s, "Supplier#" + std::to_string(s),
                      rng.AlphaString(15), int64_t(rng.Uniform(25)),
                      rng.AlphaString(12), Decimal(&rng, -999.99, 9999.99),
                      std::move(comment)});
    }
    LoadTable(kSupplier, std::move(rows));
  }

  // customer
  {
    std::vector<Row> rows;
    for (int64_t c = 1; c <= num_customer; ++c) {
      int64_t nation = int64_t(rng.Uniform(25));
      // Phone prefix encodes country code: nation + 10 (Q22).
      std::string phone = std::to_string(nation + 10) + "-" +
                          std::to_string(100 + rng.Uniform(900));
      rows.push_back({c, "Customer#" + std::to_string(c),
                      rng.AlphaString(15), nation, std::move(phone),
                      Decimal(&rng, -999.99, 9999.99),
                      std::string(kSegments[rng.Uniform(5)]),
                      rng.AlphaString(30)});
    }
    LoadTable(kCustomer, std::move(rows));
  }

  // part + partsupp
  {
    std::vector<Row> parts, partsupps;
    for (int64_t p = 1; p <= num_part; ++p) {
      std::string name = std::string(kColors[rng.Uniform(10)]) + " " +
                         kColors[rng.Uniform(10)];
      int m = 1 + int(rng.Uniform(5));
      int n = 1 + int(rng.Uniform(5));
      std::string brand = "Brand#" + std::to_string(m) + std::to_string(n);
      std::string type = std::string(kTypeSyl1[rng.Uniform(6)]) + " " +
                         kTypeSyl2[rng.Uniform(5)] + " " +
                         kTypeSyl3[rng.Uniform(5)];
      std::string container = std::string(kContainerSyl1[rng.Uniform(5)]) +
                              " " + kContainerSyl2[rng.Uniform(8)];
      parts.push_back({p, std::move(name),
                       "Manufacturer#" + std::to_string(m), std::move(brand),
                       std::move(type), int64_t(1 + rng.Uniform(50)),
                       std::move(container),
                       90000.0 / 100.0 + p / 10.0 -
                           double(p / 1000) * 100.0});  // spec-ish price
      for (int64_t s = 0; s < 4; ++s) {
        int64_t supp = 1 + (p + s * (num_supplier / 4 + 1)) % num_supplier;
        partsupps.push_back({p, supp, int64_t(1 + rng.Uniform(9999)),
                             Decimal(&rng, 1.0, 1000.0)});
      }
    }
    LoadTable(kPart, std::move(parts));
    LoadTable(kPartSupp, std::move(partsupps));
  }

  // orders + lineitem
  {
    std::vector<Row> orders, lines;
    for (int64_t o = 1; o <= num_orders; ++o) {
      // dbgen never assigns orders to custkeys divisible by 3, so a third
      // of the customers have no orders (visible in Q13/Q22).
      int64_t cust = 1 + int64_t(rng.Uniform(uint64_t(num_customer)));
      while (cust % 3 == 0) {
        cust = 1 + int64_t(rng.Uniform(uint64_t(num_customer)));
      }
      int64_t odate =
          kStartDate + int64_t(rng.Uniform(uint64_t(kEndDate - kStartDate - 151)));
      int nlines = 1 + int(rng.Uniform(7));
      double total = 0;
      int finished_lines = 0;
      std::vector<Row> order_lines;
      for (int l = 1; l <= nlines; ++l) {
        int64_t part = 1 + int64_t(rng.Uniform(uint64_t(num_part)));
        int64_t supp = 1 + int64_t(rng.Uniform(uint64_t(num_supplier)));
        double qty = double(1 + rng.Uniform(50));
        double price = qty * (900.0 + double(part % 1000));  // ~extended
        double discount = double(rng.Uniform(11)) / 100.0;
        double tax = double(rng.Uniform(9)) / 100.0;
        int64_t sdate = odate + 1 + int64_t(rng.Uniform(121));
        int64_t cdate = odate + 30 + int64_t(rng.Uniform(61));
        int64_t rdate = sdate + 1 + int64_t(rng.Uniform(30));
        std::string rflag;
        if (rdate <= kCurrentDate) {
          rflag = rng.Bernoulli(0.5) ? "R" : "A";
        } else {
          rflag = "N";
        }
        std::string lstatus = sdate > kCurrentDate ? "O" : "F";
        if (lstatus == "F") ++finished_lines;
        total += price * (1 + tax) * (1 - discount);
        order_lines.push_back(
            {o, part, supp, int64_t(l), qty, price, discount, tax,
             std::move(rflag), std::move(lstatus), sdate, cdate, rdate,
             std::string(kInstructs[rng.Uniform(4)]),
             std::string(kShipModes[rng.Uniform(7)])});
      }
      std::string status = finished_lines == nlines
                               ? "F"
                               : (finished_lines == 0 ? "O" : "P");
      orders.push_back({o, cust, std::move(status), total, odate,
                        std::string(kPriorities[rng.Uniform(5)]),
                        int64_t{0}, rng.AlphaString(20)});
      for (auto& row : order_lines) lines.push_back(std::move(row));
    }
    LoadTable(kOrders, std::move(orders));
    LoadTable(kLineItem, std::move(lines));
  }
  return load_ts_;
}

void TpchDb::BuildColumnIndex(Table t) {
  auto index = std::make_unique<ColumnIndex>(TableSchema(t));
  // Bulk-build from committed rows (in production this is the logical-log
  // capture path on an RO replica; bulk build is the initial sync), one
  // shard after another, so each shard's rows take one row-id range.
  std::vector<size_t>& bounds = shard_row_bounds_[t];
  bounds.assign(1, 0);
  for (TableStore* shard : shard_ptrs_[t]) {
    shard->rows().ScanAll([&](const EncodedKey& key, const VersionPtr& head) {
      const Version* v = LatestVisible(head, load_ts_);
      if (v != nullptr && !v->deleted) {
        RedoRecord rec;
        rec.type = RedoType::kInsert;
        rec.key = key;
        rec.row = v->row;
        index->ApplyCommit(load_ts_, {rec});
      }
      return true;
    });
    bounds.push_back(index->total_versions());
  }
  col_indexes_[t] = std::move(index);
}

RowRange TpchDb::TaskRows(Table t, int task, int num_tasks) const {
  const std::vector<size_t>& bounds = shard_row_bounds_[t];
  if (bounds.empty()) return RowRange{};  // no column index
  auto [first, last] =
      MppExecutor::ShardBlock(bounds.size() - 1, task, num_tasks);
  RowRange range{bounds[first], bounds[last]};
  if (task + 1 == num_tasks) range.end = RowRange::kToEnd;
  return range;
}

}  // namespace polarx::tpch
