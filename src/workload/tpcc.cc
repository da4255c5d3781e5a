#include "src/workload/tpcc.h"

#include <set>

#include "src/storage/key_codec.h"

namespace polarx {

namespace {

// warehouse: (w_id) ytd, tax, name
Schema WarehouseSchema() {
  return Schema({{"w_id", ValueType::kInt64, false},
                 {"w_ytd", ValueType::kDouble, false},
                 {"w_tax", ValueType::kDouble, false},
                 {"w_name", ValueType::kString, false}},
                {0});
}
// district: (w_id, d_id) next_o_id, ytd, tax
Schema DistrictSchema() {
  return Schema({{"d_w_id", ValueType::kInt64, false},
                 {"d_id", ValueType::kInt64, false},
                 {"d_next_o_id", ValueType::kInt64, false},
                 {"d_ytd", ValueType::kDouble, false},
                 {"d_tax", ValueType::kDouble, false}},
                {0, 1});
}
// customer: (w, d, c) balance, ytd_payment, payment_cnt, name
Schema CustomerSchema() {
  return Schema({{"c_w_id", ValueType::kInt64, false},
                 {"c_d_id", ValueType::kInt64, false},
                 {"c_id", ValueType::kInt64, false},
                 {"c_balance", ValueType::kDouble, false},
                 {"c_ytd_payment", ValueType::kDouble, false},
                 {"c_payment_cnt", ValueType::kInt64, false},
                 {"c_name", ValueType::kString, false}},
                {0, 1, 2});
}
// item: (i_id) price, name
Schema ItemSchema() {
  return Schema({{"i_id", ValueType::kInt64, false},
                 {"i_price", ValueType::kDouble, false},
                 {"i_name", ValueType::kString, false}},
                {0});
}
// stock: (w, i) quantity, ytd, order_cnt
Schema StockSchema() {
  return Schema({{"s_w_id", ValueType::kInt64, false},
                 {"s_i_id", ValueType::kInt64, false},
                 {"s_quantity", ValueType::kInt64, false},
                 {"s_ytd", ValueType::kInt64, false},
                 {"s_order_cnt", ValueType::kInt64, false}},
                {0, 1});
}
// orders: (w, d, o) c_id, entry_ts, carrier_id, ol_cnt
Schema OrdersSchema() {
  return Schema({{"o_w_id", ValueType::kInt64, false},
                 {"o_d_id", ValueType::kInt64, false},
                 {"o_id", ValueType::kInt64, false},
                 {"o_c_id", ValueType::kInt64, false},
                 {"o_entry_ts", ValueType::kInt64, false},
                 {"o_carrier_id", ValueType::kInt64, true},
                 {"o_ol_cnt", ValueType::kInt64, false}},
                {0, 1, 2});
}
// order_line: (w, d, o, ol) i_id, supply_w, qty, amount, delivery_ts
Schema OrderLineSchema() {
  return Schema({{"ol_w_id", ValueType::kInt64, false},
                 {"ol_d_id", ValueType::kInt64, false},
                 {"ol_o_id", ValueType::kInt64, false},
                 {"ol_number", ValueType::kInt64, false},
                 {"ol_i_id", ValueType::kInt64, false},
                 {"ol_supply_w_id", ValueType::kInt64, false},
                 {"ol_quantity", ValueType::kInt64, false},
                 {"ol_amount", ValueType::kDouble, false},
                 {"ol_delivery_ts", ValueType::kInt64, true}},
                {0, 1, 2, 3});
}
// new_order: (w, d, o)
Schema NewOrderSchema() {
  return Schema({{"no_w_id", ValueType::kInt64, false},
                 {"no_d_id", ValueType::kInt64, false},
                 {"no_o_id", ValueType::kInt64, false}},
                {0, 1, 2});
}
// history: (h_id) w, d, c, amount
Schema HistorySchema() {
  return Schema({{"h_id", ValueType::kInt64, false},
                 {"h_w_id", ValueType::kInt64, false},
                 {"h_d_id", ValueType::kInt64, false},
                 {"h_c_id", ValueType::kInt64, false},
                 {"h_amount", ValueType::kDouble, false}},
                {0});
}

constexpr int64_t kInitialNextOrderId = 1;

}  // namespace

TpccDb::TpccDb(TxnEngine* engine, TpccConfig config)
    : engine_(engine), config_(config) {}

Status TpccDb::Load(Rng* rng) {
  TableCatalog* cat = engine_->catalog();
  POLARX_RETURN_NOT_OK(
      cat->CreateTable(kWarehouse, "warehouse", WarehouseSchema()).status());
  POLARX_RETURN_NOT_OK(
      cat->CreateTable(kDistrict, "district", DistrictSchema()).status());
  POLARX_RETURN_NOT_OK(
      cat->CreateTable(kCustomer, "customer", CustomerSchema()).status());
  POLARX_RETURN_NOT_OK(
      cat->CreateTable(kItem, "item", ItemSchema()).status());
  POLARX_RETURN_NOT_OK(
      cat->CreateTable(kStock, "stock", StockSchema()).status());
  POLARX_RETURN_NOT_OK(
      cat->CreateTable(kOrders, "orders", OrdersSchema()).status());
  POLARX_RETURN_NOT_OK(
      cat->CreateTable(kOrderLine, "order_line", OrderLineSchema())
          .status());
  POLARX_RETURN_NOT_OK(
      cat->CreateTable(kNewOrder, "new_order", NewOrderSchema()).status());
  POLARX_RETURN_NOT_OK(
      cat->CreateTable(kHistory, "history", HistorySchema()).status());

  TxnId txn = engine_->Begin();
  for (int64_t w = 1; w <= config_.warehouses; ++w) {
    POLARX_RETURN_NOT_OK(engine_->Insert(
        txn, kWarehouse,
        {w, 0.0, rng->NextDouble() * 0.2, "W" + std::to_string(w)}));
    for (int64_t d = 1; d <= config_.districts_per_warehouse; ++d) {
      POLARX_RETURN_NOT_OK(engine_->Insert(
          txn, kDistrict,
          {w, d, kInitialNextOrderId, 0.0, rng->NextDouble() * 0.2}));
      for (int64_t c = 1; c <= config_.customers_per_district; ++c) {
        POLARX_RETURN_NOT_OK(engine_->Insert(
            txn, kCustomer,
            {w, d, c, -10.0, 10.0, int64_t{1},
             "Customer" + std::to_string(c)}));
      }
    }
    for (int64_t i = 1; i <= config_.items; ++i) {
      POLARX_RETURN_NOT_OK(engine_->Insert(
          txn, kStock,
          {w, i, int64_t(10 + rng->Uniform(91)), int64_t{0}, int64_t{0}}));
    }
  }
  for (int64_t i = 1; i <= config_.items; ++i) {
    POLARX_RETURN_NOT_OK(engine_->Insert(
        txn, kItem,
        {i, 1.0 + rng->NextDouble() * 99.0, "Item" + std::to_string(i)}));
  }
  POLARX_RETURN_NOT_OK(engine_->CommitLocal(txn).status());
  return Status::Ok();
}

TpccTxnType TpccDb::RunNext(Rng* rng) {
  // Standard mix: 45/43/4/4/4.
  uint64_t pct = rng->Uniform(100);
  TpccTxnType type;
  Status s;
  if (pct < 45) {
    type = TpccTxnType::kNewOrder;
    s = NewOrder(rng);
  } else if (pct < 88) {
    type = TpccTxnType::kPayment;
    s = Payment(rng);
  } else if (pct < 92) {
    type = TpccTxnType::kOrderStatus;
    s = OrderStatus(rng);
  } else if (pct < 96) {
    type = TpccTxnType::kDelivery;
    s = Delivery(rng);
  } else {
    type = TpccTxnType::kStockLevel;
    s = StockLevel(rng);
  }
  if (!s.ok()) ++stats_.aborts;
  return type;
}

Status TpccDb::NewOrder(Rng* rng) {
  int64_t w = RandWarehouse(rng), d = RandDistrict(rng);
  int64_t c = RandCustomer(rng);
  int ol_cnt = 5 + int(rng->Uniform(11));

  TxnId txn = engine_->Begin();
  auto abort = [&](Status s) {
    engine_->Abort(txn);
    return s;
  };
  // District: allocate order id.
  Row district;
  Status s = engine_->Read(txn, kDistrict, EncodeKey({w, d}), &district);
  if (!s.ok()) return abort(s);
  int64_t o_id = std::get<int64_t>(district[2]);
  district[2] = o_id + 1;
  s = engine_->Update(txn, kDistrict, district);
  if (!s.ok()) return abort(s);

  s = engine_->Insert(txn, kOrders,
                      {w, d, o_id, c, int64_t{0}, Value{},
                       int64_t(ol_cnt)});
  if (!s.ok()) return abort(s);
  s = engine_->Insert(txn, kNewOrder, {w, d, o_id});
  if (!s.ok()) return abort(s);

  for (int ol = 1; ol <= ol_cnt; ++ol) {
    int64_t item = RandItem(rng);
    int64_t qty = 1 + int64_t(rng->Uniform(10));
    Row item_row;
    s = engine_->Read(txn, kItem, EncodeKey({item}), &item_row);
    if (!s.ok()) return abort(s);
    double price = std::get<double>(item_row[1]);

    Row stock;
    s = engine_->Read(txn, kStock, EncodeKey({w, item}), &stock);
    if (!s.ok()) return abort(s);
    int64_t s_qty = std::get<int64_t>(stock[2]);
    stock[2] = s_qty >= qty + 10 ? s_qty - qty : s_qty - qty + 91;
    stock[3] = std::get<int64_t>(stock[3]) + qty;
    stock[4] = std::get<int64_t>(stock[4]) + 1;
    s = engine_->Update(txn, kStock, stock);
    if (!s.ok()) return abort(s);

    s = engine_->Insert(txn, kOrderLine,
                        {w, d, o_id, int64_t(ol), item, w, qty,
                         price * double(qty), Value{}});
    if (!s.ok()) return abort(s);
  }
  auto commit = engine_->CommitLocal(txn);
  if (!commit.ok()) return abort(commit.status());
  ++stats_.new_orders;
  return Status::Ok();
}

Status TpccDb::Payment(Rng* rng) {
  int64_t w = RandWarehouse(rng), d = RandDistrict(rng);
  int64_t c = RandCustomer(rng);
  double amount = 1.0 + rng->NextDouble() * 4999.0;

  TxnId txn = engine_->Begin();
  auto abort = [&](Status s) {
    engine_->Abort(txn);
    return s;
  };
  Row wh;
  Status s = engine_->Read(txn, kWarehouse, EncodeKey({w}), &wh);
  if (!s.ok()) return abort(s);
  wh[1] = std::get<double>(wh[1]) + amount;
  s = engine_->Update(txn, kWarehouse, wh);
  if (!s.ok()) return abort(s);

  Row district;
  s = engine_->Read(txn, kDistrict, EncodeKey({w, d}), &district);
  if (!s.ok()) return abort(s);
  district[3] = std::get<double>(district[3]) + amount;
  s = engine_->Update(txn, kDistrict, district);
  if (!s.ok()) return abort(s);

  Row cust;
  s = engine_->Read(txn, kCustomer, EncodeKey({w, d, c}), &cust);
  if (!s.ok()) return abort(s);
  cust[3] = std::get<double>(cust[3]) - amount;
  cust[4] = std::get<double>(cust[4]) + amount;
  cust[5] = std::get<int64_t>(cust[5]) + 1;
  s = engine_->Update(txn, kCustomer, cust);
  if (!s.ok()) return abort(s);

  s = engine_->Insert(txn, kHistory, {history_seq_++, w, d, c, amount});
  if (!s.ok()) return abort(s);

  auto commit = engine_->CommitLocal(txn);
  if (!commit.ok()) return abort(commit.status());
  ++stats_.payments;
  return Status::Ok();
}

Status TpccDb::OrderStatus(Rng* rng) {
  int64_t w = RandWarehouse(rng), d = RandDistrict(rng);
  int64_t c = RandCustomer(rng);
  TxnId txn = engine_->Begin();
  Row cust;
  Status s = engine_->Read(txn, kCustomer, EncodeKey({w, d, c}), &cust);
  if (!s.ok()) {
    engine_->Abort(txn);
    return s;
  }
  // Last order of this customer: scan the district's orders backwards
  // (lite: scan all and keep the max id for the customer).
  int64_t last_order = -1;
  engine_->ScanVisible(txn, kOrders, EncodeKey({w, d}),
                       EncodeKey({w, d + 1}),
                       [&](const EncodedKey&, const Row& row) {
                         if (std::get<int64_t>(row[3]) == c) {
                           last_order =
                               std::max(last_order, std::get<int64_t>(row[2]));
                         }
                         return true;
                       });
  if (last_order >= 0) {
    engine_->ScanVisible(txn, kOrderLine, EncodeKey({w, d, last_order}),
                         EncodeKey({w, d, last_order + 1}),
                         [&](const EncodedKey&, const Row&) { return true; });
  }
  auto commit = engine_->CommitLocal(txn);
  if (!commit.ok()) {
    engine_->Abort(txn);
    return commit.status();
  }
  ++stats_.order_statuses;
  return Status::Ok();
}

Status TpccDb::Delivery(Rng* rng) {
  int64_t w = RandWarehouse(rng);
  TxnId txn = engine_->Begin();
  auto abort = [&](Status s) {
    engine_->Abort(txn);
    return s;
  };
  for (int64_t d = 1; d <= config_.districts_per_warehouse; ++d) {
    // Oldest undelivered order.
    int64_t oldest = -1;
    engine_->ScanVisible(txn, kNewOrder, EncodeKey({w, d}),
                         EncodeKey({w, d + 1}),
                         [&](const EncodedKey&, const Row& row) {
                           oldest = std::get<int64_t>(row[2]);
                           return false;  // first = oldest (key order)
                         });
    if (oldest < 0) continue;
    Status s = engine_->Delete(txn, kNewOrder, EncodeKey({w, d, oldest}));
    if (!s.ok()) return abort(s);
    Row order;
    s = engine_->Read(txn, kOrders, EncodeKey({w, d, oldest}), &order);
    if (!s.ok()) return abort(s);
    order[5] = int64_t(1 + rng->Uniform(10));  // carrier
    s = engine_->Update(txn, kOrders, order);
    if (!s.ok()) return abort(s);
    // Sum order line amounts, stamp delivery.
    double total = 0;
    std::vector<Row> lines;
    engine_->ScanVisible(txn, kOrderLine, EncodeKey({w, d, oldest}),
                         EncodeKey({w, d, oldest + 1}),
                         [&](const EncodedKey&, const Row& row) {
                           lines.push_back(row);
                           return true;
                         });
    for (Row& line : lines) {
      total += std::get<double>(line[7]);
      line[8] = int64_t{1};
      s = engine_->Update(txn, kOrderLine, line);
      if (!s.ok()) return abort(s);
    }
    int64_t c = std::get<int64_t>(order[3]);
    Row cust;
    s = engine_->Read(txn, kCustomer, EncodeKey({w, d, c}), &cust);
    if (!s.ok()) return abort(s);
    cust[3] = std::get<double>(cust[3]) + total;
    s = engine_->Update(txn, kCustomer, cust);
    if (!s.ok()) return abort(s);
  }
  auto commit = engine_->CommitLocal(txn);
  if (!commit.ok()) return abort(commit.status());
  ++stats_.deliveries;
  return Status::Ok();
}

Status TpccDb::StockLevel(Rng* rng) {
  int64_t w = RandWarehouse(rng), d = RandDistrict(rng);
  int64_t threshold = 10 + int64_t(rng->Uniform(11));
  TxnId txn = engine_->Begin();
  Row district;
  Status s = engine_->Read(txn, kDistrict, EncodeKey({w, d}), &district);
  if (!s.ok()) {
    engine_->Abort(txn);
    return s;
  }
  int64_t next_o = std::get<int64_t>(district[2]);
  int64_t from_o = std::max<int64_t>(kInitialNextOrderId, next_o - 20);
  std::set<int64_t> low_items;
  engine_->ScanVisible(
      txn, kOrderLine, EncodeKey({w, d, from_o}), EncodeKey({w, d + 1}),
      [&](const EncodedKey&, const Row& row) {
        low_items.insert(std::get<int64_t>(row[4]));
        return true;
      });
  int low = 0;
  for (int64_t item : low_items) {
    Row stock;
    if (engine_->Read(txn, kStock, EncodeKey({w, item}), &stock).ok()) {
      if (std::get<int64_t>(stock[2]) < threshold) ++low;
    }
  }
  auto commit = engine_->CommitLocal(txn);
  if (!commit.ok()) {
    engine_->Abort(txn);
    return commit.status();
  }
  ++stats_.stock_levels;
  return Status::Ok();
}

Result<int64_t> TpccDb::TotalOrdersPlaced() {
  TxnId txn = engine_->Begin();
  int64_t total = 0;
  Status s = engine_->ScanVisible(
      txn, kDistrict, "", "", [&](const EncodedKey&, const Row& row) {
        total += std::get<int64_t>(row[2]) - kInitialNextOrderId;
        return true;
      });
  engine_->CommitLocal(txn);
  if (!s.ok()) return s;
  return total;
}

}  // namespace polarx
