// A transaction-layer test cluster: N DN engines with skewable physical
// clocks, a CN clock and a TSO, reached through an inline transport that
// answers each participant call with ServeParticipantCall, the DN side
// SimCluster runs. A DN restarts as a SimCluster failover rebuilds one:
// from its redo log, with RedoApplier + TxnEngine::RecoverState.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "src/clock/hlc.h"
#include "src/clock/tso.h"
#include "src/common/rng.h"
#include "src/replication/redo_applier.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/key_codec.h"
#include "src/txn/distributed.h"
#include "src/txn/engine.h"
#include "src/txn/recovery.h"

namespace polarx {

/// A TxnCoordinator whose statements, commits and aborts return their
/// outcome. A call the transport has not answered reports Unavailable.
class SyncCoordinator : public TxnCoordinator {
 public:
  using TxnCoordinator::TxnCoordinator;

  DistributedTxn Begin() {
    DistributedTxn txn = NewTxn();
    AcquireSnapshot(&txn, [](Status) {});
    return txn;
  }
  Status Read(DistributedTxn* txn, TxnEngine* engine, TableId table,
              const EncodedKey& key, Row* out) {
    return Execute(txn, engine, {Statement::Kind::kRead, table, key}, out);
  }
  Status Insert(DistributedTxn* txn, TxnEngine* engine, TableId table,
                const Row& row) {
    return Execute(txn, engine, {Statement::Kind::kInsert, table, {}, {}, row});
  }
  Status Update(DistributedTxn* txn, TxnEngine* engine, TableId table,
                const Row& row) {
    return Execute(txn, engine, {Statement::Kind::kUpdate, table, {}, {}, row});
  }
  /// Unavailable also when the step hook stopped the coordinator before it
  /// acknowledged: the branches are left for the in-doubt resolver.
  Status Commit(DistributedTxn* txn) {
    Status result = Status::Unavailable("coordinator stopped mid-commit");
    CommitAsync(txn, [&result](Status s) { result = std::move(s); });
    return result;
  }
  Status Abort(DistributedTxn* txn) {
    Status result = Status::Unavailable("coordinator stopped mid-abort");
    AbortAsync(txn, [&result](Status s) { result = std::move(s); });
    return result;
  }

 private:
  Status Execute(DistributedTxn* txn, TxnEngine* engine, Statement statement,
                 Row* out = nullptr) {
    // Shared: a read parked on a PREPARED writer may be answered later.
    auto reply = std::make_shared<ParticipantReply>(
        Status::Unavailable("statement not answered"));
    ExecuteAsync(txn, engine->engine_id(), std::move(statement),
                 [reply](ParticipantReply r) { *reply = std::move(r); });
    if (out != nullptr && reply->status.ok()) *out = std::move(reply->row);
    return reply->status;
  }
};

struct TxnCluster {
  static constexpr TableId kTable = 1;

  /// One DN: a redo log and a clock that outlive a crash, and the state a
  /// crash discards.
  struct Dn {
    uint64_t now_ms = 1000;
    std::unique_ptr<Hlc> hlc;
    RedoLog log;
    uint32_t incarnation = 0;  // TxnEngineOptions::id_epoch
    std::unique_ptr<TableCatalog> catalog;
    CountingPageStore store;
    std::unique_ptr<BufferPool> pool;
    std::unique_ptr<TxnEngine> engine;
  };

  /// Engine ids are 1..n, the participant ids the coordinator sees.
  class Transport : public TxnParticipants {
   public:
    explicit Transport(TxnCluster* c) : c_(c) {}
    std::vector<uint32_t> participant_ids() const override {
      std::vector<uint32_t> ids(c_->dns.size());
      std::iota(ids.begin(), ids.end(), 1u);
      return ids;
    }
    /// A point read blocked by a PREPARED writer is served again once the
    /// writer resolves.
    void Call(uint32_t participant, ParticipantCall call,
              ReplyFn done) override {
      TxnEngine* engine = c_->engine(participant - 1);
      ParticipantReply r = ServeParticipantCall(engine, call);
      if (r.blocker == kInvalidTxnId) {
        done(std::move(r));
        return;
      }
      engine->OnResolved(r.blocker, [this, participant, call, done] {
        Call(participant, call, done);
      });
    }
    void FetchTso(ReplyFn done) override {
      done(ParticipantReply{Status::Ok(), c_->tso.Next()});
    }

   private:
    TxnCluster* c_;
  };

  uint64_t cn_ms = 1000;
  Hlc cn_hlc;
  TsoService tso;
  TsScheme scheme;
  std::vector<std::unique_ptr<Dn>> dns;
  Transport transport{this};
  uint32_t next_coordinator_id = 1000;

  /// `n` DNs whose physical clocks start at `dn_ms` (default 1000 each).
  explicit TxnCluster(size_t n, TsScheme scheme = TsScheme::kHlcSi,
                      std::vector<uint64_t> dn_ms = {})
      : cn_hlc([this] { return cn_ms; }),
        tso([this] { return cn_ms; }),
        scheme(scheme) {
    for (size_t i = 0; i < n; ++i) {
      auto dn = std::make_unique<Dn>();
      if (i < dn_ms.size()) dn->now_ms = dn_ms[i];
      dn->hlc = std::make_unique<Hlc>([d = dn.get()] { return d->now_ms; });
      dns.push_back(std::move(dn));
      Restart(i);
    }
  }

  TxnEngine* engine(size_t i) { return dns[i]->engine.get(); }

  void TickAll(uint64_t ms = 1) {
    cn_ms += ms;
    for (auto& dn : dns) dn->now_ms += ms;
  }
  /// Every clock advances by its own random 0-2 ms: skew accumulates.
  void Tick(Rng* rng) {
    cn_ms += rng->Uniform(3);
    for (auto& dn : dns) dn->now_ms += rng->Uniform(3);
  }

  /// Writes `rows` on DN `i` in one local transaction.
  void Load(size_t i, const std::vector<Row>& rows) {
    TxnId txn = engine(i)->Begin();
    for (const Row& row : rows) {
      EXPECT_TRUE(engine(i)->Update(txn, kTable, row).ok());
    }
    EXPECT_TRUE(engine(i)->CommitLocal(txn).ok());
  }

  /// A coordinator over the inline transport; `id` 0 mints a fresh one.
  SyncCoordinator Coordinator(TsScheme s, uint32_t id = 0) {
    return SyncCoordinator(&transport, s, &cn_hlc,
                           id != 0 ? id : next_coordinator_id++);
  }

  /// One in-doubt sweep over `via` (default: the inline transport).
  ResolutionStats Resolve(const std::set<uint32_t>& dead,
                          TxnParticipants* via = nullptr) {
    ResolutionStats stats;
    InDoubtResolver(via != nullptr ? via : &transport)
        .ResolveAsync(dead, [&stats](ResolutionStats s) { stats = s; });
    return stats;
  }

  /// (Re)starts DN `i` from its redo log alone: a crash loses its catalog
  /// and engine, which come back with the same engine id, a new id_epoch,
  /// and the branches RecoverState rebuilds (a first start replays an
  /// empty log).
  void Restart(size_t i) {
    Dn& dn = *dns[i];
    std::vector<RedoRecord> records;
    EXPECT_TRUE(
        dn.log.ReadRecords(dn.log.purged_before(), dn.log.current_lsn(),
                           &records)
            .ok());
    dn.engine.reset();
    dn.catalog = std::make_unique<TableCatalog>();
    dn.catalog->CreateTable(kTable, "t",
                            Schema({{"id", ValueType::kInt64, false},
                                    {"val", ValueType::kInt64, false}},
                                   {0}),
                            0);
    EXPECT_TRUE(RedoApplier(dn.catalog.get()).ApplyAll(records).ok());
    dn.pool = std::make_unique<BufferPool>(&dn.store);
    TxnEngineOptions opts;
    opts.use_prepare_ts_filter = scheme == TsScheme::kHlcSi;
    opts.id_epoch = dn.incarnation++;
    dn.engine = std::make_unique<TxnEngine>(uint32_t(i + 1), dn.catalog.get(),
                                            dn.hlc.get(), &dn.log,
                                            dn.pool.get(), opts);
    EXPECT_TRUE(dn.engine->RecoverState(records).ok());
  }
};

}  // namespace polarx
