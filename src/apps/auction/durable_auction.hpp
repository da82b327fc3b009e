// DurableAuctionApp: AuctionHouse with the persistence concern composed in
// (DESIGN.md §15.6). Second durable wiring on purpose — it demonstrates
// that the PersistenceAspect generalizes across components with ZERO
// component edits: AuctionHouse is byte-identical to the in-memory app.
//
// Composition (kind order: sync → persist):
//   * list/bid/close — writers under one ReadersWriterAspect. Unlike the
//     ticket cluster, the auction writers are ALREADY fully serialized by
//     their base discipline, so no extra exclusion aspect is needed: the
//     RW writer slot is the serializer, and persist (last kind, so first
//     postaction) appends while it is held. Append order == effect order.
//   * replay re-issues logged calls through the live proxy, inside an
//     exclusive moderator phase (same hooks, no shard locks). AuctionHouse
//     assigns item ids sequentially, so a replay from a snapshot-consistent
//     base reproduces identical ids without recording them.
#pragma once

#include <memory>
#include <string>

#include "apps/auction/auction_proxy.hpp"
#include "storage/persistence.hpp"
#include "storage/recovery.hpp"
#include "storage/storage.hpp"

namespace amf::apps::auction {

/// Note keys riding call arguments into the WAL records.
inline constexpr std::string_view kTitleNote = "auction.title";
inline constexpr std::string_view kReserveNote = "auction.reserve";
inline constexpr std::string_view kItemNote = "auction.item";
inline constexpr std::string_view kAmountNote = "auction.amount";

class DurableAuctionApp {
 public:
  struct Options {
    storage::WalOptions wal;
    core::ModeratorOptions moderator;
  };

  /// Opens the durable auction over `dir`: storage, composition, snapshot
  /// restore, log-tail replay. Replay runs in an exclusive moderator phase
  /// (DESIGN.md §15.5), where a replayed call that would block fails at
  /// once and open() returns kCorrupted.
  static runtime::Result<std::unique_ptr<DurableAuctionApp>> open(
      std::string dir, Options options);
  static runtime::Result<std::unique_ptr<DurableAuctionApp>> open(
      std::string dir) {
    return open(std::move(dir), Options{});
  }

  // --- moderated operations (principal = seller / bidder) ----------------

  core::InvocationResult<std::uint64_t> list_item(
      const std::string& title, std::int64_t reserve_price,
      runtime::Principal seller);

  core::InvocationResult<bool> place_bid(std::uint64_t item_id,
                                         std::int64_t amount,
                                         runtime::Principal bidder);

  core::InvocationResult<Sale> close_auction(std::uint64_t item_id,
                                             runtime::Principal auctioneer);

  // --- durability control ------------------------------------------------

  runtime::Result<void> sync() { return storage_->sync(); }

  /// Snapshot + compact; caller must be quiescent.
  runtime::Result<storage::Lsn> checkpoint();

  // --- observers ---------------------------------------------------------

  AuctionProxy& proxy() { return *proxy_; }
  const AuctionHouse& house() const { return proxy_->component(); }
  storage::Storage& storage() { return *storage_; }
  const storage::PersistenceAspect& persistence() const { return *persist_; }
  const storage::RecoveryStats& recovery_stats() const { return recovery_; }

 private:
  DurableAuctionApp() = default;

  runtime::Result<void> restore_snapshot(std::string_view payload);
  runtime::Result<void> apply_record(storage::Lsn lsn,
                                     const storage::CommitView& record);
  std::string capture_snapshot() const;

  std::string dir_;
  Options options_;
  std::unique_ptr<storage::FileStorage> storage_;
  std::shared_ptr<AuctionProxy> proxy_;
  std::shared_ptr<storage::PersistenceAspect> persist_;
  storage::RecoveryStats recovery_;
};

}  // namespace amf::apps::auction
