#include "apps/auction/durable_auction.hpp"

#include <utility>

#include "aspects/synchronization.hpp"
#include "storage/codec.hpp"

namespace amf::apps::auction {

using runtime::ErrorCode;
using runtime::make_error;
using runtime::Result;
using storage::wire::put_str;
using storage::wire::put_u32;
using storage::wire::put_u64;

Result<std::unique_ptr<DurableAuctionApp>> DurableAuctionApp::open(
    std::string dir, Options options) {
  auto storage = storage::FileStorage::open(dir, options.wal);
  if (!storage.ok()) return storage.error();

  std::unique_ptr<DurableAuctionApp> app(new DurableAuctionApp());
  app->dir_ = std::move(dir);
  app->options_ = options;
  app->storage_ = std::move(storage.value());
  app->proxy_ =
      std::make_shared<AuctionProxy>(AuctionHouse{}, options.moderator);

  auto& moderator = app->proxy_->moderator();
  moderator.bank().set_kind_order(
      {runtime::kinds::synchronization(), runtime::kinds::persistence()});

  const auto writers = {list_method(), bid_method(), close_method()};
  auto rw = std::make_shared<aspects::ReadersWriterAspect>();
  for (const auto m : writers) rw->add_writer(m);
  rw->add_reader(query_method());

  app->persist_ = std::make_shared<storage::PersistenceAspect>(*app->storage_);
  for (const auto m : writers) {
    moderator.register_aspect(m, runtime::kinds::synchronization(), rw);
    moderator.register_aspect(m, runtime::kinds::persistence(), app->persist_);
  }
  moderator.register_aspect(query_method(), runtime::kinds::synchronization(),
                            rw);

  // Same exclusive recovery phase as the ticket app (DESIGN.md §15.5).
  auto stats = [&] {
    const core::AspectModerator::ExclusivePhase phase(moderator);
    return storage::Recovery::recover(
        *app->storage_,
        [&app](std::string_view payload) {
          return app->restore_snapshot(payload);
        },
        [&app](storage::Lsn lsn, const storage::CommitView& record) {
          return app->apply_record(lsn, record);
        });
  }();
  if (!stats.ok()) return stats.error();
  app->recovery_ = std::move(stats.value());
  return app;
}

core::InvocationResult<std::uint64_t> DurableAuctionApp::list_item(
    const std::string& title, std::int64_t reserve_price,
    runtime::Principal seller) {
  const std::string seller_name = seller.name;
  return proxy_->call(list_method())
      .as(std::move(seller))
      .note(kTitleNote, title)
      .note(kReserveNote, std::to_string(reserve_price))
      .run([&](AuctionHouse& h) {
        return h.list_item(title, reserve_price, seller_name);
      });
}

core::InvocationResult<bool> DurableAuctionApp::place_bid(
    std::uint64_t item_id, std::int64_t amount, runtime::Principal bidder) {
  const std::string bidder_name = bidder.name;
  return proxy_->call(bid_method())
      .as(std::move(bidder))
      .note(kItemNote, std::to_string(item_id))
      .note(kAmountNote, std::to_string(amount))
      .run([&](AuctionHouse& h) {
        return h.place_bid(item_id, bidder_name, amount);
      });
}

core::InvocationResult<Sale> DurableAuctionApp::close_auction(
    std::uint64_t item_id, runtime::Principal auctioneer) {
  return proxy_->call(close_method())
      .as(std::move(auctioneer))
      .note(kItemNote, std::to_string(item_id))
      .run([item_id](AuctionHouse& h) { return h.close_auction(item_id); });
}

Result<storage::Lsn> DurableAuctionApp::checkpoint() {
  return storage::Recovery::checkpoint(
      *storage_, [this]() -> Result<std::string> {
        return capture_snapshot();
      });
}

std::string DurableAuctionApp::capture_snapshot() const {
  const AuctionHouse& h = proxy_->component();
  std::string out;
  const auto ids = h.item_ids();
  put_u32(out, std::uint32_t(ids.size()));
  for (const auto id : ids) {
    const auto item = h.item(id);
    put_u64(out, item->id);
    put_str(out, item->title);
    put_str(out, item->seller);
    put_u64(out, std::uint64_t(item->reserve_price));
    put_u64(out, std::uint64_t(item->highest_bid));
    put_str(out, item->highest_bidder);
    out.push_back(item->closed ? 1 : 0);
  }
  return out;
}

Result<void> DurableAuctionApp::restore_snapshot(std::string_view payload) {
  storage::wire::Reader r{payload};
  const std::uint32_t count = r.u32();
  // Restore goes to the component DIRECTLY (wiring-time access): unlike
  // the ticket cluster, no aspect mirrors book occupancy, so there is no
  // shared guard state to rebuild — and list_item's sequential ids only
  // reproduce when replayed in id order against a virgin book.
  AuctionHouse& h = proxy_->component();
  for (std::uint32_t i = 0; i < count && !r.failed; ++i) {
    const std::uint64_t id = r.u64();
    std::string title(r.str());
    std::string seller(r.str());
    const auto reserve = std::int64_t(r.u64());
    const auto highest_bid = std::int64_t(r.u64());
    std::string highest_bidder(r.str());
    const bool closed = r.u8() != 0;
    if (r.failed) break;
    const std::uint64_t got = h.list_item(std::move(title), reserve, seller);
    if (got != id) {
      return make_error(ErrorCode::kCorrupted,
                        "auction snapshot: non-contiguous item ids");
    }
    if (highest_bid > 0 && !h.place_bid(id, highest_bidder, highest_bid)) {
      return make_error(ErrorCode::kCorrupted,
                        "auction snapshot: stored bid refused");
    }
    if (closed) h.close_auction(id);
  }
  if (r.failed || r.pos != payload.size()) {
    return make_error(ErrorCode::kCorrupted,
                      "auction snapshot: malformed payload");
  }
  return {};
}

Result<void> DurableAuctionApp::apply_record(
    storage::Lsn lsn, const storage::CommitView& record) {
  std::int64_t reserve = 0, amount = 0;
  std::uint64_t item_id = 0;
  bool has_reserve = false, has_amount = false, has_item = false;
  std::string title;
  for (const auto& [key, value] : record.notes) {
    if (key == kTitleNote) {
      title = value;
    } else if (key == kReserveNote) {
      has_reserve = storage::wire::parse_decimal(value, reserve);
    } else if (key == kAmountNote) {
      has_amount = storage::wire::parse_decimal(value, amount);
    } else if (key == kItemNote) {
      has_item = storage::wire::parse_decimal(value, item_id);
    }
  }

  auto malformed = [&](std::string_view note) {
    return make_error(ErrorCode::kCorrupted,
                      "auction log: missing or malformed '" +
                          std::string(note) + "' note at lsn " +
                          std::to_string(lsn));
  };
  auto replay_error = [&](const runtime::Error& e) {
    // A replayed call that would block fails at once with kTimeout in the
    // exclusive phase: the log's order cannot be re-run, so it is damage.
    const bool timed_out = e.code == ErrorCode::kTimeout ||
                           e.code == ErrorCode::kDeadlineExceeded;
    return make_error(timed_out ? ErrorCode::kCorrupted : e.code,
                      "replay of lsn " + std::to_string(lsn) +
                          " refused: " + e.to_string());
  };
  auto replay = [&](runtime::MethodId method, auto body) -> Result<void> {
    auto call = proxy_->call(method);
    auto result = storage::load_replayed_call(call, record).run(body);
    if (!result.ok()) return replay_error(result.error);
    return {};
  };
  const std::string who(record.principal);

  if (record.method == list_method().name()) {
    if (!has_reserve) return malformed(kReserveNote);
    return replay(list_method(), [&](AuctionHouse& h) {
      return h.list_item(std::move(title), reserve, who);
    });
  }
  if (record.method == bid_method().name()) {
    if (!has_item) return malformed(kItemNote);
    if (!has_amount) return malformed(kAmountNote);
    return replay(bid_method(), [&](AuctionHouse& h) {
      return h.place_bid(item_id, who, amount);
    });
  }
  if (record.method == close_method().name()) {
    if (!has_item) return malformed(kItemNote);
    return replay(close_method(), [item_id](AuctionHouse& h) {
      return h.close_auction(item_id);
    });
  }
  return make_error(ErrorCode::kCorrupted,
                    "auction log: unknown method '" +
                        std::string(record.method) + "' at lsn " +
                        std::to_string(lsn));
}

}  // namespace amf::apps::auction
