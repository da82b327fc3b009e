#include "apps/auction/auction_proxy.hpp"

#include "aspects/audit.hpp"
#include "aspects/authentication.hpp"
#include "aspects/authorization.hpp"
#include "aspects/synchronization.hpp"

namespace amf::apps::auction {

// Interned once and cached: MethodId::of takes the interner lock, and
// these helpers sit on per-invocation paths.
runtime::MethodId list_method() {
  static const runtime::MethodId id = runtime::MethodId::of("list_item");
  return id;
}
runtime::MethodId bid_method() {
  static const runtime::MethodId id = runtime::MethodId::of("place_bid");
  return id;
}
runtime::MethodId close_method() {
  static const runtime::MethodId id = runtime::MethodId::of("close_auction");
  return id;
}
runtime::MethodId query_method() {
  static const runtime::MethodId id = runtime::MethodId::of("query");
  return id;
}

std::shared_ptr<AuctionProxy> make_auction_proxy(
    const runtime::CredentialStore& store, runtime::EventLog& audit_log,
    core::ModeratorOptions options) {
  auto proxy = std::make_shared<AuctionProxy>(AuctionHouse{}, options);
  auto& moderator = proxy->moderator();

  moderator.bank().set_kind_order(
      {runtime::kinds::authentication(), runtime::kinds::authorization(),
       runtime::kinds::synchronization(), runtime::kinds::audit()});

  const auto writers = {list_method(), bid_method(), close_method()};
  const auto readers = {query_method()};

  auto rw = std::make_shared<aspects::ReadersWriterAspect>();
  for (const auto m : writers) rw->add_writer(m);
  for (const auto m : readers) rw->add_reader(m);

  auto auth = std::make_shared<aspects::AuthenticationAspect>(store);
  auto roles = std::make_shared<aspects::RoleAuthorizationAspect>();
  roles->require(close_method(), "auctioneer");
  auto audit = std::make_shared<aspects::AuditAspect>(audit_log, "audit");

  std::vector<core::Binding> cells;
  for (const auto m : writers) {
    cells.push_back({m, runtime::kinds::authentication(), auth});
    cells.push_back({m, runtime::kinds::authorization(), roles});
    cells.push_back({m, runtime::kinds::synchronization(), rw});
    cells.push_back({m, runtime::kinds::audit(), audit});
  }
  for (const auto m : readers) {
    cells.push_back({m, runtime::kinds::synchronization(), rw});
    cells.push_back({m, runtime::kinds::audit(), audit});
  }
  moderator.bank().register_aspects(std::move(cells));
  return proxy;
}

}  // namespace amf::apps::auction
