#include "apps/store/store.hpp"

#include "aspects/audit.hpp"
#include "aspects/authentication.hpp"
#include "aspects/authorization.hpp"
#include "aspects/synchronization.hpp"

namespace amf::apps::store {

namespace {
using runtime::ErrorCode;
using runtime::MethodId;

// Interned once and cached: MethodId::of takes the interner lock, and
// these helpers sit on per-invocation paths.
MethodId m_stock() {
  static const MethodId id = MethodId::of("store.stock");
  return id;
}
MethodId m_deposit() {
  static const MethodId id = MethodId::of("store.deposit");
  return id;
}
MethodId m_reserve() {
  static const MethodId id = MethodId::of("store.reserve");
  return id;
}
MethodId m_release() {
  static const MethodId id = MethodId::of("store.release");
  return id;
}
MethodId m_charge() {
  static const MethodId id = MethodId::of("store.charge");
  return id;
}
MethodId m_record() {
  static const MethodId id = MethodId::of("store.record");
  return id;
}
// One read method per component so each shares exactly its component's
// exclusion group (reads never observe a write in progress).
MethodId m_query_inv() {
  static const MethodId id = MethodId::of("store.query-inventory");
  return id;
}
MethodId m_query_ledger() {
  static const MethodId id = MethodId::of("store.query-ledger");
  return id;
}
MethodId m_query_orders() {
  static const MethodId id = MethodId::of("store.query-orders");
  return id;
}
}  // namespace

Store::Store(const runtime::CredentialStore& sessions,
             runtime::EventLog& audit_log)
    : moderator_(std::make_shared<core::AspectModerator>()),
      inventory_(Inventory{}, moderator_),
      ledger_(PaymentLedger{}, moderator_),
      orders_(OrderBook{}, moderator_) {
  auto& mod = *moderator_;
  mod.bank().set_kind_order(
      {runtime::kinds::authentication(), runtime::kinds::authorization(),
       runtime::kinds::synchronization(), runtime::kinds::audit()});

  auto auth = std::make_shared<aspects::AuthenticationAspect>(sessions);
  auto roles = std::make_shared<aspects::RoleAuthorizationAspect>();
  roles->require(m_stock(), "merchant");
  auto audit = std::make_shared<aspects::AuditAspect>(audit_log, "store");

  // One exclusion group per component: all writes to a component are
  // serialized, reads (m_query) run unguarded against a quiescent map via
  // the same group (simplicity over read concurrency here).
  auto inv_mx = std::make_shared<aspects::MutualExclusionAspect>();
  auto ledger_mx = std::make_shared<aspects::MutualExclusionAspect>();
  auto orders_mx = std::make_shared<aspects::MutualExclusionAspect>();

  const struct {
    MethodId m;
    std::shared_ptr<aspects::MutualExclusionAspect> mx;
    bool needs_auth;
  } wiring[] = {
      {m_stock(), inv_mx, true},    {m_reserve(), inv_mx, true},
      {m_release(), inv_mx, true},  {m_deposit(), ledger_mx, true},
      {m_charge(), ledger_mx, true}, {m_record(), orders_mx, true},
  };
  std::vector<core::Binding> cells;
  for (const auto& w : wiring) {
    if (w.needs_auth) {
      cells.push_back({w.m, runtime::kinds::authentication(), auth});
    }
    cells.push_back({w.m, runtime::kinds::synchronization(), w.mx});
    cells.push_back({w.m, runtime::kinds::audit(), audit});
  }
  cells.push_back({m_stock(), runtime::kinds::authorization(), roles});
  cells.push_back({m_query_inv(), runtime::kinds::synchronization(), inv_mx});
  cells.push_back(
      {m_query_ledger(), runtime::kinds::synchronization(), ledger_mx});
  cells.push_back(
      {m_query_orders(), runtime::kinds::synchronization(), orders_mx});
  mod.bank().register_aspects(std::move(cells));
}

std::int64_t Store::price_of(const std::string& item) const {
  std::scoped_lock lock(prices_mu_);
  auto it = prices_.find(item);
  return it == prices_.end() ? -1 : it->second;
}

runtime::Result<void> Store::stock_item(const runtime::Principal& who,
                                        const std::string& item,
                                        std::uint32_t qty,
                                        std::int64_t price) {
  auto r = inventory_.call(m_stock()).as(who).run([&](Inventory& inv) {
    inv.add_stock(item, qty);
  });
  if (!r.ok()) return r.error;
  {
    std::scoped_lock lock(prices_mu_);
    prices_[item] = price;
  }
  return {};
}

runtime::Result<void> Store::deposit(const runtime::Principal& who,
                                     std::int64_t amount) {
  if (amount <= 0) {
    return runtime::make_error(ErrorCode::kInvalidArgument,
                               "deposit must be positive");
  }
  auto r = ledger_.call(m_deposit()).as(who).run([&](PaymentLedger& l) {
    l.deposit(who.name, amount);
  });
  if (!r.ok()) return r.error;
  return {};
}

runtime::Result<std::uint64_t> Store::checkout(const runtime::Principal& who,
                                               const std::string& item,
                                               std::uint32_t qty) {
  const auto price = price_of(item);
  if (price < 0) {
    return runtime::make_error(ErrorCode::kNotFound, "unknown item: " + item);
  }
  const std::int64_t total = price * static_cast<std::int64_t>(qty);

  // Step 1: reserve stock.
  auto reserved = inventory_.call(m_reserve()).as(who).run(
      [&](Inventory& inv) { return inv.reserve(item, qty); });
  if (!reserved.ok()) return reserved.error;
  if (!*reserved.value) {
    return runtime::make_error(ErrorCode::kResourceExhausted,
                               "insufficient stock for " + item);
  }

  // Step 2: charge. On failure, compensate the reservation (saga).
  auto charged = ledger_.call(m_charge()).as(who).run(
      [&](PaymentLedger& l) { return l.charge(who.name, total); });
  if (!charged.ok() || !*charged.value) {
    (void)inventory_.call(m_release()).as(who).run(
        [&](Inventory& inv) { inv.release(item, qty); });
    if (!charged.ok()) return charged.error;
    return runtime::make_error(ErrorCode::kResourceExhausted,
                               "insufficient funds");
  }

  // Step 3: record the order.
  auto recorded = orders_.call(m_record()).as(who).run([&](OrderBook& book) {
    return book.record(Order{0, who.name, item, qty, total});
  });
  if (!recorded.ok()) return recorded.error;
  return *recorded.value;
}

std::uint32_t Store::stock(const std::string& item) {
  auto r = inventory_.invoke(m_query_inv(), [&](Inventory& inv) {
    return inv.stock(item);
  });
  return r.ok() ? *r.value : 0;
}

std::int64_t Store::balance(const std::string& customer) {
  auto r = ledger_.invoke(m_query_ledger(), [&](PaymentLedger& l) {
    return l.balance(customer);
  });
  return r.ok() ? *r.value : 0;
}

std::int64_t Store::revenue() {
  auto r = ledger_.invoke(m_query_ledger(),
                          [](PaymentLedger& l) { return l.revenue(); });
  return r.ok() ? *r.value : 0;
}

std::optional<Order> Store::order(std::uint64_t id) {
  auto r = orders_.invoke(m_query_orders(),
                          [&](OrderBook& book) { return book.order(id); });
  return r.ok() ? *r.value : std::nullopt;
}

}  // namespace amf::apps::store
