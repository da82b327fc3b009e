#include "apps/ticket/ticket_proxy.hpp"

#include "aspects/authentication.hpp"

namespace amf::apps::ticket {

using aspects::BoundedResourceAspect;
using aspects::BoundedResourceState;

// Interned once and cached: MethodId::of takes the interner lock, and
// these helpers sit on per-invocation paths.
runtime::MethodId open_method() {
  static const runtime::MethodId id = runtime::MethodId::of("open");
  return id;
}
runtime::MethodId assign_method() {
  static const runtime::MethodId id = runtime::MethodId::of("assign");
  return id;
}

std::shared_ptr<TicketProxy> make_ticket_proxy(
    std::size_t capacity, core::ModeratorOptions options) {
  auto proxy = std::make_shared<TicketProxy>(TicketServer(capacity), options);
  auto state = std::make_shared<BoundedResourceState>(capacity);
  auto factory = make_ticket_aspect_factory(state);

  // Fig. 5: request creation of the two aspects and register them.
  const runtime::MethodId methods[] = {open_method(), assign_method()};
  const runtime::AspectKind kinds[] = {runtime::kinds::synchronization()};
  core::equip_from_factory(proxy->moderator(), *factory, methods, kinds);

  // Notification plan — design repair D5. The paper's Fig. 11 wiring
  // (open's postactivation notifies ONLY the assign queue and vice versa)
  // deadlocks under the paper's own single-active rule (Fig. 7's
  // `ActiveOpen == 0`): a caller blocked because a SAME-method invocation
  // is active is only unblocked by a same-method completion. Each method
  // must therefore also wake its own waiters.
  proxy->moderator().set_notification_plan(
      open_method(), {assign_method(), open_method()});
  proxy->moderator().set_notification_plan(
      assign_method(), {open_method(), assign_method()});
  return proxy;
}

std::shared_ptr<core::AspectFactory> make_ticket_aspect_factory(
    std::shared_ptr<BoundedResourceState> state) {
  auto factory = std::make_shared<core::RegistryAspectFactory>();
  factory->bind(open_method(), runtime::kinds::synchronization(),
                [state](runtime::MethodId, runtime::AspectKind) {
                  return std::make_shared<BoundedResourceAspect>(
                      BoundedResourceAspect::Role::kProducer, state);
                });
  factory->bind(assign_method(), runtime::kinds::synchronization(),
                [state](runtime::MethodId, runtime::AspectKind) {
                  return std::make_shared<BoundedResourceAspect>(
                      BoundedResourceAspect::Role::kConsumer, state);
                });
  return factory;
}

void extend_with_authentication(TicketProxy& proxy,
                                const runtime::CredentialStore& store) {
  auto& moderator = proxy.moderator();
  // Fig. 14 ordering: authenticate-pre runs before sync-pre; postactions
  // unwind in reverse.
  moderator.bank().set_kind_order(
      {runtime::kinds::authentication(), runtime::kinds::synchronization()});
  // Both cells publish in one epoch: no caller sees `open` demanding
  // credentials while `assign` does not.
  auto aspect = std::make_shared<aspects::AuthenticationAspect>(store);
  moderator.bank().register_aspects(
      {{open_method(), runtime::kinds::authentication(), aspect},
       {assign_method(), runtime::kinds::authentication(), aspect}});
}

PaperStyleTicketProxy::PaperStyleTicketProxy(std::size_t capacity,
                                             core::ModeratorOptions options)
    : inner_(make_ticket_proxy(capacity, options)) {}

core::InvocationResult<void> PaperStyleTicketProxy::open(Ticket t) {
  // Fig. 10: if (moderator.preactivation(OPEN) == RESUME) { super.open();
  // moderator.postactivation(OPEN); } — expressed through the proxy.
  return open_ticket(*inner_, std::move(t));
}

core::InvocationResult<Ticket> PaperStyleTicketProxy::assign() {
  return assign_ticket(*inner_);
}

core::InvocationResult<void> open_ticket(TicketProxy& proxy, Ticket t) {
  return proxy.invoke(open_method(), [t = std::move(t)](TicketServer& s) {
    s.open(t);
  });
}

core::InvocationResult<void> open_ticket_as(TicketProxy& proxy, Ticket t,
                                            runtime::Principal principal) {
  return proxy.call(open_method())
      .as(std::move(principal))
      .run([t = std::move(t)](TicketServer& s) { s.open(t); });
}

core::InvocationResult<Ticket> assign_ticket(TicketProxy& proxy) {
  return proxy.invoke(assign_method(),
                      [](TicketServer& s) { return s.assign(); });
}

core::InvocationResult<Ticket> assign_ticket_as(
    TicketProxy& proxy, runtime::Principal principal) {
  return proxy.call(assign_method())
      .as(std::move(principal))
      .run([](TicketServer& s) { return s.assign(); });
}

}  // namespace amf::apps::ticket
