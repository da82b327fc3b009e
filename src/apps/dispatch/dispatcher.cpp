#include "apps/dispatch/dispatcher.hpp"

#include <algorithm>
#include <numeric>

namespace amf::apps::dispatch {

using ticket::assign_method;
using ticket::open_method;
using ticket::Ticket;

TicketDispatcher::TicketDispatcher(std::size_t backends, std::size_t capacity,
                                   Options options)
    : options_(options) {
  backends_.reserve(backends);
  breakers_.reserve(backends);
  for (std::size_t i = 0; i < backends; ++i) {
    auto proxy = ticket::make_ticket_proxy(capacity);
    auto breaker = std::make_shared<aspects::CircuitBreakerAspect>(
        runtime::RealClock::instance(), options_.breaker);
    // The breaker wraps BOTH participating methods of this backend: its
    // kind runs before synchronization so an open circuit fails fast.
    proxy->moderator().bank().set_kind_order(
        {runtime::kinds::fault_tolerance(),
         runtime::kinds::synchronization()});
    proxy->moderator().bank().register_aspects(
        {{open_method(), runtime::kinds::fault_tolerance(), breaker},
         {assign_method(), runtime::kinds::fault_tolerance(), breaker}});
    backends_.push_back(std::move(proxy));
    breakers_.push_back(std::move(breaker));
    routed_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
    pending_est_.push_back(std::make_unique<std::atomic<std::int64_t>>(0));
  }
}

core::InvocationResult<void> TicketDispatcher::open(Ticket t) {
  core::InvocationResult<void> last;
  last.status = core::InvocationStatus::kAborted;
  last.error = runtime::make_error(runtime::ErrorCode::kUnavailable,
                                   "no backends configured");
  for (const auto i : candidates()) {
    routed_[i]->fetch_add(1, std::memory_order_relaxed);
    auto r = backends_[i]
                 ->call(open_method())
                 .within(options_.per_backend_deadline)
                 .run([&t](ticket::TicketServer& s) { s.open(t); });
    if (r.ok()) {
      pending_est_[i]->fetch_add(1, std::memory_order_relaxed);
      return r;
    }
    last = std::move(r);
  }
  return last;
}

core::InvocationResult<Ticket> TicketDispatcher::assign() {
  core::InvocationResult<Ticket> last;
  last.status = core::InvocationStatus::kAborted;
  last.error = runtime::make_error(runtime::ErrorCode::kUnavailable,
                                   "no backends configured");
  for (const auto i : candidates()) {
    routed_[i]->fetch_add(1, std::memory_order_relaxed);
    auto r = backends_[i]
                 ->call(assign_method())
                 .within(options_.per_backend_deadline)
                 .run([](ticket::TicketServer& s) { return s.assign(); });
    if (r.ok()) {
      pending_est_[i]->fetch_sub(1, std::memory_order_relaxed);
      return r;
    }
    last = std::move(r);
  }
  return last;
}

std::size_t TicketDispatcher::pending() const {
  std::size_t total = 0;
  for (const auto& b : backends_) total += b->component().pending();
  return total;
}

std::vector<std::uint64_t> TicketDispatcher::route_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(routed_.size());
  for (const auto& c : routed_) out.push_back(c->load());
  return out;
}

std::vector<std::size_t> TicketDispatcher::candidates() {
  std::vector<std::size_t> order(backends_.size());
  std::iota(order.begin(), order.end(), 0);
  if (options_.policy == Policy::kRoundRobin) {
    const auto start =
        rr_next_.fetch_add(1, std::memory_order_relaxed) % backends_.size();
    std::rotate(order.begin(),
                order.begin() + static_cast<std::ptrdiff_t>(start),
                order.end());
  } else {
    // kLeastPending: order by the advisory atomic estimates (never read
    // the sequential component concurrently with its writers).
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return pending_est_[a]->load(std::memory_order_relaxed) <
                              pending_est_[b]->load(std::memory_order_relaxed);
                     });
  }
  return order;
}

}  // namespace amf::apps::dispatch
