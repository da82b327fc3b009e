// Cross-aspect composition matrix: concerns that were tested individually
// are combined the way the paper's §5.3 envisions, and the combination's
// joint semantics are asserted end-to-end.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "aspects/aspects.hpp"
#include "core/framework.hpp"

namespace amf {
namespace {

using core::ComponentProxy;
using core::Decision;
using core::InvocationContext;
using core::InvocationStatus;
using runtime::AspectKind;
using runtime::MethodId;

struct Account {
  long balance = 0;
  void deposit(long amount) { balance += amount; }
};

TEST(CompositionMatrixTest, AuthThenBulkheadThenMutex) {
  // authenticate (veto anonymous) → bulkhead (1 per user) → mutex (1 total)
  runtime::CredentialStore store;
  ASSERT_TRUE(store.add_user("ann", "pw", {}).ok());
  ASSERT_TRUE(store.add_user("bob", "pw", {}).ok());
  auto ann = store.login("ann", "pw").value();
  auto bob = store.login("bob", "pw").value();

  ComponentProxy<Account> proxy{Account{}};
  const auto m = MethodId::of("cm-deposit");
  auto& mod = proxy.moderator();
  mod.bank().set_kind_order({runtime::kinds::authentication(),
                             AspectKind::of("cm-bulkhead"),
                             runtime::kinds::synchronization()});
  mod.register_aspect(m, runtime::kinds::authentication(),
                      std::make_shared<aspects::AuthenticationAspect>(store));
  mod.register_aspect(m, AspectKind::of("cm-bulkhead"),
                      std::make_shared<aspects::BulkheadAspect>(1));
  mod.register_aspect(m, runtime::kinds::synchronization(),
                      std::make_shared<aspects::MutualExclusionAspect>());

  // Anonymous veto happens before any budget is consumed.
  auto anon = proxy.invoke(m, [](Account& a) { a.deposit(1); });
  EXPECT_EQ(anon.status, InvocationStatus::kAborted);
  EXPECT_EQ(anon.error.code, runtime::ErrorCode::kUnauthenticated);

  // Authenticated traffic from two users is safe and complete.
  std::atomic<int> completed{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        const auto& who = t % 2 == 0 ? ann : bob;
        for (int i = 0; i < 200; ++i) {
          auto r = proxy.call(m).as(who).run(
              [](Account& a) { a.deposit(1); });
          if (r.ok()) completed.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(completed.load(), 800);
  EXPECT_EQ(proxy.component().balance, 800);
}

TEST(CompositionMatrixTest, RateLimitComposesWithCircuitBreaker) {
  // quota → breaker: over-limit calls abort BEFORE reaching the breaker,
  // so throttling does not pollute the failure count.
  runtime::ManualClock clock;
  core::ModeratorOptions mo;
  mo.clock = &clock;
  ComponentProxy<Account> proxy{Account{}, mo};
  const auto m = MethodId::of("cm-rate-breaker");
  auto breaker = std::make_shared<aspects::CircuitBreakerAspect>(clock);
  auto& mod = proxy.moderator();
  mod.bank().set_kind_order(
      {runtime::kinds::quota(), runtime::kinds::fault_tolerance()});
  mod.register_aspect(
      m, runtime::kinds::quota(),
      std::make_shared<aspects::RateLimitAspect>(
          clock, aspects::RateLimitAspect::Options{10.0, 2.0, false}));
  mod.register_aspect(m, runtime::kinds::fault_tolerance(), breaker);

  ASSERT_TRUE(proxy.invoke(m, [](Account& a) { a.deposit(1); }).ok());
  ASSERT_TRUE(proxy.invoke(m, [](Account& a) { a.deposit(1); }).ok());
  for (int i = 0; i < 5; ++i) {
    auto r = proxy.invoke(m, [](Account& a) { a.deposit(1); });
    EXPECT_EQ(r.error.code, runtime::ErrorCode::kResourceExhausted);
  }
  EXPECT_EQ(breaker->state(), aspects::CircuitBreakerAspect::State::kClosed)
      << "throttled calls must not count as failures";
}

TEST(CompositionMatrixTest, CohortThenMutexSerializesBatch) {
  // cohort(3) → mutex: three callers are admitted as a batch but still
  // execute the critical section one at a time.
  ComponentProxy<Account> proxy{Account{}};
  const auto m = MethodId::of("cm-cohort-mutex");
  auto& mod = proxy.moderator();
  mod.bank().set_kind_order(
      {AspectKind::of("cm-cohort"), runtime::kinds::synchronization()});
  mod.register_aspect(m, AspectKind::of("cm-cohort"),
                      std::make_shared<aspects::CohortAspect>(3));
  mod.register_aspect(m, runtime::kinds::synchronization(),
                      std::make_shared<aspects::MutualExclusionAspect>());

  std::atomic<int> concurrent{0}, max_concurrent{0}, done{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&] {
        auto r = proxy.invoke(m, [&](Account& a) {
          const int now = concurrent.fetch_add(1) + 1;
          int prev = max_concurrent.load();
          while (prev < now &&
                 !max_concurrent.compare_exchange_weak(prev, now)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          a.deposit(1);
          concurrent.fetch_sub(1);
        });
        if (r.ok()) done.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(done.load(), 3);
  EXPECT_EQ(max_concurrent.load(), 1);
  EXPECT_EQ(proxy.component().balance, 3);
}

TEST(CompositionMatrixTest, AuditObservesEveryOtherConcernsDecisions) {
  // audit (outermost) records arrive/cancel for calls vetoed by deeper
  // concerns — the composed system is observable end to end.
  runtime::CredentialStore store;
  runtime::EventLog log;
  ComponentProxy<Account> proxy{Account{}};
  const auto m = MethodId::of("cm-audited");
  auto& mod = proxy.moderator();
  mod.bank().set_kind_order(
      {runtime::kinds::audit(), runtime::kinds::authentication()});
  mod.register_aspect(m, runtime::kinds::audit(),
                      std::make_shared<aspects::AuditAspect>(log));
  mod.register_aspect(m, runtime::kinds::authentication(),
                      std::make_shared<aspects::AuthenticationAspect>(store));
  (void)proxy.invoke(m, [](Account& a) { a.deposit(1); });  // anonymous
  EXPECT_EQ(log.count("audit", "arrive:cm-audited"), 1u);
  EXPECT_EQ(log.count("audit", "cancel:cm-audited"), 1u);
  EXPECT_EQ(log.count("audit", "enter:cm-audited"), 0u);
}

}  // namespace
}  // namespace amf
