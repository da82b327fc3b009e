// Reproduces §5.3 / Figs. 13–18: the authentication extension of the
// trouble-ticketing system, including the Fig. 14 phase ordering
// (authenticate wraps synchronization).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "apps/ticket/ticket_proxy.hpp"
#include "aspects/audit.hpp"

namespace amf::apps::ticket {
namespace {

using core::InvocationStatus;

class ExtendedTicketFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    proxy = make_ticket_proxy(4);
    ASSERT_TRUE(store.add_user("alice", "pw", {"support"}).ok());
    extend_with_authentication(*proxy, store);
  }

  runtime::CredentialStore store;
  std::shared_ptr<TicketProxy> proxy;
};

TEST_F(ExtendedTicketFixture, AnonymousOpenIsVetoed) {
  auto r = open_ticket(*proxy, Ticket{1, "x", "anon"});
  EXPECT_EQ(r.status, InvocationStatus::kAborted);
  EXPECT_EQ(r.error.code, runtime::ErrorCode::kUnauthenticated);
  EXPECT_EQ(proxy->component().total_opened(), 0u);
}

TEST_F(ExtendedTicketFixture, AuthenticatedRoundTrip) {
  auto alice = store.login("alice", "pw").value();
  ASSERT_TRUE(open_ticket_as(*proxy, Ticket{5, "x", "alice"}, alice).ok());
  auto r = assign_ticket_as(*proxy, alice);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->id, 5u);
}

TEST_F(ExtendedTicketFixture, RevocationTakesImmediateEffect) {
  auto alice = store.login("alice", "pw").value();
  ASSERT_TRUE(open_ticket_as(*proxy, Ticket{1, "x", "alice"}, alice).ok());
  store.revoke(alice.token);
  EXPECT_EQ(open_ticket_as(*proxy, Ticket{2, "y", "alice"}, alice).status,
            InvocationStatus::kAborted);
}

TEST_F(ExtendedTicketFixture, KindOrderPutsAuthOutsideSync) {
  const auto order = proxy->moderator().bank().kind_order();
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], runtime::kinds::authentication());
  EXPECT_EQ(order[1], runtime::kinds::synchronization());
}

TEST_F(ExtendedTicketFixture, Fig14PhaseOrderObserved) {
  // Instrument both kinds with probes via an extra audit aspect pair whose
  // event log shows auth.pre < sync admission; we use the sync guard's
  // blocking as the observable: an unauthenticated caller must be vetoed
  // even when the buffer is FULL (auth runs first, never reaches sync).
  for (int i = 0; i < 4; ++i) {
    auto alice = store.login("alice", "pw").value();
    ASSERT_TRUE(open_ticket_as(
                    *proxy, Ticket{static_cast<std::uint64_t>(i), "x", "a"},
                    alice)
                    .ok());
  }
  // Buffer full: a sync-guarded open would BLOCK; the anonymous caller must
  // get an immediate ABORT instead, proving auth preactivation ran first.
  const auto t0 = std::chrono::steady_clock::now();
  auto r = open_ticket(*proxy, Ticket{99, "x", "anon"});
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.status, InvocationStatus::kAborted);
  EXPECT_EQ(r.error.code, runtime::ErrorCode::kUnauthenticated);
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
}

TEST_F(ExtendedTicketFixture, FunctionalComponentUntouchedByExtension) {
  // The §5.3 claim: the functional component is byte-for-byte the same
  // object before and after the extension — only the bank changed.
  auto plain = make_ticket_proxy(4);
  static_assert(
      std::is_same_v<decltype(plain->component()),
                     decltype(proxy->component())>,
      "extension must not require a different functional component type");
  EXPECT_EQ(proxy->component().capacity(), plain->component().capacity());
}

TEST_F(ExtendedTicketFixture, ExtensionAppliesToAlreadyBlockedCallers) {
  // A consumer blocks on the empty buffer BEFORE authentication exists.
  // The system is extended while it waits; on its next guard evaluation
  // the re-snapshotted chain runs authentication first, so the anonymous
  // waiter is vetoed instead of being served — run-time adaptability
  // reaches even in-flight callers.
  auto fresh = make_ticket_proxy(4);
  std::atomic<bool> vetoed{false};
  std::jthread consumer([&] {
    auto r = assign_ticket(*fresh);  // anonymous; blocks on empty buffer
    EXPECT_EQ(r.status, InvocationStatus::kAborted);
    EXPECT_EQ(r.error.code, runtime::ErrorCode::kUnauthenticated);
    vetoed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(vetoed.load());
  extend_with_authentication(*fresh, store);
  // Any completion wakes the waiter and triggers re-evaluation.
  auto alice = store.login("alice", "pw").value();
  ASSERT_TRUE(open_ticket_as(*fresh, Ticket{1, "x", "a"}, alice).ok());
  consumer.join();
  EXPECT_TRUE(vetoed.load());
  // The ticket alice produced is still there for an authenticated caller.
  auto r = assign_ticket_as(*fresh, alice);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->id, 1u);
}

TEST_F(ExtendedTicketFixture, StatsSeparateAbortsFromAdmissions) {
  auto alice = store.login("alice", "pw").value();
  ASSERT_TRUE(open_ticket_as(*proxy, Ticket{1, "x", "a"}, alice).ok());
  (void)open_ticket(*proxy, Ticket{2, "y", "anon"});
  (void)open_ticket(*proxy, Ticket{3, "z", "anon"});
  const auto stats = proxy->moderator().stats(open_method());
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.aborted, 2u);
}

TEST(ExtendedTicketEpochTest, ExtensionPublishesBothAuthCellsInOneEpoch) {
  // One epoch for the kind order, one for both authentication cells: no
  // composition exists in which `open` demands credentials and `assign`
  // does not.
  runtime::CredentialStore store;
  auto proxy = make_ticket_proxy(4);
  const auto before = proxy->moderator().bank().version();
  extend_with_authentication(*proxy, store);
  EXPECT_EQ(proxy->moderator().bank().version(), before + 2);
  const auto auth = runtime::kinds::authentication();
  ASSERT_NE(proxy->moderator().bank().find(open_method(), auth), nullptr);
  EXPECT_EQ(proxy->moderator().bank().find(open_method(), auth),
            proxy->moderator().bank().find(assign_method(), auth));
}

}  // namespace
}  // namespace amf::apps::ticket
