#include "apps/ticket/ticket_proxy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/ticket/tangled_ticket_server.hpp"

namespace amf::apps::ticket {
namespace {

using core::InvocationStatus;

TEST(TicketServerTest, SequentialOpenAssignFifo) {
  TicketServer server(3);
  server.open(Ticket{1, "a", "x"});
  server.open(Ticket{2, "b", "y"});
  EXPECT_EQ(server.pending(), 2u);
  EXPECT_EQ(server.assign().id, 1u);
  EXPECT_EQ(server.assign().id, 2u);
  EXPECT_EQ(server.pending(), 0u);
}

TEST(TicketServerTest, GuardViolationsThrow) {
  TicketServer server(1);
  EXPECT_THROW(server.assign(), std::logic_error);
  server.open(Ticket{1, "a", "x"});
  EXPECT_THROW(server.open(Ticket{2, "b", "y"}), std::logic_error);
}

TEST(TicketServerTest, RejectsZeroCapacity) {
  EXPECT_THROW(TicketServer(0), std::invalid_argument);
}

TEST(TicketServerTest, RingWrapsAround) {
  TicketServer server(2);
  for (std::uint64_t round = 0; round < 10; ++round) {
    server.open(Ticket{round, "d", "o"});
    EXPECT_EQ(server.assign().id, round);
  }
  EXPECT_EQ(server.total_opened(), 10u);
  EXPECT_EQ(server.total_assigned(), 10u);
}

TEST(TicketProxyTest, WiringRegistersSyncAspects) {
  auto proxy = make_ticket_proxy(4);
  const auto& bank = proxy->moderator().bank();
  EXPECT_NE(bank.find(open_method(), runtime::kinds::synchronization()),
            nullptr);
  EXPECT_NE(bank.find(assign_method(), runtime::kinds::synchronization()),
            nullptr);
  EXPECT_EQ(bank.size(), 2u);
}

TEST(TicketProxyTest, WiringPublishesCellsAndPlansInOneEpoch) {
  auto proxy = make_ticket_proxy(4);
  const auto& bank = proxy->moderator().bank();
  EXPECT_EQ(bank.version(), 2u);  // the empty bank's epoch, then one publish
  std::vector<runtime::MethodId> both{open_method(), assign_method()};
  std::sort(both.begin(), both.end());
  const auto composition = bank.composition();
  for (const auto m : both) {
    const core::MethodRecord& rec = composition->find(m);
    EXPECT_EQ(rec.compiled->entries.size(), 1u);
    ASSERT_NE(rec.wake, nullptr);
    EXPECT_EQ(*rec.wake, both);  // D5: each method also wakes itself
    EXPECT_TRUE(rec.woken);
  }
}

TEST(TicketProxyTest, OpenThenAssignRoundTrip) {
  auto proxy = make_ticket_proxy(4);
  ASSERT_TRUE(open_ticket(*proxy, Ticket{7, "vpn", "ann"}).ok());
  auto r = assign_ticket(*proxy);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value->id, 7u);
  EXPECT_EQ(r.value->opened_by, "ann");
}

TEST(TicketProxyTest, AssignOnEmptyBlocksUntilOpen) {
  auto proxy = make_ticket_proxy(4);
  std::atomic<bool> got{false};
  std::jthread consumer([&] {
    auto r = assign_ticket(*proxy);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value->id, 9u);
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  ASSERT_TRUE(open_ticket(*proxy, Ticket{9, "late", "ann"}).ok());
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(TicketProxyTest, OpenOnFullBlocksUntilAssign) {
  auto proxy = make_ticket_proxy(1);
  ASSERT_TRUE(open_ticket(*proxy, Ticket{1, "x", "a"}).ok());
  std::atomic<bool> opened{false};
  std::jthread producer([&] {
    ASSERT_TRUE(open_ticket(*proxy, Ticket{2, "y", "b"}).ok());
    opened.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(opened.load());
  ASSERT_TRUE(assign_ticket(*proxy).ok());
  producer.join();
  EXPECT_TRUE(opened.load());
}

TEST(TicketProxyTest, DeadlineOnFullBufferTimesOut) {
  auto proxy = make_ticket_proxy(1);
  ASSERT_TRUE(open_ticket(*proxy, Ticket{1, "x", "a"}).ok());
  auto r = proxy->call(open_method())
               .within(std::chrono::milliseconds(20))
               .run([](TicketServer& s) { s.open(Ticket{2, "y", "b"}); });
  EXPECT_EQ(r.status, InvocationStatus::kTimedOut);
  EXPECT_EQ(proxy->component().pending(), 1u);
}

TEST(PaperStyleProxyTest, Figure5And10ShapeWorks) {
  // The literal paper facade: construct (Fig. 5 registration happens
  // inside), then call the guarded methods of Fig. 10.
  PaperStyleTicketProxy proxy(2);
  ASSERT_TRUE(proxy.open(Ticket{1, "modem", "ann"}).ok());
  ASSERT_TRUE(proxy.open(Ticket{2, "router", "bob"}).ok());
  // Buffer full: Fig. 7's guard blocks; bounded wait proves it.
  EXPECT_EQ(proxy.server().pending(), 2u);
  auto first = proxy.assign();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value->id, 1u);
  EXPECT_EQ(proxy.server().total_assigned(), 1u);
  // Both sync aspects are in the moderator's bank (Fig. 9).
  EXPECT_EQ(proxy.moderator().bank().size(), 2u);
}

TEST(TicketProxyTest, SameMethodWaitersAreWokenD5) {
  // Regression for design repair D5 (see DESIGN.md §3): with the paper's
  // original notification wiring (open wakes only assign and vice versa),
  // a consumer blocked on the single-active rule while ANOTHER consumer is
  // mid-assign is never woken once producers are done. Two staggered
  // consumers over a pre-filled buffer must both complete.
  auto proxy = make_ticket_proxy(4);
  ASSERT_TRUE(open_ticket(*proxy, Ticket{1, "", ""}).ok());
  ASSERT_TRUE(open_ticket(*proxy, Ticket{2, "", ""}).ok());

  std::atomic<int> drained{0};
  {
    std::vector<std::jthread> consumers;
    for (int c = 0; c < 2; ++c) {
      consumers.emplace_back([&] {
        auto r = proxy->invoke(assign_method(), [](TicketServer& s) {
          // Dwell in the body so the second consumer reliably arrives
          // while the first holds the active-consumer slot.
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          return s.assign();
        });
        ASSERT_TRUE(r.ok());
        drained.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(drained.load(), 2);
  EXPECT_EQ(proxy->component().pending(), 0u);
}

TEST(TicketProxyTest, ModeratorLogReplaysFig3Sequence) {
  runtime::EventLog log;
  core::ModeratorOptions options;
  options.log = &log;
  auto proxy = make_ticket_proxy(2, options);
  ASSERT_TRUE(open_ticket(*proxy, Ticket{1, "x", "a"}).ok());
  // Fig. 3: preactivation happens-before admission happens-before
  // postactivation, all on the same invocation.
  EXPECT_TRUE(log.happened_before("moderator", "preactivation:open",
                                  "moderator", "admitted:open"));
  EXPECT_TRUE(log.happened_before("moderator", "admitted:open", "moderator",
                                  "postactivation:open"));
}

// ---------------------------------------------------------------------------
// Property sweep (the paper's protocol, framework vs tangled): for every
// (producers, consumers, capacity) shape, nothing is lost, nothing is
// duplicated, the buffer never over/underflows (TicketServer throws if a
// guard ever lets that happen), and the two implementations agree.
// ---------------------------------------------------------------------------
class TicketSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::size_t>> {};

TEST_P(TicketSweep, FrameworkConservesTickets) {
  const auto [producers, consumers, capacity] = GetParam();
  auto proxy = make_ticket_proxy(capacity);
  constexpr int kPerProducer = 300;
  const int total = producers * kPerProducer;

  std::atomic<long> id_sum{0};
  std::atomic<int> claimed{0};
  {
    std::vector<std::jthread> threads;
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const std::uint64_t id =
              static_cast<std::uint64_t>(p) * kPerProducer + i;
          ASSERT_TRUE(open_ticket(*proxy, Ticket{id, "", ""}).ok());
        }
      });
    }
    for (int c = 0; c < consumers; ++c) {
      threads.emplace_back([&] {
        for (;;) {
          if (claimed.fetch_add(1) >= total) {
            claimed.fetch_sub(1);
            return;
          }
          auto r = assign_ticket(*proxy);
          ASSERT_TRUE(r.ok());
          id_sum.fetch_add(static_cast<long>(r.value->id));
        }
      });
    }
  }
  EXPECT_EQ(proxy->component().total_opened(),
            static_cast<std::uint64_t>(total));
  EXPECT_EQ(proxy->component().total_assigned(),
            static_cast<std::uint64_t>(total));
  EXPECT_EQ(proxy->component().pending(), 0u);
  EXPECT_EQ(id_sum.load(), static_cast<long>(total) * (total - 1) / 2);
}

TEST_P(TicketSweep, TangledBaselineAgrees) {
  const auto [producers, consumers, capacity] = GetParam();
  TangledTicketServer server(capacity);
  constexpr int kPerProducer = 300;
  const int total = producers * kPerProducer;
  std::atomic<long> id_sum{0};
  std::atomic<int> claimed{0};
  {
    std::vector<std::jthread> threads;
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          server.open(Ticket{
              static_cast<std::uint64_t>(p) * kPerProducer + i, "", ""});
        }
      });
    }
    for (int c = 0; c < consumers; ++c) {
      threads.emplace_back([&] {
        for (;;) {
          if (claimed.fetch_add(1) >= total) {
            claimed.fetch_sub(1);
            return;
          }
          id_sum.fetch_add(static_cast<long>(server.assign().id));
        }
      });
    }
  }
  EXPECT_EQ(server.total_opened(), static_cast<std::uint64_t>(total));
  EXPECT_EQ(server.total_assigned(), static_cast<std::uint64_t>(total));
  EXPECT_EQ(server.pending(), 0u);
  EXPECT_EQ(id_sum.load(), static_cast<long>(total) * (total - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TicketSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(std::size_t{1}, std::size_t{4},
                                         std::size_t{32})));

}  // namespace
}  // namespace amf::apps::ticket
