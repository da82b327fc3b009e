// Stress/fault-injection integration tests: the full concern stack under
// concurrent load, with failures, timeouts and live reconfiguration mixed
// in. The TicketServer's internal logic_error checks act as the invariant
// oracle — any synchronization lapse surfaces as a kFailed invocation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "apps/ticket/ticket_proxy.hpp"
#include "aspects/audit.hpp"
#include "aspects/synchronization.hpp"
#include "core/framework.hpp"
#include "runtime/random.hpp"

namespace amf {
namespace {

using namespace apps::ticket;
using core::InvocationStatus;

TEST(StressTest, MixedWorkloadWithDeadlinesNeverCorruptsBuffer) {
  auto proxy = make_ticket_proxy(8);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2'000;
  std::atomic<int> failures{0};
  std::atomic<long> opened{0}, assigned{0};

  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        runtime::Rng rng(static_cast<std::uint64_t>(t) * 7919 + 1);
        for (int i = 0; i < kOpsPerThread; ++i) {
          const bool produce = rng.bernoulli(0.5);
          const auto deadline = std::chrono::microseconds(
              rng.uniform_int(50, 5'000));
          if (produce) {
            auto r = proxy->call(open_method())
                         .within(deadline)
                         .run([&](TicketServer& s) {
                           s.open(Ticket{1, "", ""});
                         });
            if (r.ok()) opened.fetch_add(1);
            if (r.status == InvocationStatus::kFailed) failures.fetch_add(1);
          } else {
            auto r = proxy->call(assign_method())
                         .within(deadline)
                         .run([](TicketServer& s) { return s.assign(); });
            if (r.ok()) assigned.fetch_add(1);
            if (r.status == InvocationStatus::kFailed) failures.fetch_add(1);
          }
        }
      });
    }
  }

  EXPECT_EQ(failures.load(), 0)
      << "a kFailed invocation means a guard admitted an illegal call";
  EXPECT_EQ(opened.load() - assigned.load(),
            static_cast<long>(proxy->component().pending()));
  EXPECT_LE(proxy->component().pending(), 8u);
}

TEST(StressTest, LiveReconfigurationUnderLoad) {
  // Callers hammer a method while another thread repeatedly swaps an
  // additional concern in and out of the bank; nothing may crash, deadlock
  // or violate mutual exclusion.
  struct Cell {
    int value = 0;
  };
  core::ComponentProxy<Cell> proxy{Cell{}};
  const auto m = runtime::MethodId::of("stress-reconf");
  proxy.moderator().register_aspect(
      m, runtime::kinds::synchronization(),
      std::make_shared<aspects::MutualExclusionAspect>());

  std::atomic<bool> stop{false};
  std::atomic<int> vetoed{0}, completed{0};
  std::jthread reconfigurer([&] {
    runtime::EventLog scratch_log;
    const auto extra = runtime::kinds::audit();
    bool installed = false;
    while (!stop.load()) {
      if (installed) {
        proxy.moderator().bank().remove_aspect(m, extra);
      } else {
        proxy.moderator().register_aspect(
            m, extra, std::make_shared<aspects::AuditAspect>(scratch_log));
      }
      installed = !installed;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::atomic<int> in_section{0};
  std::atomic<bool> violation{false};
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < 6; ++t) {
      workers.emplace_back([&] {
        for (int i = 0; i < 3'000; ++i) {
          auto r = proxy.invoke(m, [&](Cell& c) {
            if (in_section.fetch_add(1) != 0) violation.store(true);
            ++c.value;
            in_section.fetch_sub(1);
          });
          if (r.ok()) {
            completed.fetch_add(1);
          } else {
            vetoed.fetch_add(1);
          }
        }
      });
    }
  }
  stop.store(true);
  reconfigurer.join();

  EXPECT_FALSE(violation.load());
  EXPECT_EQ(vetoed.load(), 0);
  EXPECT_EQ(completed.load(), 6 * 3'000);
  EXPECT_EQ(proxy.component().value, 6 * 3'000);
}

TEST(StressTest, ShutdownDrainsCleanlyUnderLoad) {
  auto proxy = make_ticket_proxy(2);
  std::atomic<int> refused{0};
  std::atomic<int> completed{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 500; ++i) {
          core::InvocationResult<void> r;
          if (t % 2 == 0) {
            r = open_ticket(*proxy, Ticket{1, "", ""});
          } else {
            auto ar = assign_ticket(*proxy);
            r.status = ar.status;
            r.error = ar.error;
          }
          if (r.status == InvocationStatus::kCompleted) {
            completed.fetch_add(1);
          } else if (r.status == InvocationStatus::kCancelled) {
            refused.fetch_add(1);
            break;  // moderator is gone; stop issuing
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    proxy->moderator().shutdown();
  }
  EXPECT_GT(completed.load(), 0);
  EXPECT_EQ(proxy->moderator().async_parked(), 0);
}

TEST(StressTest, ThrowingBodiesNeverLeakAspectState) {
  struct Bomb {
    void maybe_explode(bool boom) {
      if (boom) throw std::runtime_error("bang");
    }
  };
  core::ComponentProxy<Bomb> proxy{Bomb{}};
  const auto m = runtime::MethodId::of("stress-bomb");
  auto mutex = std::make_shared<aspects::MutualExclusionAspect>();
  proxy.moderator().register_aspect(m, runtime::kinds::synchronization(),
                                    mutex);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        runtime::Rng rng(static_cast<std::uint64_t>(t) + 100);
        for (int i = 0; i < 2'000; ++i) {
          const bool boom = rng.bernoulli(0.3);
          auto r = proxy.invoke(m,
                                [&](Bomb& b) { b.maybe_explode(boom); });
          ASSERT_TRUE(r.status == InvocationStatus::kCompleted ||
                      r.status == InvocationStatus::kFailed);
        }
      });
    }
  }
  // Every admission was paired with a postaction, or this would deadlock
  // long before; the explicit check:
  EXPECT_EQ(mutex->active(), 0u);
}

}  // namespace
}  // namespace amf
