// Async moderation under fire (DESIGN.md §18): a park/complete/cancel
// hammer and deadline-vs-waker races for async frames and for blocked sync
// callers, all with full protocol validation.
//
// The liveness property is the hard one: a parked call holds no thread, so
// a lost wakeup does not deadlock a stack anywhere — it silently never
// settles. Every test therefore drives futures to readiness (the 120 s
// ctest timeout converts a lost wakeup into a visible hang) and then
// checks exactly-once pairing and trace conformance.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "runtime/fault.hpp"
#include "runtime/random.hpp"

namespace amf {
namespace {

using core::Decision;
using core::InvocationContext;
using core::InvocationStatus;
using runtime::AspectKind;
using runtime::ErrorCode;
using runtime::MethodId;

// Plain int on purpose: the exclusive guard admits one body at a time and
// the moderator's locks carry the happens-before, so an unsynchronized
// increment is also a correctness probe (TSan flags any admission overlap).
struct Cell {
  int value = 0;
};

struct Bump {
  void operator()(Cell& c) const { ++c.value; }
};

using Proxy = core::ComponentProxy<Cell>;
using Call = Proxy::AsyncCall<Bump>;

// Mutual-exclusion guard: admits one call at a time, counts pairing. The
// hooks run under the moderator's method locks.
struct Exclusive {
  int active = 0;
  std::uint64_t entered = 0;
  std::uint64_t posted = 0;

  std::shared_ptr<core::LambdaAspect> aspect() {
    return std::make_shared<core::LambdaAspect>(
        "exclusive",
        [this](InvocationContext&) {
          return active == 0 ? Decision::kResume : Decision::kBlock;
        },
        [this](InvocationContext&) {
          ++active;
          ++entered;
        },
        [this](InvocationContext&) {
          --active;
          ++posted;
        });
  }
};

TEST(AsyncChaosTest, ParkCompleteCancelHammer) {
  runtime::EventLog log;
  core::ModeratorOptions options;
  options.log = &log;
  Proxy proxy{Cell{}, options};
  const auto m = MethodId::of("async-hammer");
  Exclusive guard;
  auto order = std::make_shared<core::HookOrderGuard>(guard.aspect());
  proxy.moderator().register_aspect(m, AspectKind::of("hammer-k"), order);

  constexpr int kThreads = 4;
  constexpr int kAsyncEach = 40;
  constexpr int kSyncEach = 20;
  std::atomic<long> completed{0}, cancelled{0};
  std::stop_source stopper;  // cancelled mid-storm, below
  std::atomic<int> started{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::deque<Call> slab;
        std::vector<concurrency::Future<Call::Result>> futures;
        for (int i = 0; i < kAsyncEach; ++i) {
          auto& call = slab.emplace_back(proxy, m, Bump{});
          // Every third call is cancellable; the stop fires mid-storm.
          if (i % 3 == 0) call.context().set_stop(stopper.get_token());
          futures.push_back(call.future());
          call.start();
          started.fetch_add(1);
          // Interleave sync traffic on the same exclusive method so the
          // classic blocking path and the park path contend directly.
          if (i % (kAsyncEach / kSyncEach) == 0) {
            auto r = proxy.invoke(m, Bump{});
            ASSERT_TRUE(r.ok());
          }
          if (t == 0 && i == kAsyncEach / 2) stopper.request_stop();
          concurrency::progress();
        }
        concurrency::progress_until([&] {
          for (const auto& f : futures) {
            if (!f.ready()) return false;
          }
          return true;
        });
        for (auto& f : futures) {
          switch (f.value().status) {
            case InvocationStatus::kCompleted:
              completed.fetch_add(1);
              break;
            case InvocationStatus::kCancelled:
              cancelled.fetch_add(1);
              break;
            default:
              ADD_FAILURE() << "unexpected status "
                            << static_cast<int>(f.value().status);
          }
        }
      });
    }
  }

  EXPECT_EQ(completed.load() + cancelled.load(), kThreads * kAsyncEach)
      << "every async submission must settle";
  EXPECT_GT(completed.load(), 0);
  // Exactly-once pairing across sync and async admissions.
  EXPECT_EQ(guard.entered, guard.posted);
  EXPECT_EQ(guard.entered,
            static_cast<std::uint64_t>(completed.load()) +
                static_cast<std::uint64_t>(kThreads * kSyncEach));
  EXPECT_EQ(proxy.component().value,
            completed.load() + kThreads * kSyncEach);
  EXPECT_TRUE(order->violations().empty())
      << order->violations().front().description;
  const auto stats = proxy.moderator().stats(m);
  EXPECT_EQ(stats.admitted, stats.completed);
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
  const auto violations = core::TraceValidator::validate(log);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().description);
}

TEST(AsyncChaosTest, DeadlineRacesWakerCompletion) {
  // A parked call's deadline expires at the same moment a completing
  // writer transfers it: whichever way each race lands, the call must
  // settle exactly once — kCompleted or a structured kTimedOut — with no
  // lost wakeup and a conformant trace.
  runtime::EventLog log;
  core::ModeratorOptions options;
  options.log = &log;
  Proxy proxy{Cell{}, options};
  const auto m = MethodId::of("async-deadline-race");
  Exclusive guard;
  auto order = std::make_shared<core::HookOrderGuard>(guard.aspect());
  proxy.moderator().register_aspect(m, AspectKind::of("race-k"), order);

  // Holder: sync traffic that occupies the exclusive slot for ~2 ms at a
  // time, so parked deadlines in the 0–3 ms band genuinely race the
  // completion signal. `holding` lets the submitter time each batch into
  // the middle of a hold (without it, a single-core scheduler happily runs
  // whole batches while the slot is free and nothing ever parks).
  std::atomic<bool> done{false};
  std::atomic<bool> holding{false};
  std::jthread holder([&] {
    while (!done.load()) {
      auto r = proxy.invoke(m, [&](Cell& c) {
        ++c.value;
        holding.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        holding.store(false);
      });
      ASSERT_TRUE(r.ok());
    }
  });

  constexpr int kRounds = 15;
  constexpr int kBatch = 24;
  runtime::Rng rng(0xD15EA5E);
  long completed = 0, timed_out = 0;
  for (int round = 0; round < kRounds; ++round) {
    while (!holding.load()) std::this_thread::yield();
    std::deque<Call> slab;
    std::vector<concurrency::Future<Call::Result>> futures;
    for (int i = 0; i < kBatch; ++i) {
      auto& call = slab.emplace_back(proxy, m, Bump{});
      call.context().set_deadline(
          proxy.moderator().clock().now() +
          std::chrono::microseconds(rng.uniform_int(0, 3000)));
      futures.push_back(call.future());
      call.start();
    }
    concurrency::progress_until([&] {
      for (const auto& f : futures) {
        if (!f.ready()) return false;
      }
      return true;
    });
    for (auto& f : futures) {
      const auto& result = f.value();
      if (result.ok()) {
        ++completed;
      } else {
        ASSERT_EQ(result.status, InvocationStatus::kTimedOut);
        EXPECT_EQ(result.error.code, ErrorCode::kTimeout);
        ++timed_out;
      }
    }
  }
  done.store(true);
  holder.join();

  EXPECT_EQ(completed + timed_out, long{kRounds} * kBatch);
  EXPECT_GT(timed_out, 0) << "deadline band too generous to race";
  EXPECT_EQ(guard.entered, guard.posted);
  EXPECT_TRUE(order->violations().empty())
      << order->violations().front().description;
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
  const auto violations = core::TraceValidator::validate(log);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().description);
}

TEST(AsyncChaosTest, SyncDeadlineRacesWakerCompletion) {
  // A blocked SYNC caller is a parked call plus a doorbell wait. Its own
  // deadline escape (unpark the node, retry, settle kTimeout) races a
  // completing holder's transfer of the same node. Every call starts
  // inside a hold, and holds and deadlines are drawn from one seeded band,
  // so the two land close together; whichever wins, each call gets exactly
  // one outcome and the node's frame outlives every touch of it (TSan and
  // ASan watch the frame die).
  runtime::EventLog log;
  core::ModeratorOptions options;
  options.log = &log;
  Proxy proxy{Cell{}, options};
  const auto m = MethodId::of("sync-deadline-race");
  Exclusive guard;
  auto order = std::make_shared<core::HookOrderGuard>(guard.aspect());
  proxy.moderator().register_aspect(m, AspectKind::of("sync-race-k"), order);

  const std::uint64_t seed = runtime::FaultInjector::env_seed(0x5EED);
  std::atomic<bool> done{false};
  std::atomic<bool> holding{false};
  std::atomic<long> held{0};
  std::jthread holder([&] {
    runtime::Rng rng(seed);
    while (!done.load()) {
      const auto hold = std::chrono::microseconds(rng.uniform_int(100, 1200));
      auto r = proxy.invoke(m, [&](Cell& c) {
        ++c.value;
        holding.store(true);
        std::this_thread::sleep_for(hold);
        holding.store(false);
      });
      ASSERT_TRUE(r.ok());
      held.fetch_add(1);
    }
  });

  constexpr int kCallers = 3;
  constexpr int kRounds = 80;
  std::atomic<long> completed{0}, timed_out{0};
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        runtime::Rng rng(seed + static_cast<std::uint64_t>(t) + 1);
        for (int i = 0; i < kRounds; ++i) {
          while (!holding.load()) std::this_thread::yield();
          auto r = proxy.call(m)
                       .within(std::chrono::microseconds(
                           rng.uniform_int(100, 1200)))
                       .run(Bump{});
          if (r.ok()) {
            completed.fetch_add(1);
          } else {
            ASSERT_EQ(r.status, InvocationStatus::kTimedOut);
            EXPECT_EQ(r.error.code, ErrorCode::kTimeout);
            timed_out.fetch_add(1);
          }
        }
      });
    }
  }
  done.store(true);
  holder.join();

  EXPECT_EQ(completed.load() + timed_out.load(), long{kCallers} * kRounds)
      << "every sync call gets exactly one outcome";
  EXPECT_GT(completed.load(), 0);
  EXPECT_GT(timed_out.load(), 0) << "deadline band too generous to race";
  EXPECT_EQ(guard.entered, guard.posted);
  EXPECT_EQ(guard.entered,
            static_cast<std::uint64_t>(completed.load() + held.load()));
  EXPECT_TRUE(order->violations().empty())
      << order->violations().front().description;
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
  const auto violations = core::TraceValidator::validate(log);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().description);
}

}  // namespace
}  // namespace amf
