// Tests for grouped chains on the one park path (DESIGN.md §18.2).
//
// Methods that share an aspect OBJECT and have no notification plan hold
// the whole shard set at admission and at completion (G6). A grouped call
// that misses the §11 fast path goes through the locked admission loop
// and, while a guard blocks, parks on its method's list like every other
// blocked call. What must hold:
//   * grouped admission stays atomic — never two bodies in an exclusion
//     group at once,
//   * verdicts are per call — one call's veto aborts only that call, and
//     entry/postaction pairing (G4) is exact for the admitted ones,
//   * parked calls are woken by completions, with NO lost wakeup against
//     the lock-free fast path's Dekker handshake or recomposition epoch
//     bumps,
//   * deadlines follow PROTOCOL §3 rule 2 exactly as on a single shard: a
//     parked call times out, and a passing chain admits past its deadline,
//   * shutdown and stop requests reach parked grouped calls.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "aspects/synchronization.hpp"
#include "core/aspect.hpp"
#include "core/moderator.hpp"
#include "runtime/clock.hpp"

namespace amf::core {
namespace {

using runtime::AspectKind;
using runtime::ErrorCode;
using runtime::MethodId;

// Grouped methods with NO notification plan: every admission and every
// completion holds the all-shards set. (Setting a plan routes completions
// through planned wake targets; the sharding tests cover that regime.)

// --- grouped atomicity under a write burst -------------------------------

TEST(ModeratorBatchTest, GroupedAdmissionsStayAtomicUnderWriteBurst) {
  AspectModerator moderator;
  const auto a = MethodId::of("batch-group-a");
  const auto b = MethodId::of("batch-group-b");
  auto excl = std::make_shared<aspects::MutualExclusionAspect>(1);
  moderator.register_aspect(a, AspectKind::of("batch-excl"), excl);
  moderator.register_aspect(b, AspectKind::of("batch-excl"), excl);

  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::atomic<int> completed{0};
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        const auto method = (t % 2 == 0) ? a : b;
        for (int i = 0; i < kOpsPerThread; ++i) {
          InvocationContext ctx(method);
          ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
          const int now = inside.fetch_add(1) + 1;
          int seen = max_inside.load();
          while (now > seen && !max_inside.compare_exchange_weak(seen, now)) {
          }
          inside.fetch_sub(1);
          moderator.postactivation(ctx);
          completed.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(max_inside.load(), 1) << "two grouped bodies ran at once";
  EXPECT_EQ(completed.load(), kThreads * kOpsPerThread);
  EXPECT_EQ(moderator.stats(a).admitted + moderator.stats(b).admitted,
            static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(excl->active(), 0u);
  EXPECT_EQ(moderator.async_parked(), 0);
}

// --- per-call verdicts and G4 pairing across a group ---------------------

TEST(ModeratorBatchTest, BatchedVerdictsAreIsolatedAndPairingExact) {
  // Method b carries an extra always-veto guard; a and b still share the
  // "link" aspect, so both lock the same shard set. Every b call must abort
  // (its own verdict), every a call must admit, and the link aspect's
  // entry/postaction pairing must be exact: aborted calls never run entry.
  AspectModerator moderator;
  const auto a = MethodId::of("batch-iso-a");
  const auto b = MethodId::of("batch-iso-b");
  std::atomic<int> link_entries{0};
  std::atomic<int> link_posts{0};
  auto link = std::make_shared<LambdaAspect>(
      "link", nullptr,
      [&](InvocationContext&) { link_entries.fetch_add(1); },
      [&](InvocationContext&) { link_posts.fetch_add(1); });
  moderator.register_aspect(a, AspectKind::of("batch-link"), link);
  moderator.register_aspect(b, AspectKind::of("batch-link"), link);
  moderator.register_aspect(
      b, AspectKind::of("batch-veto"),
      std::make_shared<LambdaAspect>(
          "veto", [](InvocationContext&) { return Decision::kAbort; }));

  std::atomic<int> a_admitted{0};
  std::atomic<int> b_aborted{0};
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 150;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        const bool on_a = (t % 2 == 0);
        for (int i = 0; i < kOpsPerThread; ++i) {
          InvocationContext ctx(on_a ? a : b);
          const Decision d = moderator.preactivation(ctx);
          if (on_a) {
            ASSERT_EQ(d, Decision::kResume);
            a_admitted.fetch_add(1);
            moderator.postactivation(ctx);
          } else {
            ASSERT_EQ(d, Decision::kAbort)
                << "b's veto leaked past its own call";
            ASSERT_TRUE(ctx.abort_error());
            EXPECT_EQ(ctx.abort_error()->code, ErrorCode::kAborted);
            b_aborted.fetch_add(1);
          }
        }
      });
    }
  }
  EXPECT_EQ(a_admitted.load(), (kThreads / 2) * kOpsPerThread);
  EXPECT_EQ(b_aborted.load(), (kThreads / 2) * kOpsPerThread);
  EXPECT_EQ(moderator.stats(b).aborted,
            static_cast<std::uint64_t>(b_aborted.load()));
  EXPECT_EQ(link_entries.load(), a_admitted.load())
      << "an aborted call ran an entry hook";
  EXPECT_EQ(link_entries.load(), link_posts.load())
      << "a grouped call tore an entry/postaction pair";
}

// --- parked writers are woken by completions -----------------------------

TEST(ModeratorBatchTest, ParkedRequestWokenByGroupCompletion) {
  AspectModerator moderator;
  const auto waiting = MethodId::of("batch-wake-wait");
  const auto releasing = MethodId::of("batch-wake-open");
  auto gate = std::make_shared<std::atomic<bool>>(false);
  // The shared no-op link groups the two methods; the gate guard rides
  // only on `waiting`.
  auto linker = std::make_shared<LambdaAspect>("linker");
  moderator.register_aspect(waiting, AspectKind::of("batch-wk-link"), linker);
  moderator.register_aspect(releasing, AspectKind::of("batch-wk-link"),
                            linker);
  moderator.register_aspect(
      waiting, AspectKind::of("batch-wk-gate"),
      std::make_shared<LambdaAspect>("gate", [gate](InvocationContext&) {
        return gate->load() ? Decision::kResume : Decision::kBlock;
      }));
  moderator.register_aspect(
      releasing, AspectKind::of("batch-wk-open"),
      std::make_shared<LambdaAspect>("open", nullptr, nullptr,
                                     [gate](InvocationContext&) {
                                       gate->store(true);
                                     }));

  std::atomic<bool> admitted{false};
  std::jthread waiter([&] {
    InvocationContext ctx(waiting);
    EXPECT_EQ(moderator.preactivation(ctx), Decision::kResume);
    admitted.store(true);
    moderator.postactivation(ctx);
  });
  while (moderator.async_parked() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(admitted.load());
  EXPECT_EQ(moderator.stats(waiting).block_events, 1u);

  InvocationContext ctx(releasing);
  ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
  moderator.postactivation(ctx);
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(moderator.async_parked(), 0);
}

// --- lost-wakeup hammer (satellite proof; run under TSan in CI) ----------

TEST(ModeratorBatchTest, ParkedWakeupHammerSurvivesHandoffAndEpochBumps) {
  // The lost-wakeup surface of grouped parking: parked calls wait on
  // their threads' doorbells while admissions race through (a) the
  // all-shards completion transfer, (b) the §11 lock-free fast path's
  // sleepers_ gate, and (c) recomposition barriers that transfer every
  // parked call to retry. A shared exclusion limit of 1 makes every
  // admission a potential parker and every completion a required wakeup;
  // a mutator thread keeps merging/splitting the composition to bump
  // epochs mid-park. Any lost wakeup deadlocks the test (ctest TIMEOUT 120
  // converts it to failure).
  AspectModerator moderator;
  const auto a = MethodId::of("batch-hammer-a");
  const auto b = MethodId::of("batch-hammer-b");
  auto excl = std::make_shared<aspects::MutualExclusionAspect>(1);
  moderator.register_aspect(a, AspectKind::of("batch-hm-excl"), excl);
  moderator.register_aspect(b, AspectKind::of("batch-hm-excl"), excl);

  std::atomic<int> link_entries{0};
  std::atomic<int> link_posts{0};
  auto link = std::make_shared<LambdaAspect>(
      "hm-link", nullptr,
      [&](InvocationContext&) { link_entries.fetch_add(1); },
      [&](InvocationContext&) { link_posts.fetch_add(1); });

  std::atomic<int> inside{0};
  std::atomic<int> violations{0};
  std::atomic<int> completed{0};
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 250;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        const auto method = (t % 2 == 0) ? a : b;
        for (int i = 0; i < kOpsPerThread; ++i) {
          InvocationContext ctx(method);
          ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
          if (inside.fetch_add(1) + 1 > 1) violations.fetch_add(1);
          inside.fetch_sub(1);
          moderator.postactivation(ctx);
          completed.fetch_add(1);
        }
      });
    }
    workers.emplace_back([&] {
      // Epoch churn: register/remove a shared aspect, forcing barriers
      // that transfer every parked call to retry.
      while (completed.load() < kThreads * kOpsPerThread) {
        moderator.register_aspect(a, AspectKind::of("batch-hm-link"), link);
        moderator.register_aspect(b, AspectKind::of("batch-hm-link"), link);
        moderator.bank().remove_aspect(a, AspectKind::of("batch-hm-link"));
        moderator.bank().remove_aspect(b, AspectKind::of("batch-hm-link"));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(completed.load(), kThreads * kOpsPerThread);
  EXPECT_EQ(link_entries.load(), link_posts.load())
      << "recomposition tore an entry/postaction pair";
  EXPECT_EQ(excl->active(), 0u);
  EXPECT_EQ(moderator.async_parked(), 0);
}

// --- PROTOCOL §3 rule 2 on grouped calls ---------------------------------

TEST(ModeratorBatchTest, ExpiredDeadlineTimesOutWhileParked) {
  AspectModerator moderator;
  const auto m = MethodId::of("batch-dead-m");
  const auto other = MethodId::of("batch-dead-other");
  auto never = std::make_shared<LambdaAspect>(
      "never", [](InvocationContext&) { return Decision::kBlock; });
  moderator.register_aspect(m, AspectKind::of("batch-dead-k"), never);
  moderator.register_aspect(other, AspectKind::of("batch-dead-k"), never);

  InvocationContext ctx(m);
  ctx.set_deadline(runtime::RealClock::instance().now() +
                   std::chrono::milliseconds(40));
  EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
  ASSERT_TRUE(ctx.abort_error());
  EXPECT_EQ(ctx.abort_error()->code, ErrorCode::kTimeout);
  EXPECT_EQ(moderator.stats(m).timed_out, 1u);
  EXPECT_EQ(moderator.async_parked(), 0);
}

TEST(ModeratorBatchTest, ExpiredDeadlineStillAdmitsPassingChain) {
  // Rule 2: at the deadline the chain is evaluated once more, and a chain
  // that passes then still admits. A grouped method (two methods sharing
  // one aspect object) must follow it exactly like a single-shard one;
  // nothing sheds an expired call before its guards have run.
  const auto run = [](bool grouped) {
    AspectModerator moderator;
    const auto m =
        MethodId::of(grouped ? "batch-late-grouped" : "batch-late-solo");
    auto excl = std::make_shared<aspects::MutualExclusionAspect>(1);
    moderator.register_aspect(m, AspectKind::of("batch-late-excl"), excl);
    if (grouped) {
      moderator.register_aspect(MethodId::of("batch-late-sibling"),
                                AspectKind::of("batch-late-excl"), excl);
    }
    InvocationContext ctx(m);
    ctx.set_deadline(runtime::RealClock::instance().now() -
                     std::chrono::milliseconds(5));
    const Decision d = moderator.preactivation(ctx);
    if (d == Decision::kResume) moderator.postactivation(ctx);
    EXPECT_EQ(moderator.stats(m).timed_out, 0u);
    EXPECT_EQ(excl->active(), 0u);
    return d;
  };
  EXPECT_EQ(run(false), Decision::kResume) << "single-shard method";
  EXPECT_EQ(run(true), Decision::kResume) << "grouped method";
}

// --- shutdown refuses parked grouped calls -------------------------------

TEST(ModeratorBatchTest, ShutdownRefusesParkedBatchWaiters) {
  AspectModerator moderator;
  const auto a = MethodId::of("batch-shut-a");
  const auto b = MethodId::of("batch-shut-b");
  auto never = std::make_shared<LambdaAspect>(
      "never", [](InvocationContext&) { return Decision::kBlock; });
  moderator.register_aspect(a, AspectKind::of("batch-shut-k"), never);
  moderator.register_aspect(b, AspectKind::of("batch-shut-k"), never);

  constexpr int kWaiters = 6;
  std::atomic<int> refused{0};
  {
    std::vector<std::jthread> waiters;
    for (int w = 0; w < kWaiters; ++w) {
      waiters.emplace_back([&, w] {
        InvocationContext ctx((w % 2 == 0) ? a : b);
        if (moderator.preactivation(ctx) == Decision::kAbort &&
            ctx.abort_error()->code == ErrorCode::kCancelled) {
          refused.fetch_add(1);
        }
      });
    }
    while (moderator.async_parked() < kWaiters) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    moderator.shutdown();
  }
  EXPECT_EQ(refused.load(), kWaiters);
  EXPECT_TRUE(moderator.is_shutdown());
}

// --- stop tokens reach parked grouped calls ------------------------------

TEST(ModeratorBatchTest, StopRequestCancelsParkedBatchWaiter) {
  AspectModerator moderator;
  const auto a = MethodId::of("batch-stop-a");
  const auto b = MethodId::of("batch-stop-b");
  auto never = std::make_shared<LambdaAspect>(
      "never", [](InvocationContext&) { return Decision::kBlock; });
  moderator.register_aspect(a, AspectKind::of("batch-stop-k"), never);
  moderator.register_aspect(b, AspectKind::of("batch-stop-k"), never);

  std::stop_source stopper;
  std::atomic<bool> cancelled{false};
  std::jthread waiter([&] {
    InvocationContext ctx(a);
    ctx.set_stop(stopper.get_token());
    if (moderator.preactivation(ctx) == Decision::kAbort &&
        ctx.abort_error()->code == ErrorCode::kCancelled) {
      cancelled.store(true);
    }
  });
  while (moderator.async_parked() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stopper.request_stop();
  waiter.join();
  EXPECT_TRUE(cancelled.load());
  EXPECT_EQ(moderator.async_parked(), 0);
  EXPECT_EQ(moderator.stats(a).cancelled, 1u);
}

}  // namespace
}  // namespace amf::core
