// Tests for the sharded moderator lock (one mutex + condvar per method).
//
// What must hold after the refactor:
//   * methods sharing an aspect OBJECT still admit atomically as a group
//     (repair D2 — the bank-derived lock group),
//   * cross-method wake plans still work: postactions and the guards they
//     enable are serialized via ordered acquisition of the completed
//     method's shard plus its wake targets,
//   * shutdown reaches waiters parked on DIFFERENT methods' condvars,
//   * independent methods make progress concurrently (no global mutex).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "core/aspect.hpp"
#include "core/moderator.hpp"
#include "aspects/synchronization.hpp"

namespace amf::core {
namespace {

using runtime::AspectKind;
using runtime::MethodId;

// --- lock-group atomicity (D2 across shards) -----------------------------

TEST(ModeratorShardingTest, SharedAspectGroupStaysMutuallyExclusive) {
  // ONE MutualExclusionAspect on two methods forms an exclusion group; the
  // sharded moderator must admit across BOTH methods atomically, never two
  // bodies at once. A max-concurrency probe would race if admission were
  // per-method only.
  AspectModerator moderator;
  const auto a = MethodId::of("shard-group-a");
  const auto b = MethodId::of("shard-group-b");
  auto excl = std::make_shared<aspects::MutualExclusionAspect>(1);
  moderator.register_aspect(a, AspectKind::of("shard-excl"), excl);
  moderator.register_aspect(b, AspectKind::of("shard-excl"), excl);
  moderator.bank().set_notification_plan(a, {a, b});
  moderator.bank().set_notification_plan(b, {a, b});

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
  EXPECT_EQ(max_inside.load(), 1) << "exclusion group admitted two bodies";
  EXPECT_EQ(completed.load(), kThreads * kOpsPerThread);
  EXPECT_EQ(moderator.stats(a).admitted + moderator.stats(b).admitted,
            static_cast<std::uint64_t>(kThreads * kOpsPerThread));
}

// --- cross-method wake plans under concurrency ---------------------------

TEST(ModeratorShardingTest, PlannedProducerConsumerAcrossTwoMethods) {
  // The paper's open→assign / assign→open shape, concurrently: producers
  // blocked on "full" are woken only by consumer completions and vice
  // versa. State is coupled through shared captures (invisible to the
  // bank), so correctness rests on the plan-target lock acquisition.
  AspectModerator moderator;
  const auto produce = MethodId::of("shard-produce");
  const auto consume = MethodId::of("shard-consume");
  auto state = std::make_shared<aspects::BoundedResourceState>(4);
  moderator.register_aspect(
      produce, AspectKind::of("shard-sync"),
      std::make_shared<aspects::BoundedResourceAspect>(
          aspects::BoundedResourceAspect::Role::kProducer, state));
  moderator.register_aspect(
      consume, AspectKind::of("shard-sync"),
      std::make_shared<aspects::BoundedResourceAspect>(
          aspects::BoundedResourceAspect::Role::kConsumer, state));
  moderator.bank().set_notification_plan(produce, {consume, produce});
  moderator.bank().set_notification_plan(consume, {produce, consume});

  constexpr int kPairs = 4;
  constexpr int kOps = 500;
  std::atomic<int> produced{0};
  std::atomic<int> consumed{0};
  {
    std::vector<std::jthread> workers;
    for (int p = 0; p < kPairs; ++p) {
      workers.emplace_back([&] {
        for (int i = 0; i < kOps; ++i) {
          InvocationContext ctx(produce);
          ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
          produced.fetch_add(1);
          moderator.postactivation(ctx);
        }
      });
      workers.emplace_back([&] {
        for (int i = 0; i < kOps; ++i) {
          InvocationContext ctx(consume);
          ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
          consumed.fetch_add(1);
          moderator.postactivation(ctx);
        }
      });
    }
  }
  EXPECT_EQ(produced.load(), kPairs * kOps);
  EXPECT_EQ(consumed.load(), kPairs * kOps);
  // All slots drained: every reservation was matched by a consumption.
  EXPECT_EQ(state->reserved, 0u);
  EXPECT_EQ(state->committed, 0u);
  EXPECT_EQ(moderator.stats(produce).completed,
            static_cast<std::uint64_t>(kPairs * kOps));
  EXPECT_EQ(moderator.stats(consume).completed,
            static_cast<std::uint64_t>(kPairs * kOps));
}

TEST(ModeratorShardingTest, PlanWakesWaiterOnOtherMethodsShard) {
  // A waiter parked on method X's condvar must be woken by a completion of
  // method Y when Y's plan names X — across two different shard mutexes.
  AspectModerator moderator;
  const auto waiting = MethodId::of("shard-waiting");
  const auto releasing = MethodId::of("shard-releasing");
  auto gate = std::make_shared<bool>(false);
  moderator.register_aspect(
      waiting, AspectKind::of("shard-gate"),
      std::make_shared<LambdaAspect>("gate", [gate](InvocationContext&) {
        return *gate ? Decision::kResume : Decision::kBlock;
      }));
  moderator.register_aspect(
      releasing, AspectKind::of("shard-open"),
      std::make_shared<LambdaAspect>("open", nullptr, nullptr,
                                     [gate](InvocationContext&) {
                                       *gate = true;
                                     }));
  moderator.bank().set_notification_plan(releasing, {waiting});

  std::atomic<bool> admitted{false};
  std::jthread waiter([&] {
    InvocationContext ctx(waiting);
    EXPECT_EQ(moderator.preactivation(ctx), Decision::kResume);
    admitted.store(true);
    moderator.postactivation(ctx);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());
  EXPECT_EQ(moderator.async_parked(), 1);

  InvocationContext ctx(releasing);
  ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
  moderator.postactivation(ctx);
  waiter.join();
  EXPECT_TRUE(admitted.load());
}

// --- shutdown across shards ----------------------------------------------

TEST(ModeratorShardingTest, ShutdownReachesWaitersOnDifferentMethods) {
  AspectModerator moderator;
  constexpr int kMethods = 4;
  constexpr int kWaitersPerMethod = 3;
  std::vector<MethodId> methods;
  for (int m = 0; m < kMethods; ++m) {
    const auto id = MethodId::of("shard-shut-" + std::to_string(m));
    methods.push_back(id);
    moderator.register_aspect(
        id, AspectKind::of("shard-never"),
        std::make_shared<LambdaAspect>(
            "never", [](InvocationContext&) { return Decision::kBlock; }));
  }

  std::atomic<int> refused{0};
  {
    std::vector<std::jthread> waiters;
    for (const auto method : methods) {
      for (int w = 0; w < kWaitersPerMethod; ++w) {
        waiters.emplace_back([&, method] {
          InvocationContext ctx(method);
          if (moderator.preactivation(ctx) == Decision::kAbort &&
              ctx.abort_error()->code == runtime::ErrorCode::kCancelled) {
            refused.fetch_add(1);
          }
        });
      }
    }
    // Let the waiters park on their respective shard condvars.
    while (moderator.async_parked() < kMethods * kWaitersPerMethod) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    moderator.shutdown();
  }
  EXPECT_EQ(refused.load(), kMethods * kWaitersPerMethod);
  EXPECT_TRUE(moderator.is_shutdown());
  InvocationContext late(methods.front());
  EXPECT_EQ(moderator.preactivation(late), Decision::kAbort);
}

// --- independence of unrelated methods -----------------------------------

TEST(ModeratorShardingTest, IndependentMethodsAllComplete) {
  // Methods with disjoint aspects and self-only plans share no shard; the
  // heavy cross-thread hammering must preserve each method's own guard
  // invariant (its private exclusion limit) and lose no completion.
  AspectModerator moderator;
  constexpr int kMethods = 4;
  constexpr int kThreadsPerMethod = 2;
  constexpr int kOps = 300;
  std::vector<MethodId> methods;
  std::vector<std::shared_ptr<aspects::MutualExclusionAspect>> aspects_;
  for (int m = 0; m < kMethods; ++m) {
    const auto id = MethodId::of("shard-ind-" + std::to_string(m));
    methods.push_back(id);
    auto excl = std::make_shared<aspects::MutualExclusionAspect>(1);
    aspects_.push_back(excl);
    moderator.register_aspect(id, AspectKind::of("shard-ind-excl"), excl);
    moderator.bank().set_notification_plan(id, {id});
  }

  std::vector<std::atomic<int>> inside(kMethods);
  std::atomic<int> violations{0};
  {
    std::vector<std::jthread> workers;
    for (int m = 0; m < kMethods; ++m) {
      for (int t = 0; t < kThreadsPerMethod; ++t) {
        workers.emplace_back([&, m] {
          for (int i = 0; i < kOps; ++i) {
            InvocationContext ctx(methods[m]);
            ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
            if (inside[m].fetch_add(1) + 1 > 1) violations.fetch_add(1);
            inside[m].fetch_sub(1);
            moderator.postactivation(ctx);
          }
        });
      }
    }
  }
  EXPECT_EQ(violations.load(), 0);
  for (int m = 0; m < kMethods; ++m) {
    EXPECT_EQ(moderator.stats(methods[m]).completed,
              static_cast<std::uint64_t>(kThreadsPerMethod * kOps));
    EXPECT_EQ(aspects_[m]->active(), 0u);
  }
}

// --- adaptability across shard regrouping --------------------------------

TEST(ModeratorShardingTest, RegroupingWhileBlockedTakesEffect) {
  // Registering a SHARED aspect while a caller is blocked changes the
  // caller's lock group mid-wait; the waiter must re-acquire the larger
  // group and still honor both aspects.
  AspectModerator moderator;
  const auto m1 = MethodId::of("shard-regroup-1");
  const auto m2 = MethodId::of("shard-regroup-2");
  auto gate = std::make_shared<std::atomic<bool>>(false);
  moderator.register_aspect(
      m1, AspectKind::of("shard-regate"),
      std::make_shared<LambdaAspect>("gate", [gate](InvocationContext&) {
        return gate->load() ? Decision::kResume : Decision::kBlock;
      }));

  std::atomic<bool> admitted{false};
  std::jthread waiter([&] {
    InvocationContext ctx(m1);
    EXPECT_EQ(moderator.preactivation(ctx), Decision::kResume);
    admitted.store(true);
    moderator.postactivation(ctx);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());

  // Join m1 and m2 into one exclusion group while the waiter sleeps.
  auto excl = std::make_shared<aspects::MutualExclusionAspect>(1);
  moderator.register_aspect(m1, AspectKind::of("shard-rejoin"), excl);
  moderator.register_aspect(m2, AspectKind::of("shard-rejoin"), excl);
  gate->store(true);

  // A completion on m2 (same group, default plan wakes everything) must
  // reach the regrouped waiter.
  InvocationContext ctx(m2);
  ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
  moderator.postactivation(ctx);
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(excl->active(), 0u);
}

// --- recomposition barrier (DESIGN.md §10) -------------------------------

TEST(ModeratorShardingTest, RecompositionWaitsForInFlightBodies) {
  // Registering an aspect while a caller is between admission and
  // completion must quiesce: the mutation blocks until the in-flight span
  // closes, and the in-flight call's postactions come from its ADMITTED
  // chain — the late aspect never sees half an invocation.
  AspectModerator moderator;
  const auto m = MethodId::of("shard-bar-quiesce");
  std::atomic<int> late_entries{0};
  std::atomic<int> late_posts{0};
  auto late = std::make_shared<LambdaAspect>(
      "late", nullptr,
      [&](InvocationContext&) { late_entries.fetch_add(1); },
      [&](InvocationContext&) { late_posts.fetch_add(1); });
  moderator.register_aspect(
      m, AspectKind::of("shard-bar-base"),
      std::make_shared<aspects::MutualExclusionAspect>(1));

  std::atomic<bool> in_body{false};
  std::atomic<bool> release{false};
  std::jthread caller([&] {
    InvocationContext ctx(m);
    ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
    in_body.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    moderator.postactivation(ctx);
  });
  while (!in_body.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::atomic<bool> registered{false};
  std::jthread registrar([&] {
    moderator.register_aspect(m, AspectKind::of("shard-bar-late"), late);
    registered.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(registered.load())
      << "registration must wait for the open span";

  release.store(true);
  caller.join();
  registrar.join();
  EXPECT_TRUE(registered.load());
  EXPECT_EQ(late_entries.load(), 0) << "late aspect saw the old admission";
  EXPECT_EQ(late_posts.load(), 0);

  // Subsequent invocations run the full lifecycle of the new composition.
  InvocationContext ctx(m);
  ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
  moderator.postactivation(ctx);
  EXPECT_EQ(late_entries.load(), 1);
  EXPECT_EQ(late_posts.load(), 1);
}

TEST(ModeratorShardingTest, SelfMutationPinsPostactivationLockSet) {
  // A body that recomposes its OWN method (allowed: the mutating thread's
  // open span is exempt from the barrier) changes the lock group between
  // admission and completion. Postactivation must pin the admission-time
  // set — strict entry ≺ postaction pairing on the admitted chain — while
  // locking the union with the current composition's completion set.
  AspectModerator moderator;
  const auto m = MethodId::of("shard-pin-self");
  const auto other = MethodId::of("shard-pin-other");
  std::atomic<int> old_posts{0};
  moderator.register_aspect(
      m, AspectKind::of("shard-pin-base"),
      std::make_shared<LambdaAspect>("old", nullptr, nullptr,
                                     [&](InvocationContext&) {
                                       old_posts.fetch_add(1);
                                     }));
  moderator.bank().set_notification_plan(m, {m});

  std::atomic<int> joined_posts{0};
  auto joined = std::make_shared<LambdaAspect>(
      "joined", nullptr, nullptr,
      [&](InvocationContext&) { joined_posts.fetch_add(1); });

  InvocationContext ctx(m);
  ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
  // Mid-call: join m with another method through a shared aspect, growing
  // m's lock group under the admitted invocation.
  moderator.register_aspect(m, AspectKind::of("shard-pin-join"), joined);
  moderator.register_aspect(other, AspectKind::of("shard-pin-join"), joined);
  moderator.postactivation(ctx);

  EXPECT_EQ(old_posts.load(), 1);
  EXPECT_EQ(joined_posts.load(), 0)
      << "postaction must follow the admitted chain, not the new one";

  // The regrouped composition works for fresh calls on both methods.
  InvocationContext c1(m);
  ASSERT_EQ(moderator.preactivation(c1), Decision::kResume);
  moderator.postactivation(c1);
  InvocationContext c2(other);
  ASSERT_EQ(moderator.preactivation(c2), Decision::kResume);
  moderator.postactivation(c2);
  EXPECT_EQ(joined_posts.load(), 2);
}

TEST(ModeratorShardingTest, MethodsJoinAndLeaveUnderNoPlanTraffic) {
  // A no-plan method locks and wakes every method of its epoch's
  // composition, and every locked section re-checks the epoch under its
  // locks. While no-plan callers run, two consumer methods — one without a
  // plan, one with a self-plan — repeatedly join the composition (sharing
  // the producer's token aspect) and leave it. Their callers park when the
  // tokens run out and must be woken by producer completions of the epoch
  // they joined, or released by the barrier when they leave: every call
  // settles, and no token is lost or spent twice.
  AspectModerator moderator;
  const auto produce = MethodId::of("shard-jl-produce");
  const MethodId busy[] = {MethodId::of("shard-jl-busy-0"),
                           MethodId::of("shard-jl-busy-1")};
  const MethodId joiners[] = {MethodId::of("shard-jl-free"),
                              MethodId::of("shard-jl-planned")};
  const auto kind = AspectKind::of("shard-jl");
  int tokens = 0;  // guarded by the token aspect's lock group
  int spent = 0;
  auto token = std::make_shared<LambdaAspect>(
      "token",
      [&](InvocationContext& ctx) {
        return ctx.method() == produce || tokens > 0 ? Decision::kResume
                                                     : Decision::kBlock;
      },
      [&](InvocationContext& ctx) {
        if (ctx.method() != produce) {
          --tokens;
          ++spent;
        }
      },
      [&](InvocationContext& ctx) {
        if (ctx.method() == produce) ++tokens;
      });
  std::vector<Binding> cells{{produce, kind, token}};
  for (const auto m : busy) {
    cells.push_back({m, kind, std::make_shared<aspects::MutualExclusionAspect>(1)});
  }
  moderator.bank().register_aspects(std::move(cells),
                                    {{joiners[1], {joiners[1]}}});
  const auto join = [&] {
    moderator.bank().register_aspects(
        {{joiners[0], kind, token}, {joiners[1], kind, token}});
  };
  const auto leave = [&] {
    for (const auto m : joiners) moderator.bank().remove_aspect(m, kind);
  };

  constexpr int kProduced = 300;  // per producer
  constexpr int kConsumed = 100;  // per consumer, fewer than produced
  std::atomic<int> producers_left{2};
  std::atomic<int> refused{0};
  const auto call = [&](MethodId m, bool bounded) {
    InvocationContext ctx(m);
    if (bounded) {
      ctx.set_deadline(runtime::RealClock::instance().now() +
                       std::chrono::seconds(20));
    }
    if (moderator.preactivation(ctx) != Decision::kResume) {
      refused.fetch_add(1);
      return;
    }
    moderator.postactivation(ctx);
  };
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < 2; ++t) {
      workers.emplace_back([&] {
        for (int i = 0; i < kProduced; ++i) call(produce, false);
        producers_left.fetch_sub(1);
      });
      workers.emplace_back([&, t] {
        for (int i = 0; i < kProduced; ++i) call(busy[t], false);
      });
    }
    for (const auto m : joiners) {
      for (int t = 0; t < 2; ++t) {
        workers.emplace_back([&, m] {
          for (int i = 0; i < kConsumed; ++i) call(m, true);
        });
      }
    }
    workers.emplace_back([&] {
      while (producers_left.load() > 0) {
        join();
        std::this_thread::yield();
        leave();
      }
      join();  // consumers still running finish on tokens alone
    });
  }
  EXPECT_EQ(refused.load(), 0) << "a parked consumer was never woken";
  EXPECT_GE(tokens, 0);
  EXPECT_EQ(tokens + spent, 2 * kProduced);
  EXPECT_LE(spent, 4 * kConsumed);
  EXPECT_EQ(moderator.async_parked(), 0);
  for (const auto m : joiners) {
    EXPECT_EQ(moderator.stats(m).completed,
              static_cast<std::uint64_t>(2 * kConsumed));
  }
}

TEST(ModeratorShardingTest, AspectMigrationHammer) {
  // Forced-interleaving regression for the aspect-migration window: while
  // callers hammer two methods, a mutator repeatedly registers and removes
  // a SHARED aspect that merges and splits their lock groups. Whatever the
  // interleaving, per-method exclusion must hold, every invocation must
  // complete, and the migrating aspect's entry/postaction pairing must be
  // exact (a torn migration would strand one side of a pair).
  AspectModerator moderator;
  const auto a = MethodId::of("shard-mig-a");
  const auto b = MethodId::of("shard-mig-b");
  auto excl_a = std::make_shared<aspects::MutualExclusionAspect>(1);
  auto excl_b = std::make_shared<aspects::MutualExclusionAspect>(1);
  moderator.register_aspect(a, AspectKind::of("shard-mig-excl"), excl_a);
  moderator.register_aspect(b, AspectKind::of("shard-mig-excl"), excl_b);
  moderator.bank().set_notification_plan(a, {a});
  moderator.bank().set_notification_plan(b, {b});

  std::atomic<int> link_entries{0};
  std::atomic<int> link_posts{0};
  auto link = std::make_shared<LambdaAspect>(
      "link", nullptr,
      [&](InvocationContext&) { link_entries.fetch_add(1); },
      [&](InvocationContext&) { link_posts.fetch_add(1); });

  std::array<std::atomic<int>, 2> inside{};
  std::atomic<int> violations{0};
  std::atomic<int> completed{0};
  constexpr int kOps = 150;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        const int mi = t % 2;
        const auto method = (mi == 0) ? a : b;
        for (int i = 0; i < kOps; ++i) {
          InvocationContext ctx(method);
          ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
          if (inside[mi].fetch_add(1) + 1 > 1) violations.fetch_add(1);
          inside[mi].fetch_sub(1);
          moderator.postactivation(ctx);
          completed.fetch_add(1);
        }
      });
    }
    workers.emplace_back([&] {
      // Migrate the link in and out until the callers are done.
      while (completed.load() < 4 * kOps) {
        moderator.register_aspect(a, AspectKind::of("shard-mig-link"), link);
        moderator.register_aspect(b, AspectKind::of("shard-mig-link"), link);
        moderator.bank().remove_aspect(a, AspectKind::of("shard-mig-link"));
        moderator.bank().remove_aspect(b, AspectKind::of("shard-mig-link"));
      }
    });
  }
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(completed.load(), 4 * kOps);
  EXPECT_EQ(link_entries.load(), link_posts.load())
      << "migration tore an entry/postaction pair";
  EXPECT_EQ(excl_a->active(), 0u);
  EXPECT_EQ(excl_b->active(), 0u);
  EXPECT_EQ(moderator.async_parked(), 0);

  // Compiled-chain invalidation: this thread's moderation cache holds a
  // COMPILED plan (pre-resolved hook thunks) for `a`. Once remove_aspect
  // has returned, no later admission on this thread may run the removed
  // aspect's hooks out of that stale compiled plan — the epoch check must
  // force a recompile.
  std::atomic<int> stale_executions{0};
  std::atomic<bool> retired{false};
  auto canary = std::make_shared<LambdaAspect>(
      "canary",
      [&](InvocationContext&) {
        if (retired.load()) stale_executions.fetch_add(1);
        return Decision::kResume;
      },
      [&](InvocationContext&) {
        if (retired.load()) stale_executions.fetch_add(1);
      },
      [&](InvocationContext&) {
        if (retired.load()) stale_executions.fetch_add(1);
      });
  canary->set_nonblocking(true);
  moderator.register_aspect(a, AspectKind::of("shard-mig-canary"), canary);
  {
    // Warm the cache so it pins the canary-bearing compiled chain.
    InvocationContext warm(a);
    ASSERT_EQ(moderator.preactivation(warm), Decision::kResume);
    moderator.postactivation(warm);
  }
  moderator.bank().remove_aspect(a, AspectKind::of("shard-mig-canary"));
  retired.store(true);
  for (int i = 0; i < 64; ++i) {
    InvocationContext ctx(a);
    ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
    moderator.postactivation(ctx);
  }
  EXPECT_EQ(stale_executions.load(), 0)
      << "a stale compiled chain executed a removed aspect's hooks";
}

}  // namespace
}  // namespace amf::core
