// Randomized "chaos" integration test: a random concern graph (methods ×
// aspects with random guard behavior) is hammered by concurrent callers
// with random deadlines while the protocol verifier watches every cell and
// the moderator trace is validated afterwards.
//
// The property under test is global: WHATEVER the aspect graph does
// (resume/block/abort in any pattern), the framework never violates the
// moderation protocol, never loses an admission/postaction pairing, and
// never deadlocks with wake-all notification.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "aspects/overload.hpp"
#include "concurrency/thread_pool.hpp"
#include "core/framework.hpp"
#include "net/transport.hpp"
#include "runtime/fault.hpp"
#include "runtime/random.hpp"

namespace amf {
namespace {

using core::Decision;
using core::InvocationContext;
using runtime::AspectKind;
using runtime::MethodId;

// A guard whose verdict pattern is pseudo-random but deterministic:
// Block verdicts flip to Resume on the next evaluation of the same
// invocation (so nothing blocks forever), Abort appears with ~10% rate.
class ChaoticAspect final : public core::Aspect {
 public:
  explicit ChaoticAspect(std::uint64_t seed) : rng_(seed) {}

  std::string_view name() const override { return "chaotic"; }

  Decision precondition(InvocationContext& ctx) override {
    // Invocations that already blocked once under us are let through so
    // the workload always drains.
    if (ctx.note("chaos.blocked." + std::string(name()))) {
      return Decision::kResume;
    }
    const double roll = rng_.uniform();
    if (roll < 0.10) {
      ctx.set_abort_error(runtime::make_error(runtime::ErrorCode::kAborted,
                                              "chaotic veto"));
      return Decision::kAbort;
    }
    if (roll < 0.25) {
      ctx.set_note("chaos.blocked." + std::string(name()), "1");
      return Decision::kBlock;
    }
    return Decision::kResume;
  }

  void entry(InvocationContext&) override { ++entered_; }
  void postaction(InvocationContext&) override { ++posted_; }

  std::uint64_t entered() const { return entered_; }
  std::uint64_t posted() const { return posted_; }

 private:
  runtime::Rng rng_;
  std::uint64_t entered_ = 0;
  std::uint64_t posted_ = 0;
};

struct Dummy {};

// Fails a case that is still running after `limit`: runs `dump`, records a
// gtest failure and aborts the binary. A hung case then names its stuck
// call in the test output instead of running silently into ctest's
// timeout. Destroying the timer disarms it.
class CaseTimer {
 public:
  CaseTimer(std::chrono::seconds limit, std::function<void()> dump)
      : thread_([this, limit, dump = std::move(dump)](std::stop_token st) {
          std::unique_lock lk(mu_);
          cv_.wait_for(lk, st, limit, [] { return false; });
          if (st.stop_requested()) return;
          dump();
          ADD_FAILURE() << "case still running after " << limit.count()
                        << " s; aborting before the ctest timeout";
          std::fflush(stdout);
          std::abort();
        }) {}

 private:
  std::mutex mu_;
  std::condition_variable_any cv_;
  std::jthread thread_;  // last: joins before mu_ and cv_ are destroyed
};

class ChaosSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ChaosSweep, ProtocolHoldsUnderRandomConcernGraphs) {
  const auto [methods_n, aspects_per_method] = GetParam();
  runtime::EventLog log;
  core::ModeratorOptions options;
  options.log = &log;
  // Report-only stall watchdog: a waiter still blocked 50 ms past its
  // deadline is logged as a "stall:" event naming its method, the guard
  // that blocked it and its chain. It evicts nothing.
  core::WatchdogOptions watchdog;
  watchdog.poll = std::chrono::milliseconds(50);
  options.watchdog = watchdog;
  core::ComponentProxy<Dummy> proxy{Dummy{}, options};
  // Well under ctest's 120 s for the whole binary; a case takes well under
  // a second in a release build and a few seconds under TSan.
  const CaseTimer timer(std::chrono::seconds(30), [&] {
    std::printf("ChaosSweep %d methods x %d aspects: moderator report\n%s",
                methods_n, aspects_per_method,
                proxy.moderator().report().c_str());
    std::printf("async_parked=%lld\n",
                static_cast<long long>(proxy.moderator().async_parked()));
    for (const auto& e : log.by_category("watchdog")) {
      std::printf("invocation %llu: %s\n",
                  static_cast<unsigned long long>(e.invocation_id),
                  e.message.c_str());
    }
    // Calls with no verdict yet, by their last protocol event: a stuck
    // call that never parked leaves no stall record but shows up here.
    std::map<std::uint64_t, std::string> unsettled;
    for (const auto& e : log.by_category("moderator")) {
      const std::string_view msg = e.message;
      if (msg.starts_with("postactivation:") || msg.starts_with("abort:") ||
          msg.starts_with("timeout:") || msg.starts_with("cancelled:")) {
        unsettled.erase(e.invocation_id);
      } else {
        unsettled[e.invocation_id] = e.message;
      }
    }
    for (const auto& [id, last] : unsettled) {
      std::printf("invocation %llu unsettled, last event %s\n",
                  static_cast<unsigned long long>(id), last.c_str());
    }
  });

  std::vector<MethodId> methods;
  std::vector<std::shared_ptr<ChaoticAspect>> chaotics;
  std::vector<std::shared_ptr<core::HookOrderGuard>> guards;
  for (int mi = 0; mi < methods_n; ++mi) {
    const auto m = MethodId::of("chaos-" + std::to_string(methods_n) + "-" +
                                std::to_string(aspects_per_method) + "-" +
                                std::to_string(mi));
    methods.push_back(m);
    for (int ai = 0; ai < aspects_per_method; ++ai) {
      auto chaotic = std::make_shared<ChaoticAspect>(
          static_cast<std::uint64_t>(mi * 97 + ai * 31 + 5));
      auto guard = std::make_shared<core::HookOrderGuard>(chaotic);
      chaotics.push_back(chaotic);
      guards.push_back(guard);
      proxy.moderator().register_aspect(
          m, AspectKind::of("chaos-k" + std::to_string(ai)), guard);
    }
  }

  std::atomic<long> completed{0}, refused{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&, t] {
        runtime::Rng rng(static_cast<std::uint64_t>(t) + 1000);
        for (int i = 0; i < 400; ++i) {
          const auto m = methods[rng.uniform_int(0, methods.size() - 1)];
          // Chaotic guards change verdict spontaneously rather than on
          // completions, which is outside the framework's wakeup model —
          // so every call carries a deadline; the deadline wakeup itself
          // re-evaluates the guard (and usually admits, see ChaoticAspect).
          auto r = proxy.call(m)
                       .within(std::chrono::milliseconds(
                           rng.uniform_int(1, 20)))
                       .run([](Dummy&) {});
          (r.ok() ? completed : refused).fetch_add(1);
        }
      });
    }
  }

  // Global accounting: every caller got a verdict.
  EXPECT_EQ(completed.load() + refused.load(), 6 * 400);
  EXPECT_GT(completed.load(), 0);

  // Protocol verification: hook ordering clean for every aspect cell...
  for (const auto& guard : guards) {
    EXPECT_TRUE(guard->violations().empty())
        << guard->violations().front().description;
  }
  // ...entry/postaction pairing exact...
  for (const auto& chaotic : chaotics) {
    EXPECT_EQ(chaotic->entered(), chaotic->posted());
  }
  // ...and the moderator trace conforms to the Fig. 3 automaton.
  const auto violations = core::TraceValidator::validate(log);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().description);
  // Nobody left behind.
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
}

INSTANTIATE_TEST_SUITE_P(Graphs, ChaosSweep,
                         ::testing::Combine(::testing::Values(1, 3, 6),
                                            ::testing::Values(1, 2, 4)));

// --- seeded fault-injection chaos (DESIGN.md §10) --------------------------
//
// CI runs these under an AMF_FAULT_SEED matrix; env_seed() picks the seed
// up so a storm seen there replays locally with the same schedule. The
// whole section needs the injection hooks compiled in (they are no-ops
// under -DAMF_FAULT_INJECTION=OFF).
#if AMF_FAULT_INJECTION

TEST(SeededChaosTest, FaultStormKeepsProtocolInvariants) {
  // Hook faults injected into every moderator phase at once. Whatever the
  // schedule does, containment must hold: every caller gets a verdict,
  // entry/postaction pairing stays exact, the trace (now containing
  // aspect-fault events) still conforms, and nobody is left blocked.
  runtime::FaultInjector injector(runtime::FaultInjector::env_seed(3));
  injector.arm(runtime::FaultPoint::kPrecondition, 0.05);
  injector.arm(runtime::FaultPoint::kEntry, 0.05);
  injector.arm(runtime::FaultPoint::kPostaction, 0.05);

  runtime::EventLog log;
  core::ModeratorOptions options;
  options.log = &log;
  options.fault = &injector;
  core::ComponentProxy<Dummy> proxy{Dummy{}, options};

  std::vector<MethodId> methods;
  std::vector<std::shared_ptr<ChaoticAspect>> chaotics;
  for (int mi = 0; mi < 3; ++mi) {
    const auto m = MethodId::of("seeded-chaos-" + std::to_string(mi));
    methods.push_back(m);
    auto chaotic = std::make_shared<ChaoticAspect>(
        static_cast<std::uint64_t>(mi) * 131 + 17);
    chaotics.push_back(chaotic);
    proxy.moderator().register_aspect(m, AspectKind::of("seeded-chaos-k"),
                                      chaotic);
  }

  std::atomic<long> completed{0}, refused{0}, aspect_faults{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        runtime::Rng rng(static_cast<std::uint64_t>(t) + 2000);
        for (int i = 0; i < 300; ++i) {
          const auto m = methods[rng.uniform_int(0, methods.size() - 1)];
          auto r = proxy.call(m)
                       .within(std::chrono::milliseconds(
                           rng.uniform_int(1, 20)))
                       .run([](Dummy&) {});
          (r.ok() ? completed : refused).fetch_add(1);
          if (!r.ok() &&
              r.error.code == runtime::ErrorCode::kAspectFault) {
            aspect_faults.fetch_add(1);
          }
        }
      });
    }
  }

  EXPECT_EQ(completed.load() + refused.load(), 4 * 300);
  EXPECT_GT(completed.load(), 0);
  EXPECT_GT(injector.fires(runtime::FaultPoint::kPrecondition), 0u)
      << "the storm must actually fire";
  EXPECT_EQ(aspect_faults.load(),
            static_cast<long>(
                injector.fires(runtime::FaultPoint::kPrecondition)))
      << "every injected guard fault surfaces as exactly one kAspectFault";
  for (const auto& chaotic : chaotics) {
    EXPECT_EQ(chaotic->entered(), chaotic->posted());
  }
  const auto violations = core::TraceValidator::validate(log);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().description);
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
}

TEST(SeededChaosTest, SameSeedReproducesTheAbortSchedule) {
  // Single caller, fixed call count: the decision index sequence is then
  // deterministic, so the PATTERN of injected aborts — not just their
  // count — must be identical across runs with one seed, and (almost
  // surely) different under another.
  auto run = [](std::uint64_t seed) {
    runtime::FaultInjector injector(seed);
    injector.arm(runtime::FaultPoint::kPrecondition, 0.2);
    core::ModeratorOptions options;
    options.fault = &injector;
    core::ComponentProxy<Dummy> proxy{Dummy{}, options};
    const auto m = MethodId::of("seeded-replay");
    proxy.moderator().register_aspect(
        m, AspectKind::of("seeded-replay-k"),
        std::make_shared<core::LambdaAspect>("plain"));
    std::vector<bool> aborted;
    for (int i = 0; i < 200; ++i) {
      aborted.push_back(!proxy.invoke(m, [](Dummy&) {}).ok());
    }
    return aborted;
  };

  const auto first = run(41);
  EXPECT_EQ(first, run(41)) << "same seed must replay the same schedule";
  EXPECT_NE(first, run(42));
  EXPECT_GT(std::count(first.begin(), first.end(), true), 0);
}

TEST(SeededChaosTest, OneSeedDrivesModeratorTransportAndPool) {
  // The same injector threads through the moderator, the wire and the
  // thread pool, so one seed schedules the whole storm. Invariants: pool
  // work all runs (delays only reorder it), transport accounting matches
  // the injector's drop fires, and moderated calls stay protocol-clean.
  runtime::FaultInjector injector(runtime::FaultInjector::env_seed(5));
  injector.arm(runtime::FaultPoint::kPostaction, 0.1);
  injector.arm(runtime::FaultPoint::kDropMessage, 0.2);
  injector.arm(runtime::FaultPoint::kDelay, 0.2);

  net::Transport::Options topts;
  topts.fault = &injector;
  net::Transport transport(topts);
  auto sink = transport.open("chaos-sink");

  core::ModeratorOptions options;
  options.fault = &injector;
  core::ComponentProxy<Dummy> proxy{Dummy{}, options};
  const auto m = MethodId::of("seeded-trio");
  proxy.moderator().register_aspect(
      m, AspectKind::of("seeded-trio-k"),
      std::make_shared<core::LambdaAspect>("plain"));

  constexpr int kTasks = 200;
  std::atomic<int> ran{0};
  {
    concurrency::ThreadPool pool(4, &injector);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&] {
        ASSERT_TRUE(proxy.invoke(m, [](Dummy&) {}).ok());
        net::Envelope env;
        env.target = "chaos-sink";
        ASSERT_TRUE(transport.send(env));
        ran.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(transport.dropped(),
            injector.fires(runtime::FaultPoint::kDropMessage));
  std::size_t received = 0;
  while (sink->pending() > 0) {
    if (sink->receive()) ++received;
  }
  EXPECT_EQ(received + transport.dropped(),
            static_cast<std::size_t>(kTasks));
  EXPECT_EQ(proxy.moderator().stats(m).completed,
            static_cast<std::uint64_t>(kTasks));
}

TEST(OverloadStormTest, HighPriorityRetainsServiceWhileLowPrioritySheds) {
  // Overload storm (DESIGN.md §12): seeded burst arrivals through a
  // delay-injected caller pool hammer one method guarded by the adaptive
  // limiter in shed mode. The survival properties under test:
  //   * nobody hangs — every caller gets a verdict, and every refused
  //     low-priority caller gets the STRUCTURED kOverloaded abort;
  //   * priority ordering — high-priority callers keep at least their
  //     no-storm success rate while low priority sheds first;
  //   * the moderation protocol stays clean throughout (hook order, trace,
  //     no leftover waiters).
  runtime::FaultInjector injector(runtime::FaultInjector::env_seed(11));
  injector.arm(runtime::FaultPoint::kDelay, 0.3);

  runtime::EventLog log;
  core::ModeratorOptions options;
  options.log = &log;
  core::ComponentProxy<Dummy> proxy{Dummy{}, options};
  const auto m = MethodId::of("overload-storm");

  aspects::AdaptiveLimiterAspect::Options lo;
  lo.initial_limit = 2;
  lo.min_limit = 1;
  lo.latency_target = std::chrono::milliseconds(2);
  lo.increase_per_completion = 0.01;  // the storm must stay overloaded
  lo.shed = aspects::ShedPolicy{.enabled = true, .protect_priority = 1};
  auto limiter = std::make_shared<aspects::AdaptiveLimiterAspect>(
      runtime::RealClock::instance(), lo);
  auto guard = std::make_shared<core::HookOrderGuard>(limiter);
  proxy.moderator().register_aspect(m, AspectKind::of("overload-storm-k"),
                                    guard);

  const auto body = [](Dummy&) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };

  // Phase A — no storm: the high-priority baseline success rate.
  constexpr int kBaseline = 40;
  int baseline_ok = 0;
  for (int i = 0; i < kBaseline; ++i) {
    if (proxy.call(m)
            .priority(1)
            .within(std::chrono::seconds(5))
            .run(body)
            .ok()) {
      ++baseline_ok;
    }
  }
  const double baseline_rate =
      static_cast<double>(baseline_ok) / kBaseline;

  // Phase B — the storm: one burst of mixed-priority arrivals, callers
  // jittered by the seeded delay injection.
  constexpr int kStorm = 300;
  std::atomic<int> high_total{0}, high_ok{0};
  std::atomic<int> low_ok{0}, low_shed{0}, unexpected{0};
  {
    concurrency::ThreadPool pool(8, &injector);
    for (int i = 0; i < kStorm; ++i) {
      const bool high = (i % 8 == 0);
      pool.submit([&, high] {
        if (high) {
          high_total.fetch_add(1);
          auto r = proxy.call(m)
                       .priority(1)
                       .within(std::chrono::seconds(5))
                       .run(body);
          if (r.ok()) high_ok.fetch_add(1);
        } else {
          auto r = proxy.call(m).priority(0).run(body);
          if (r.ok()) {
            low_ok.fetch_add(1);
          } else if (r.status == core::InvocationStatus::kAborted &&
                     r.error.code == runtime::ErrorCode::kOverloaded) {
            low_shed.fetch_add(1);
          } else {
            unexpected.fetch_add(1);
          }
        }
      });
    }
  }  // pool drains: every storm caller has returned

  // Global accounting: a shed is a verdict, never a hang.
  EXPECT_EQ(high_total.load(), kStorm / 8 + (kStorm % 8 ? 1 : 0));
  EXPECT_EQ(low_ok.load() + low_shed.load(),
            kStorm - high_total.load());
  EXPECT_EQ(unexpected.load(), 0)
      << "low-priority refusals must be structured kOverloaded aborts";
  EXPECT_GT(low_shed.load(), 0) << "the storm must actually overload";
  EXPECT_EQ(limiter->sheds(), static_cast<std::uint64_t>(low_shed.load()));

  // Priority ordering: the storm must not degrade high-priority service
  // below its quiet-hours baseline.
  const double storm_rate =
      static_cast<double>(high_ok.load()) / high_total.load();
  EXPECT_GE(storm_rate, baseline_rate)
      << "low priority must shed FIRST — high priority keeps its rate";

  // Protocol hygiene end to end.
  EXPECT_TRUE(guard->violations().empty())
      << guard->violations().front().description;
  const auto violations = core::TraceValidator::validate(log);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().description);
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
  EXPECT_EQ(limiter->in_flight(), 0u);
}

#endif  // AMF_FAULT_INJECTION

}  // namespace
}  // namespace amf
