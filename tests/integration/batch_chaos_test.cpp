// Chaos variant of the grouped-call stress (DESIGN.md §18.2): a seeded
// kDelay fault stretches the locked admission attempt — under the
// eval-shard locks, before the guards run — widening the windows in which
// grouped calls park, time out at their deadlines and are transferred by
// completions. The name matches the CI chaos job's `ctest -R chaos`
// filter, so it runs across the AMF_FAULT_SEED matrix.
//
// Invariants, whatever the delay schedule does:
//   * the delay point actually fires (the test exercises its schedule),
//   * grouped exclusion holds (never two bodies in a limit-1 group),
//   * every invocation settles exactly once (admit+complete, abort, or
//     timeout — nothing stranded, nothing double-counted),
//   * G4 pairing is exact for the shared aspect,
//   * the moderator drains clean: no blocked waiters after the storm.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "aspects/synchronization.hpp"
#include "core/aspect.hpp"
#include "core/moderator.hpp"
#include "runtime/clock.hpp"
#include "runtime/fault.hpp"

namespace amf {
namespace {

using core::AspectModerator;
using core::Decision;
using core::InvocationContext;
using core::LambdaAspect;
using core::ModeratorOptions;
using runtime::AspectKind;
using runtime::ErrorCode;
using runtime::FaultInjector;
using runtime::FaultPoint;
using runtime::MethodId;

TEST(BatchChaosTest, CombinerDrainSurvivesSeededDelays) {
  FaultInjector injector(FaultInjector::env_seed(17));
  injector.arm(FaultPoint::kDelay, 0.05);

  ModeratorOptions options;
  options.fault = &injector;
  AspectModerator moderator(options);
  const auto a = MethodId::of("bchaos-a");
  const auto b = MethodId::of("bchaos-b");
  auto excl = std::make_shared<aspects::MutualExclusionAspect>(1);
  moderator.register_aspect(a, AspectKind::of("bchaos-excl"), excl);
  moderator.register_aspect(b, AspectKind::of("bchaos-excl"), excl);

  std::atomic<int> link_entries{0};
  std::atomic<int> link_posts{0};
  auto link = std::make_shared<LambdaAspect>(
      "bchaos-link", nullptr,
      [&](InvocationContext&) { link_entries.fetch_add(1); },
      [&](InvocationContext&) { link_posts.fetch_add(1); });
  moderator.register_aspect(a, AspectKind::of("bchaos-link"), link);
  moderator.register_aspect(b, AspectKind::of("bchaos-link"), link);

  std::atomic<int> inside{0};
  std::atomic<int> violations{0};
  std::atomic<int> completed{0};
  std::atomic<int> timed_out{0};
  std::atomic<int> other{0};
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 120;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        const auto method = (t % 2 == 0) ? a : b;
        for (int i = 0; i < kOpsPerThread; ++i) {
          InvocationContext ctx(method);
          // A tight-but-realistic deadline: most calls admit, and a call
          // parked behind delayed attempts occasionally times out.
          ctx.set_deadline(runtime::RealClock::instance().now() +
                           std::chrono::milliseconds(250));
          const Decision d = moderator.preactivation(ctx);
          if (d == Decision::kResume) {
            if (inside.fetch_add(1) + 1 > 1) violations.fetch_add(1);
            inside.fetch_sub(1);
            moderator.postactivation(ctx);
            completed.fetch_add(1);
          } else if (ctx.abort_error() &&
                     ctx.abort_error()->code == ErrorCode::kTimeout) {
            timed_out.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
      });
    }
  }
  EXPECT_GT(injector.fires(FaultPoint::kDelay), 0u)
      << "the seeded delay never fired";
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(other.load(), 0) << "an invocation settled with an unexpected "
                                "verdict under injected delays";
  EXPECT_EQ(completed.load() + timed_out.load(), kThreads * kOpsPerThread);
  EXPECT_EQ(link_entries.load(), completed.load());
  EXPECT_EQ(link_entries.load(), link_posts.load())
      << "a delayed attempt tore an entry/postaction pair";
  EXPECT_EQ(excl->active(), 0u);
  EXPECT_EQ(moderator.async_parked(), 0);
  EXPECT_EQ(moderator.stats(a).completed + moderator.stats(b).completed,
            static_cast<std::uint64_t>(completed.load()));
}

}  // namespace
}  // namespace amf
