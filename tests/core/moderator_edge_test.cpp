// Edge cases of the moderation kernel that the main moderator_test's
// happy/blocking paths do not reach.
#include <gtest/gtest.h>

#include <thread>

#include "core/framework.hpp"

namespace amf::core {
namespace {

using runtime::AspectKind;
using runtime::MethodId;

struct Dummy {};

TEST(ModeratorEdgeTest, StatsForUnknownMethodAreZero) {
  AspectModerator moderator;
  const auto stats = moderator.stats(MethodId::of("never-called"));
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.aborted, 0u);
  EXPECT_EQ(stats.block_events, 0u);
}

TEST(ModeratorEdgeTest, ShutdownIsIdempotent) {
  AspectModerator moderator;
  moderator.shutdown();
  moderator.shutdown();
  EXPECT_TRUE(moderator.is_shutdown());
  InvocationContext ctx(MethodId::of("after"));
  EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
  EXPECT_EQ(moderator.stats(MethodId::of("after")).cancelled, 1u);
}

TEST(ModeratorEdgeTest, PlanNamingUnknownMethodIsHarmless) {
  AspectModerator moderator;
  const auto m = MethodId::of("plan-src");
  moderator.bank().set_notification_plan(m, {MethodId::of("plan-ghost")});
  InvocationContext ctx(m);
  ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
  moderator.postactivation(ctx);  // must not crash on the unknown target
  EXPECT_EQ(moderator.stats(m).completed, 1u);
}

TEST(ModeratorEdgeTest, ExpiredDeadlineOnArrivalTimesOutWithoutAspects) {
  // Deadline already past, but the chain is empty so the guard passes on
  // the first evaluation — admission wins over the stale deadline.
  AspectModerator moderator;
  InvocationContext ctx(MethodId::of("expired-free"));
  ctx.set_deadline(runtime::RealClock::instance().now() -
                   std::chrono::milliseconds(5));
  EXPECT_EQ(moderator.preactivation(ctx), Decision::kResume);
  moderator.postactivation(ctx);
}

TEST(ModeratorEdgeTest, ExpiredDeadlineWithBlockingGuardTimesOutFast) {
  AspectModerator moderator;
  const auto m = MethodId::of("expired-blocked");
  moderator.register_aspect(
      m, AspectKind::of("me1"),
      std::make_shared<LambdaAspect>(
          "never", [](InvocationContext&) { return Decision::kBlock; }));
  InvocationContext ctx(m);
  ctx.set_deadline(runtime::RealClock::instance().now() -
                   std::chrono::milliseconds(5));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(100));
  EXPECT_EQ(ctx.abort_error()->code, runtime::ErrorCode::kTimeout);
}

TEST(ModeratorEdgeTest, LambdaAspectDefaultsAreNoOps) {
  LambdaAspect aspect("empty");
  InvocationContext ctx(MethodId::of("m"));
  EXPECT_EQ(aspect.precondition(ctx), Decision::kResume);
  aspect.entry(ctx);       // must not crash
  aspect.postaction(ctx);  // must not crash
  EXPECT_EQ(aspect.name(), "empty");
}

TEST(ModeratorEdgeTest, RegisterSameAspectTwiceReplacesNotDuplicates) {
  AspectModerator moderator;
  const auto m = MethodId::of("replace");
  const auto k = AspectKind::of("me2");
  auto count = std::make_shared<int>(0);
  auto counting = std::make_shared<LambdaAspect>(
      "count", [count](InvocationContext&) {
        ++*count;
        return Decision::kResume;
      });
  moderator.register_aspect(m, k, counting);
  moderator.register_aspect(m, k, counting);  // same cell, same object
  InvocationContext ctx(m);
  ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
  moderator.postactivation(ctx);
  EXPECT_EQ(*count, 1) << "the cell must hold ONE aspect, not two";
}

TEST(ModeratorEdgeTest, TwoModeratorsAreFullyIndependent) {
  AspectModerator a, b;
  const auto m = MethodId::of("indep");
  a.register_aspect(m, AspectKind::of("me3"),
                    std::make_shared<LambdaAspect>(
                        "veto", [](InvocationContext&) {
                          return Decision::kAbort;
                        }));
  InvocationContext ctx_a(m);
  InvocationContext ctx_b(m);
  EXPECT_EQ(a.preactivation(ctx_a), Decision::kAbort);
  EXPECT_EQ(b.preactivation(ctx_b), Decision::kResume);
  b.postactivation(ctx_b);
}

TEST(ModeratorEdgeTest, AbortInsideEntrylessChainLeavesNoWaiters) {
  AspectModerator moderator;
  const auto m = MethodId::of("veto-clean");
  moderator.register_aspect(m, AspectKind::of("me4"),
                            std::make_shared<LambdaAspect>(
                                "veto", [](InvocationContext&) {
                                  return Decision::kAbort;
                                }));
  for (int i = 0; i < 10; ++i) {
    InvocationContext ctx(m);
    EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
  }
  EXPECT_EQ(moderator.async_parked(), 0);
  EXPECT_EQ(moderator.stats(m).aborted, 10u);
}

TEST(ModeratorEdgeTest, SpuriousPostactivationIsRefused) {
  // Calling postactivation without admission is a driver bug; the
  // moderator must not run postactions for entries that never happened.
  runtime::EventLog log;
  ModeratorOptions options;
  options.log = &log;
  AspectModerator moderator(options);
  const auto m = MethodId::of("spurious");
  auto post_ran = std::make_shared<bool>(false);
  moderator.register_aspect(
      m, AspectKind::of("me6"),
      std::make_shared<LambdaAspect>("watch", nullptr, nullptr,
                                     [post_ran](InvocationContext&) {
                                       *post_ran = true;
                                     }));
  InvocationContext never_admitted(m);
  moderator.postactivation(never_admitted);
  EXPECT_FALSE(*post_ran);
  EXPECT_EQ(moderator.stats(m).completed, 0u);
  EXPECT_EQ(log.count("moderator", "spurious-postactivation:spurious"), 1u);
}

TEST(ModeratorEdgeTest, GuardSeesCallerNotes) {
  AspectModerator moderator;
  const auto m = MethodId::of("notes");
  moderator.register_aspect(
      m, AspectKind::of("me5"),
      std::make_shared<LambdaAspect>(
          "note-gate", [](InvocationContext& ctx) {
            return ctx.note("magic") == "word" ? Decision::kResume
                                               : Decision::kAbort;
          }));
  InvocationContext denied(m);
  EXPECT_EQ(moderator.preactivation(denied), Decision::kAbort);
  InvocationContext granted(m);
  granted.set_note("magic", "word");
  EXPECT_EQ(moderator.preactivation(granted), Decision::kResume);
  moderator.postactivation(granted);
}

}  // namespace
}  // namespace amf::core
