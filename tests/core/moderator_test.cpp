#include "core/moderator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/aspect.hpp"

namespace amf::core {
namespace {

using runtime::AspectKind;
using runtime::MethodId;

// A hook trace that tests may read WHILE blocked callers keep evaluating
// guards (which append under the moderator lock, not under any lock the
// test holds) — hence its own mutex.
class SyncTrace {
 public:
  void push(std::string s) {
    std::scoped_lock lock(mu_);
    entries_.push_back(std::move(s));
  }
  bool contains(const std::string& s) const {
    std::scoped_lock lock(mu_);
    return std::find(entries_.begin(), entries_.end(), s) != entries_.end();
  }
  std::ptrdiff_t index_of(const std::string& s) const {
    std::scoped_lock lock(mu_);
    return std::find(entries_.begin(), entries_.end(), s) -
           entries_.begin();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> entries_;
};

// Records every hook invocation into a shared trace.
class ProbeAspect final : public Aspect {
 public:
  ProbeAspect(std::string name, SyncTrace& trace,
              Decision verdict = Decision::kResume)
      : name_(std::move(name)), trace_(&trace), verdict_(verdict) {}

  std::string_view name() const override { return name_; }

  void set_verdict(Decision d) { verdict_.store(d); }

  void on_arrive(InvocationContext&) override {
    trace_->push(name_ + ".arrive");
  }
  Decision precondition(InvocationContext&) override {
    trace_->push(name_ + ".pre");
    return verdict_.load();
  }
  void entry(InvocationContext&) override { trace_->push(name_ + ".entry"); }
  void postaction(InvocationContext&) override {
    trace_->push(name_ + ".post");
  }
  void on_cancel(InvocationContext&) override {
    trace_->push(name_ + ".cancel");
  }

 private:
  std::string name_;
  SyncTrace* trace_;
  std::atomic<Decision> verdict_;  // settable from test threads
};

bool contains(const SyncTrace& trace, const std::string& s) {
  return trace.contains(s);
}

std::ptrdiff_t index_of(const SyncTrace& trace, const std::string& s) {
  return trace.index_of(s);
}

TEST(ModeratorTest, NoAspectsAdmitsImmediately) {
  AspectModerator moderator;
  InvocationContext ctx(MethodId::of("bare"));
  EXPECT_EQ(moderator.preactivation(ctx), Decision::kResume);
  moderator.postactivation(ctx);
  const auto stats = moderator.stats(MethodId::of("bare"));
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ModeratorTest, ChainRunsInKindOrderPostReversed) {
  // Fig. 14: auth.pre, sync.pre, (body), sync.post, auth.post.
  AspectModerator moderator;
  SyncTrace trace;
  const auto m = MethodId::of("ordered");
  const auto kAuth = AspectKind::of("t1-auth");
  const auto kSync = AspectKind::of("t1-sync");
  moderator.bank().set_kind_order({kAuth, kSync});
  moderator.register_aspect(m, kSync,
                            std::make_shared<ProbeAspect>("sync", trace));
  moderator.register_aspect(m, kAuth,
                            std::make_shared<ProbeAspect>("auth", trace));

  InvocationContext ctx(m);
  ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
  moderator.postactivation(ctx);

  EXPECT_LT(index_of(trace, "auth.pre"), index_of(trace, "sync.pre"));
  EXPECT_LT(index_of(trace, "auth.entry"), index_of(trace, "sync.entry"));
  EXPECT_LT(index_of(trace, "sync.post"), index_of(trace, "auth.post"));
  EXPECT_LT(index_of(trace, "sync.pre"), index_of(trace, "auth.entry"));
}

TEST(ModeratorTest, EntryRunsOnlyAfterAllGuardsPass) {
  // Repair D1: first aspect resumes but second blocks — the first aspect's
  // entry must NOT have run.
  AspectModerator moderator;
  SyncTrace trace;
  const auto m = MethodId::of("d1");
  auto first = std::make_shared<ProbeAspect>("first", trace);
  auto second =
      std::make_shared<ProbeAspect>("second", trace, Decision::kBlock);
  moderator.register_aspect(m, AspectKind::of("t2-a"), first);
  moderator.register_aspect(m, AspectKind::of("t2-b"), second);

  std::atomic<bool> admitted{false};
  std::jthread caller([&] {
    InvocationContext ctx(m);
    moderator.preactivation(ctx);
    admitted.store(true);
    moderator.postactivation(ctx);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());
  EXPECT_FALSE(contains(trace, "first.entry"));
  // Unblock and verify the entry chain then runs in order.
  second->set_verdict(Decision::kResume);
  // Another invocation's postactivation wakes the waiter; use a completion
  // on the same method from a helper context.
  InvocationContext helper(MethodId::of("d1-helper"));
  ASSERT_EQ(moderator.preactivation(helper), Decision::kResume);
  moderator.postactivation(helper);  // default plan: wakes all methods
  caller.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_TRUE(contains(trace, "first.entry"));
  EXPECT_TRUE(contains(trace, "second.entry"));
}

TEST(ModeratorTest, AbortVetoesWithNote) {
  AspectModerator moderator;
  SyncTrace trace;
  const auto m = MethodId::of("veto");
  moderator.register_aspect(
      m, AspectKind::of("t3"),
      std::make_shared<ProbeAspect>("veto-er", trace, Decision::kAbort));
  InvocationContext ctx(m);
  EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
  ASSERT_TRUE(ctx.abort_error().has_value());
  EXPECT_EQ(ctx.abort_error()->code, runtime::ErrorCode::kAborted);
  EXPECT_EQ(ctx.note("vetoed.by"), "veto-er");
  EXPECT_TRUE(contains(trace, "veto-er.cancel"));
  EXPECT_EQ(moderator.stats(m).aborted, 1u);
  EXPECT_EQ(moderator.stats(m).admitted, 0u);
}

TEST(ModeratorTest, AspectProvidedAbortErrorIsKept) {
  AspectModerator moderator;
  const auto m = MethodId::of("typed-veto");
  moderator.register_aspect(
      m, AspectKind::of("t4"),
      std::make_shared<LambdaAspect>(
          "auth", [](InvocationContext& ctx) {
            ctx.set_abort_error(runtime::make_error(
                runtime::ErrorCode::kUnauthenticated, "no session"));
            return Decision::kAbort;
          }));
  InvocationContext ctx(m);
  EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
  EXPECT_EQ(ctx.abort_error()->code, runtime::ErrorCode::kUnauthenticated);
}

TEST(ModeratorTest, BlockedCallerWakesOnPostactivation) {
  AspectModerator moderator;
  const auto m = MethodId::of("gate");
  // Gate open only when a shared flag is set; the flag flips in the
  // completing invocation's postaction (classic guarded-resource shape).
  auto open = std::make_shared<bool>(false);
  moderator.register_aspect(
      m, AspectKind::of("t5"),
      std::make_shared<LambdaAspect>(
          "gate",
          [open](InvocationContext&) {
            return *open ? Decision::kResume : Decision::kBlock;
          }));
  const auto opener = MethodId::of("gate-opener");
  moderator.register_aspect(
      opener, AspectKind::of("t5"),
      std::make_shared<LambdaAspect>(
          "opener", nullptr, nullptr,
          [open](InvocationContext&) { *open = true; }));

  std::atomic<bool> done{false};
  std::jthread blocked([&] {
    InvocationContext ctx(m);
    EXPECT_EQ(moderator.preactivation(ctx), Decision::kResume);
    moderator.postactivation(ctx);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());
  EXPECT_EQ(moderator.async_parked(), 1);

  InvocationContext ctx(opener);
  ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
  moderator.postactivation(ctx);
  blocked.join();
  EXPECT_TRUE(done.load());
  EXPECT_GE(moderator.stats(m).block_events, 1u);
}

TEST(ModeratorTest, DeadlineTimesOutBlockedCaller) {
  AspectModerator moderator;
  const auto m = MethodId::of("deadline");
  moderator.register_aspect(
      m, AspectKind::of("t6"),
      std::make_shared<LambdaAspect>(
          "never", [](InvocationContext&) { return Decision::kBlock; }));
  InvocationContext ctx(m);
  ctx.set_deadline(runtime::RealClock::instance().now() +
                   std::chrono::milliseconds(30));
  EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
  EXPECT_EQ(ctx.abort_error()->code, runtime::ErrorCode::kTimeout);
  EXPECT_EQ(moderator.stats(m).timed_out, 1u);
}

TEST(ModeratorTest, ManualClockDeadlineHonoredByPolling) {
  runtime::ManualClock clock;
  ModeratorOptions options;
  options.clock = &clock;
  AspectModerator moderator(options);
  const auto m = MethodId::of("manual-deadline");
  moderator.register_aspect(
      m, AspectKind::of("t7"),
      std::make_shared<LambdaAspect>(
          "never", [](InvocationContext&) { return Decision::kBlock; }));
  InvocationContext ctx(m);
  ctx.set_deadline(clock.now() + std::chrono::milliseconds(5));
  std::jthread ticker([&](std::stop_token st) {
    while (!st.stop_requested()) {
      clock.advance(std::chrono::milliseconds(1));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
  EXPECT_EQ(ctx.abort_error()->code, runtime::ErrorCode::kTimeout);
}

TEST(ModeratorTest, StopTokenCancelsBlockedCaller) {
  AspectModerator moderator;
  const auto m = MethodId::of("stoppable");
  moderator.register_aspect(
      m, AspectKind::of("t8"),
      std::make_shared<LambdaAspect>(
          "never", [](InvocationContext&) { return Decision::kBlock; }));
  std::stop_source source;
  std::atomic<bool> cancelled{false};
  std::jthread caller([&] {
    InvocationContext ctx(m);
    ctx.set_stop(source.get_token());
    EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
    EXPECT_EQ(ctx.abort_error()->code, runtime::ErrorCode::kCancelled);
    cancelled.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(cancelled.load());
  source.request_stop();
  caller.join();
  EXPECT_TRUE(cancelled.load());
  EXPECT_EQ(moderator.stats(m).cancelled, 1u);
}

TEST(ModeratorTest, ShutdownWakesAndRefusesEveryone) {
  AspectModerator moderator;
  const auto m = MethodId::of("shutdown");
  moderator.register_aspect(
      m, AspectKind::of("t9"),
      std::make_shared<LambdaAspect>(
          "never", [](InvocationContext&) { return Decision::kBlock; }));
  std::atomic<int> refused{0};
  {
    std::vector<std::jthread> callers;
    for (int i = 0; i < 4; ++i) {
      callers.emplace_back([&] {
        InvocationContext ctx(m);
        if (moderator.preactivation(ctx) == Decision::kAbort &&
            ctx.abort_error()->code == runtime::ErrorCode::kCancelled) {
          refused.fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    moderator.shutdown();
  }
  EXPECT_EQ(refused.load(), 4);
  EXPECT_TRUE(moderator.is_shutdown());
  // New arrivals are refused immediately.
  InvocationContext ctx(m);
  EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
}

TEST(ModeratorTest, NotificationPlanLimitsWakeups) {
  AspectModerator moderator;
  const auto blocked_m = MethodId::of("np-blocked");
  const auto related = MethodId::of("np-related");
  const auto unrelated = MethodId::of("np-unrelated");
  auto open = std::make_shared<std::atomic<bool>>(false);
  moderator.register_aspect(
      blocked_m, AspectKind::of("t10"),
      std::make_shared<LambdaAspect>(
          "gate", [open](InvocationContext&) {
            return *open ? Decision::kResume : Decision::kBlock;
          }));
  // Completing `unrelated` wakes nobody; completing `related` wakes
  // `blocked_m`.
  moderator.bank().set_notification_plan(unrelated, {});
  moderator.bank().set_notification_plan(related, {blocked_m});

  std::atomic<bool> done{false};
  std::jthread waiter([&] {
    InvocationContext ctx(blocked_m);
    moderator.preactivation(ctx);
    moderator.postactivation(ctx);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  *open = true;  // guard would now pass, but nobody re-evaluates yet

  InvocationContext u(unrelated);
  ASSERT_EQ(moderator.preactivation(u), Decision::kResume);
  moderator.postactivation(u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load()) << "empty plan must not wake the waiter";

  InvocationContext r(related);
  ASSERT_EQ(moderator.preactivation(r), Decision::kResume);
  moderator.postactivation(r);
  waiter.join();
  EXPECT_TRUE(done.load());
}

TEST(ModeratorTest, AspectRegisteredWhileBlockedTakesEffect) {
  // Run-time adaptability: a waiter blocked on aspect A also honors aspect
  // B registered later; removing A unblocks the waiter.
  AspectModerator moderator;
  SyncTrace trace;
  const auto m = MethodId::of("adapt");
  const auto kA = AspectKind::of("t11-a");
  const auto kB = AspectKind::of("t11-b");
  auto blocker = std::make_shared<ProbeAspect>("A", trace, Decision::kBlock);
  moderator.register_aspect(m, kA, blocker);

  std::atomic<bool> done{false};
  std::jthread waiter([&] {
    InvocationContext ctx(m);
    EXPECT_EQ(moderator.preactivation(ctx), Decision::kResume);
    moderator.postactivation(ctx);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  auto late = std::make_shared<ProbeAspect>("B", trace);
  moderator.register_aspect(m, kB, late);
  ASSERT_TRUE(moderator.bank().remove_aspect(m, kA));
  // Bank changes do not signal by themselves; any completion does.
  InvocationContext helper(MethodId::of("adapt-helper"));
  ASSERT_EQ(moderator.preactivation(helper), Decision::kResume);
  moderator.postactivation(helper);
  waiter.join();
  EXPECT_TRUE(done.load());
  // The late aspect participated fully: arrive (retroactive), pre, entry,
  // post.
  EXPECT_TRUE(contains(trace, "B.arrive"));
  EXPECT_TRUE(contains(trace, "B.entry"));
  EXPECT_TRUE(contains(trace, "B.post"));
}

TEST(ModeratorTest, PostactivationUsesAdmittedChain) {
  // An aspect registered between admission and postactivation must not get
  // a postaction it never entered for.
  AspectModerator moderator;
  SyncTrace trace;
  const auto m = MethodId::of("admitted-chain");
  moderator.register_aspect(m, AspectKind::of("t12-a"),
                            std::make_shared<ProbeAspect>("early", trace));
  InvocationContext ctx(m);
  ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
  moderator.register_aspect(m, AspectKind::of("t12-b"),
                            std::make_shared<ProbeAspect>("late", trace));
  moderator.postactivation(ctx);
  EXPECT_TRUE(contains(trace, "early.post"));
  EXPECT_FALSE(contains(trace, "late.post"));
}

TEST(ModeratorTest, EventLogRecordsProtocolPhases) {
  runtime::EventLog log;
  ModeratorOptions options;
  options.log = &log;
  AspectModerator moderator(options);
  const auto m = MethodId::of("logged");
  InvocationContext ctx(m);
  ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
  moderator.postactivation(ctx);
  EXPECT_TRUE(log.happened_before("moderator", "preactivation:logged",
                                  "moderator", "admitted:logged"));
  EXPECT_TRUE(log.happened_before("moderator", "admitted:logged",
                                  "moderator", "postactivation:logged"));
  // All three share the invocation id.
  EXPECT_EQ(log.by_invocation(ctx.id()).size(), 3u);
}

TEST(ModeratorTest, StatsTrackBlockedEvents) {
  AspectModerator moderator;
  const auto m = MethodId::of("stats");
  auto open = std::make_shared<bool>(false);
  moderator.register_aspect(
      m, AspectKind::of("t13"),
      std::make_shared<LambdaAspect>(
          "gate", [open](InvocationContext&) {
            return *open ? Decision::kResume : Decision::kBlock;
          }));
  std::jthread waiter([&] {
    InvocationContext ctx(m);
    moderator.preactivation(ctx);
    moderator.postactivation(ctx);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto opener = MethodId::of("stats-opener");
  moderator.register_aspect(
      opener, AspectKind::of("t13"),
      std::make_shared<LambdaAspect>("opener", nullptr, nullptr,
                                     [open](InvocationContext&) {
                                       *open = true;
                                     }));
  InvocationContext ctx(opener);
  moderator.preactivation(ctx);
  moderator.postactivation(ctx);
  waiter.join();
  const auto stats = moderator.stats(m);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GE(stats.block_events, 1u);
}

TEST(ModeratorTest, BlockedByNoteNamesTheAspect) {
  AspectModerator moderator;
  const auto m = MethodId::of("note");
  moderator.register_aspect(
      m, AspectKind::of("t14"),
      std::make_shared<LambdaAspect>(
          "stubborn", [](InvocationContext&) { return Decision::kBlock; }));
  InvocationContext ctx(m);
  ctx.set_deadline(runtime::RealClock::instance().now() +
                   std::chrono::milliseconds(5));
  EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
  EXPECT_EQ(ctx.note("blocked.by"), "stubborn");
}

}  // namespace
}  // namespace amf::core
