// Failure containment in the moderation pipeline (DESIGN.md §10).
//
// The firewall contract under test:
//   * a throwing (or injected-fault) precondition aborts ONLY that
//     invocation, with a structured kAspectFault error — the moderator and
//     every other caller keep working,
//   * entry and postaction throws are recorded but contained: the admission
//     stands, the remaining postactions and the wake plan still run,
//   * aspects whose FaultPolicy is kQuarantine are removed from composition
//     snapshots once their fault threshold trips — and blocked callers
//     re-evaluate without them,
//   * the stall watchdog detects waiters blocked past their bound against
//     the MODERATOR clock, dumps a wait-graph line naming the method and
//     chain, and (when configured) evicts them with kDeadlineExceeded.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/aspect.hpp"
#include "core/moderator.hpp"
#include "core/verify.hpp"
#include "runtime/clock.hpp"
#include "runtime/event_log.hpp"
#include "runtime/fault.hpp"
#include "runtime/metrics.hpp"

namespace amf::core {
namespace {

using runtime::AspectKind;
using runtime::ErrorCode;
using runtime::MethodId;

/// Guard that throws whenever the invocation carries the "hurt" note and
/// blocks/passes otherwise, so one test can aim faults at chosen calls.
class FragileGuard final : public Aspect {
 public:
  FragileGuard(std::string name, Decision otherwise, FaultPolicy policy)
      : name_(std::move(name)), otherwise_(otherwise), policy_(policy) {}

  std::string_view name() const override { return name_; }
  FaultPolicy fault_policy() const override { return policy_; }

  Decision precondition(InvocationContext& ctx) override {
    if (ctx.note("hurt")) throw std::runtime_error("guard broke");
    return otherwise_;
  }
  void on_cancel(InvocationContext&) override { ++cancels_; }

  int cancels() const { return cancels_; }

 private:
  std::string name_;
  Decision otherwise_;
  FaultPolicy policy_;
  int cancels_ = 0;
};

void expect_trace_clean(const runtime::EventLog& log) {
  const auto violations = TraceValidator::validate(log);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().description);
}

// --- precondition firewall -------------------------------------------------

TEST(ModeratorFaultTest, PreconditionThrowAbortsOnlyThatInvocation) {
  runtime::EventLog log;
  runtime::Registry metrics;
  ModeratorOptions options;
  options.log = &log;
  options.metrics = &metrics;
  AspectModerator moderator(options);
  const auto m = MethodId::of("fault-pre");
  auto fragile = std::make_shared<FragileGuard>(
      "fragile", Decision::kResume, FaultPolicy::propagate());
  moderator.register_aspect(m, AspectKind::of("fault-k"), fragile);

  InvocationContext poisoned(m);
  poisoned.set_note("hurt", "1");
  EXPECT_EQ(moderator.preactivation(poisoned), Decision::kAbort);
  ASSERT_TRUE(poisoned.abort_error().has_value());
  EXPECT_EQ(poisoned.abort_error()->code, ErrorCode::kAspectFault);
  EXPECT_NE(poisoned.abort_error()->message.find("fragile"),
            std::string::npos);
  EXPECT_EQ(poisoned.note("faulted.by"), "fragile");
  EXPECT_EQ(fragile->cancels(), 1) << "on_cancel must run for the abort";

  // The moderator is unharmed: the next (clean) invocation admits, and a
  // kPropagate aspect stays composed however often it throws.
  InvocationContext clean(m);
  ASSERT_EQ(moderator.preactivation(clean), Decision::kResume);
  moderator.postactivation(clean);
  EXPECT_EQ(moderator.stats(m).aborted, 1u);
  EXPECT_EQ(moderator.stats(m).completed, 1u);
  EXPECT_EQ(moderator.fault_count(fragile.get()), 1u);
  EXPECT_FALSE(moderator.bank().is_quarantined(fragile.get()));
  EXPECT_EQ(metrics.counter("moderator.aspect_faults").value(), 1u);
  EXPECT_EQ(log.count("moderator", "aspect-fault:fault-pre"), 1u);
  expect_trace_clean(log);
}

#if AMF_FAULT_INJECTION
TEST(ModeratorFaultTest, InjectedPreconditionFaultIsStructured) {
  runtime::EventLog log;
  runtime::FaultInjector injector(11);
  injector.arm(runtime::FaultPoint::kPrecondition, 1.0, 1);
  ModeratorOptions options;
  options.log = &log;
  options.fault = &injector;
  AspectModerator moderator(options);
  const auto m = MethodId::of("fault-injected-pre");
  moderator.register_aspect(
      m, AspectKind::of("fault-k"),
      std::make_shared<LambdaAspect>("victim"));

  InvocationContext first(m);
  EXPECT_EQ(moderator.preactivation(first), Decision::kAbort);
  ASSERT_TRUE(first.abort_error().has_value());
  EXPECT_EQ(first.abort_error()->code, ErrorCode::kAspectFault);
  EXPECT_NE(first.abort_error()->message.find("injected"),
            std::string::npos);

  // The fire cap bounds the storm: the second decision passes.
  InvocationContext second(m);
  ASSERT_EQ(moderator.preactivation(second), Decision::kResume);
  moderator.postactivation(second);
  expect_trace_clean(log);
}
#endif  // AMF_FAULT_INJECTION

// --- entry / postaction containment ----------------------------------------

TEST(ModeratorFaultTest, EntryThrowIsContainedAndPairingHolds) {
  runtime::EventLog log;
  ModeratorOptions options;
  options.log = &log;
  AspectModerator moderator(options);
  const auto m = MethodId::of("fault-entry");
  std::atomic<int> posted{0};
  auto brittle = std::make_shared<LambdaAspect>(
      "brittle-entry", nullptr,
      [](InvocationContext&) { throw std::runtime_error("entry broke"); },
      [&](InvocationContext&) { posted.fetch_add(1); });
  moderator.register_aspect(m, AspectKind::of("fault-k"), brittle);

  InvocationContext ctx(m);
  ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume)
      << "an entry throw must not revoke the admission";
  moderator.postactivation(ctx);
  EXPECT_EQ(posted.load(), 1) << "postaction still pairs with the entry";
  EXPECT_EQ(moderator.fault_count(brittle.get()), 1u);
  EXPECT_EQ(moderator.stats(m).completed, 1u);
  expect_trace_clean(log);
}

TEST(ModeratorFaultTest, PostactionThrowStillRunsWakePlan) {
  // Method B completes with a chain of two postactions; the LATER one (runs
  // first, reverse order) throws. The earlier postaction must still run —
  // it opens the gate a waiter on method A is blocked behind — and the wake
  // plan must still notify A's shard.
  runtime::EventLog log;
  ModeratorOptions options;
  options.log = &log;
  AspectModerator moderator(options);
  const auto a = MethodId::of("fault-wake-a");
  const auto b = MethodId::of("fault-wake-b");
  auto gate = std::make_shared<std::atomic<bool>>(false);
  moderator.register_aspect(
      a, AspectKind::of("fault-gate"),
      std::make_shared<LambdaAspect>("gate", [gate](InvocationContext&) {
        return gate->load() ? Decision::kResume : Decision::kBlock;
      }));
  moderator.register_aspect(
      b, AspectKind::of("fault-open"),
      std::make_shared<LambdaAspect>("opener", nullptr, nullptr,
                                     [gate](InvocationContext&) {
                                       gate->store(true);
                                     }));
  auto thrower = std::make_shared<LambdaAspect>(
      "thrower", nullptr, nullptr, [](InvocationContext&) {
        throw std::runtime_error("postaction broke");
      });
  moderator.register_aspect(b, AspectKind::of("fault-throw"), thrower);
  moderator.bank().set_notification_plan(b, {a});

  std::atomic<bool> admitted{false};
  std::jthread waiter([&] {
    InvocationContext ctx(a);
    EXPECT_EQ(moderator.preactivation(ctx), Decision::kResume);
    admitted.store(true);
    moderator.postactivation(ctx);
  });
  while (moderator.async_parked() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  InvocationContext ctx(b);
  ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
  moderator.postactivation(ctx);  // must not throw out of the pipeline
  waiter.join();
  EXPECT_TRUE(admitted.load()) << "wake plan lost after a postaction throw";
  EXPECT_EQ(moderator.fault_count(thrower.get()), 1u);
  EXPECT_EQ(moderator.stats(b).completed, 1u);
  expect_trace_clean(log);
}

// --- quarantine ------------------------------------------------------------

TEST(ModeratorFaultTest, QuarantineThresholdRemovesAspect) {
  runtime::EventLog log;
  runtime::Registry metrics;
  ModeratorOptions options;
  options.log = &log;
  options.metrics = &metrics;
  AspectModerator moderator(options);
  const auto m = MethodId::of("fault-quarantine");
  auto fragile = std::make_shared<FragileGuard>(
      "expendable", Decision::kResume, FaultPolicy::quarantine(3));
  moderator.register_aspect(m, AspectKind::of("fault-k"), fragile);

  for (int i = 0; i < 3; ++i) {
    InvocationContext ctx(m);
    ctx.set_note("hurt", "1");
    EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
    EXPECT_EQ(ctx.abort_error()->code, ErrorCode::kAspectFault);
  }
  EXPECT_EQ(moderator.fault_count(fragile.get()), 3u);
  EXPECT_TRUE(moderator.bank().is_quarantined(fragile.get()));
  EXPECT_EQ(metrics.counter("moderator.quarantines").value(), 1u);
  EXPECT_EQ(log.count("bank", "quarantine:expendable"), 1u);

  // Quarantined ⇒ out of the snapshot: a poisoned call now sails through.
  InvocationContext after(m);
  after.set_note("hurt", "1");
  ASSERT_EQ(moderator.preactivation(after), Decision::kResume);
  moderator.postactivation(after);
  EXPECT_EQ(moderator.fault_count(fragile.get()), 3u) << "no longer invoked";
  expect_trace_clean(log);
}

TEST(ModeratorFaultTest, QuarantineWakesBlockedCallersToReAdmit) {
  // A waiter is parked behind an always-Block guard. When that guard's
  // fault threshold trips (via a poisoned invocation), the quarantine must
  // bump the composition epoch and wake the waiter, which re-evaluates
  // without the guard and gets admitted — no completion ever happens.
  runtime::EventLog log;
  ModeratorOptions options;
  options.log = &log;
  AspectModerator moderator(options);
  const auto m = MethodId::of("fault-unblock");
  auto blocker = std::make_shared<FragileGuard>(
      "blocker", Decision::kBlock, FaultPolicy::quarantine(1));
  moderator.register_aspect(m, AspectKind::of("fault-k"), blocker);

  std::atomic<bool> admitted{false};
  std::jthread waiter([&] {
    InvocationContext ctx(m);
    EXPECT_EQ(moderator.preactivation(ctx), Decision::kResume);
    admitted.store(true);
    moderator.postactivation(ctx);
  });
  while (moderator.async_parked() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(admitted.load());

  InvocationContext poisoned(m);
  poisoned.set_note("hurt", "1");
  EXPECT_EQ(moderator.preactivation(poisoned), Decision::kAbort);
  waiter.join();
  EXPECT_TRUE(admitted.load())
      << "quarantine must recompose blocked callers";
  EXPECT_TRUE(moderator.bank().is_quarantined(blocker.get()));
  expect_trace_clean(log);
}

TEST(ModeratorFaultTest, UnquarantineRestoresEnforcement) {
  AspectModerator moderator;
  const auto m = MethodId::of("fault-restore");
  auto fragile = std::make_shared<FragileGuard>(
      "flappy", Decision::kResume, FaultPolicy::quarantine(1));
  moderator.register_aspect(m, AspectKind::of("fault-k"), fragile);

  InvocationContext poisoned(m);
  poisoned.set_note("hurt", "1");
  EXPECT_EQ(moderator.preactivation(poisoned), Decision::kAbort);
  ASSERT_TRUE(moderator.bank().is_quarantined(fragile.get()));

  EXPECT_TRUE(moderator.unquarantine(fragile.get()));
  EXPECT_FALSE(moderator.unquarantine(fragile.get())) << "idempotence";
  EXPECT_EQ(moderator.fault_count(fragile.get()), 0u) << "count reset";

  // Back in the chain: enforcing again, and one more fault re-quarantines.
  InvocationContext again(m);
  again.set_note("hurt", "1");
  EXPECT_EQ(moderator.preactivation(again), Decision::kAbort);
  EXPECT_TRUE(moderator.bank().is_quarantined(fragile.get()));
}

// --- stall watchdog --------------------------------------------------------

TEST(ModeratorFaultTest, WatchdogReportsStalledWaiterWithWaitGraph) {
  runtime::ManualClock clock;
  runtime::EventLog log(clock);
  runtime::Registry metrics;
  WatchdogOptions wd;
  wd.stall_after = std::chrono::milliseconds(100);
  ModeratorOptions options;
  options.clock = &clock;
  options.log = &log;
  options.metrics = &metrics;
  options.watchdog = wd;
  AspectModerator moderator(options);
  const auto m = MethodId::of("stall-report");
  moderator.register_aspect(
      m, AspectKind::of("stall-k1"),
      std::make_shared<LambdaAspect>("first"));
  moderator.register_aspect(
      m, AspectKind::of("stall-k2"),
      std::make_shared<LambdaAspect>("never", [](InvocationContext&) {
        return Decision::kBlock;
      }));

  std::jthread waiter([&] {
    InvocationContext ctx(m);
    EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
    EXPECT_EQ(ctx.abort_error()->code, ErrorCode::kCancelled);
  });
  while (moderator.async_parked() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Under the bound: nothing to report.
  clock.advance(std::chrono::milliseconds(50));
  EXPECT_EQ(moderator.scan_stalls(), 0u);

  clock.advance(std::chrono::milliseconds(100));
  EXPECT_EQ(moderator.scan_stalls(), 1u);
  EXPECT_EQ(moderator.scan_stalls(), 0u) << "one dump per stalled episode";
  EXPECT_EQ(metrics.counter("moderator.stalls").value(), 1u);

  const auto dumps = log.by_category("watchdog");
  ASSERT_EQ(dumps.size(), 1u);
  // The dump names the stalled method, the guard it is blocked by, and the
  // full aspect chain — the wait graph an operator needs.
  EXPECT_NE(dumps[0].message.find("stall:stall-report"), std::string::npos)
      << dumps[0].message;
  EXPECT_NE(dumps[0].message.find("blocked_by=never"), std::string::npos)
      << dumps[0].message;
  EXPECT_NE(dumps[0].message.find("chain=[first < never]"),
            std::string::npos)
      << dumps[0].message;
  EXPECT_NE(dumps[0].invocation_id, 0u);

  moderator.shutdown();  // releases the deliberately stalled waiter
}

TEST(ModeratorFaultTest, WatchdogEvictsStalledWaiterWhenConfigured) {
  runtime::ManualClock clock;
  runtime::EventLog log(clock);
  WatchdogOptions wd;
  wd.stall_after = std::chrono::milliseconds(100);
  wd.abort_stalled = true;
  ModeratorOptions options;
  options.clock = &clock;
  options.log = &log;
  options.watchdog = wd;
  AspectModerator moderator(options);
  const auto m = MethodId::of("stall-evict");
  moderator.register_aspect(
      m, AspectKind::of("stall-k"),
      std::make_shared<LambdaAspect>("never", [](InvocationContext&) {
        return Decision::kBlock;
      }));

  std::atomic<bool> evicted{false};
  std::jthread waiter([&] {
    InvocationContext ctx(m);
    EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
    ASSERT_TRUE(ctx.abort_error().has_value());
    EXPECT_EQ(ctx.abort_error()->code, ErrorCode::kDeadlineExceeded);
    EXPECT_NE(ctx.abort_error()->message.find("watchdog"),
              std::string::npos);
    evicted.store(true);
  });
  while (moderator.async_parked() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  clock.advance(std::chrono::milliseconds(150));
  EXPECT_EQ(moderator.scan_stalls(), 1u);
  waiter.join();
  EXPECT_TRUE(evicted.load());
  EXPECT_EQ(moderator.stats(m).aborted, 1u);
  EXPECT_EQ(moderator.async_parked(), 0);
  expect_trace_clean(log);
}

TEST(ModeratorFaultTest, WatchdogGraceCoversDeadlinedWaiters) {
  // A waiter WITH a deadline is normally self-timing; the watchdog only
  // flags it past deadline + grace. Advancing beyond both races the
  // waiter's own timeout poll against the eviction, so either outcome
  // (kTimeout or kDeadlineExceeded) is legitimate — what must hold is that
  // the waiter terminates and the stall was reported.
  runtime::ManualClock clock;
  runtime::EventLog log(clock);
  WatchdogOptions wd;
  wd.grace = std::chrono::milliseconds(50);
  wd.abort_stalled = true;
  ModeratorOptions options;
  options.clock = &clock;
  options.log = &log;
  options.watchdog = wd;
  AspectModerator moderator(options);
  const auto m = MethodId::of("stall-deadline");
  moderator.register_aspect(
      m, AspectKind::of("stall-k"),
      std::make_shared<LambdaAspect>("never", [](InvocationContext&) {
        return Decision::kBlock;
      }));

  std::atomic<bool> done{false};
  std::jthread waiter([&] {
    InvocationContext ctx(m);
    ctx.set_deadline(clock.now() + std::chrono::milliseconds(100));
    EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
    ASSERT_TRUE(ctx.abort_error().has_value());
    EXPECT_TRUE(ctx.abort_error()->code == ErrorCode::kTimeout ||
                ctx.abort_error()->code == ErrorCode::kDeadlineExceeded)
        << to_string(ctx.abort_error()->code);
    done.store(true);
  });
  while (moderator.async_parked() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Past the deadline but within grace: stalled is NOT yet declared.
  clock.advance(std::chrono::milliseconds(120));
  EXPECT_EQ(moderator.scan_stalls(), 0u);
  clock.advance(std::chrono::milliseconds(100));
  // The waiter may have timed itself out (and unregistered) already; a
  // report is only expected while it is still blocked.
  (void)moderator.scan_stalls();
  waiter.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(moderator.async_parked(), 0);
}

TEST(ModeratorFaultTest, WatchdogScannerThreadDetectsStalls) {
  // Real-clock smoke test of the background scanner: a waiter stalls past
  // stall_after and the poll thread must report it without any manual
  // scan_stalls() call.
  runtime::EventLog log;
  WatchdogOptions wd;
  wd.stall_after = std::chrono::milliseconds(20);
  wd.poll = std::chrono::milliseconds(5);
  ModeratorOptions options;
  options.log = &log;
  options.watchdog = wd;
  AspectModerator moderator(options);
  const auto m = MethodId::of("stall-scanner");
  moderator.register_aspect(
      m, AspectKind::of("stall-k"),
      std::make_shared<LambdaAspect>("never", [](InvocationContext&) {
        return Decision::kBlock;
      }));

  std::jthread waiter([&] {
    InvocationContext ctx(m);
    EXPECT_EQ(moderator.preactivation(ctx), Decision::kAbort);
  });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (log.by_category("watchdog").empty() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_FALSE(log.by_category("watchdog").empty())
      << "scanner thread never reported the stall";
  moderator.shutdown();
}

}  // namespace
}  // namespace amf::core
