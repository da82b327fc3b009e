// Asynchronous moderation (DESIGN.md §18): future-returning admission.
//
// The properties under test:
//   * an immediate verdict settles the future inline (no persona needed);
//   * a kBlock verdict parks the call — no thread is held — and a later
//     completion's postactivation hands the call back to the initiating
//     persona, whose progress() re-runs the normal admission;
//   * refusal semantics (deadline, stop token, shutdown, watchdog
//     eviction) match the synchronous path, structured error included,
//     and a stop request alone reaches a parked call;
//   * G4 exactly-once entry/postaction pairing holds on the async path.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "core/framework.hpp"

namespace amf::core {
namespace {

using runtime::AspectKind;
using runtime::ErrorCode;
using runtime::MethodId;

struct Service {
  int calls = 0;
  int work(int x) {
    ++calls;
    return x * 2;
  }
};

struct WorkBody {
  int x = 1;
  int operator()(Service& s) const { return s.work(x); }
};

using Proxy = ComponentProxy<Service>;
using Call = Proxy::AsyncCall<WorkBody>;

// Gate guard shared by most tests: blocks while closed, counts
// entry/postaction so pairing is checkable. All hooks run under the
// moderator's method locks, so plain fields suffice.
struct Gate {
  bool open = false;
  int entered = 0;
  int posted = 0;

  std::shared_ptr<LambdaAspect> aspect() {
    return std::make_shared<LambdaAspect>(
        "gate",
        [this](InvocationContext&) {
          return open ? Decision::kResume : Decision::kBlock;
        },
        [this](InvocationContext&) { ++entered; },
        [this](InvocationContext&) { ++posted; });
  }
};

TEST(ModeratorAsyncTest, ImmediateResumeSettlesInline) {
  Proxy proxy{Service{}};
  const auto m = MethodId::of("async-inline");
  proxy.moderator().register_aspect(m, AspectKind::of("a1"),
                                    std::make_shared<LambdaAspect>("noop"));
  Call call(proxy, m, WorkBody{21});
  auto future = call.future();
  call.start();
  ASSERT_TRUE(future.ready()) << "an unblocked call settles inside start()";
  ASSERT_TRUE(future.value().ok());
  EXPECT_EQ(*future.value().value, 42);
  EXPECT_LT(future.value().wait_time, std::chrono::milliseconds(5))
      << "an inline admission never blocked";
  EXPECT_EQ(proxy.component().calls, 1);
  EXPECT_EQ(proxy.moderator().stats(m).admitted, 1u);
  EXPECT_EQ(proxy.moderator().stats(m).completed, 1u);
}

TEST(ModeratorAsyncTest, ImmediateAbortNeverTouchesComponent) {
  Proxy proxy{Service{}};
  const auto m = MethodId::of("async-veto");
  proxy.moderator().register_aspect(
      m, AspectKind::of("a2"),
      std::make_shared<LambdaAspect>(
          "veto", [](InvocationContext&) { return Decision::kAbort; }));
  Call call(proxy, m, WorkBody{});
  auto future = call.future();
  call.start();
  ASSERT_TRUE(future.ready());
  EXPECT_EQ(future.value().status, InvocationStatus::kAborted);
  EXPECT_EQ(proxy.component().calls, 0);
}

TEST(ModeratorAsyncTest, ParkedCallIsAdmittedAfterCompletionSignal) {
  Proxy proxy{Service{}};
  const auto m = MethodId::of("async-park");
  const auto opener = MethodId::of("async-park-opener");
  Gate gate;
  proxy.moderator().register_aspect(m, AspectKind::of("a3"), gate.aspect());
  proxy.moderator().register_aspect(
      opener, AspectKind::of("a3"),
      std::make_shared<LambdaAspect>(
          "open", nullptr, nullptr,
          [&gate](InvocationContext&) { gate.open = true; }));

  Call call(proxy, m, WorkBody{5});
  auto future = call.future();
  call.start();
  EXPECT_FALSE(future.ready()) << "closed gate must park, not settle";
  EXPECT_EQ(proxy.moderator().async_parked(), 1);
  EXPECT_EQ(proxy.moderator().async_parked(), 1);
  EXPECT_EQ(proxy.component().calls, 0) << "parked call must not run";

  // A completing writer's postactivation opens the gate and transfers the
  // parked call to this thread's persona...
  ASSERT_TRUE(proxy.invoke(opener, [](Service&) {}).ok());
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
  EXPECT_FALSE(future.ready()) << "retry waits for the persona drain";

  // ...and one progress() drain re-admits and completes it.
  EXPECT_GE(concurrency::progress(), 1u);
  ASSERT_TRUE(future.ready());
  ASSERT_TRUE(future.value().ok());
  EXPECT_EQ(*future.value().value, 10);
  EXPECT_EQ(gate.entered, 1);
  EXPECT_EQ(gate.posted, 1) << "G4 pairing on the async path";
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
  EXPECT_EQ(proxy.moderator().stats(m).block_events, 1u);
}

TEST(ModeratorAsyncTest, SlabStormParksManyAndDrainsWithOneOpen) {
  Proxy proxy{Service{}};
  const auto m = MethodId::of("async-storm");
  const auto opener = MethodId::of("async-storm-opener");
  Gate gate;
  proxy.moderator().register_aspect(m, AspectKind::of("a4"), gate.aspect());
  proxy.moderator().register_aspect(
      opener, AspectKind::of("a4"),
      std::make_shared<LambdaAspect>(
          "open", nullptr, nullptr,
          [&gate](InvocationContext&) { gate.open = true; }));

  constexpr int kCalls = 100;
  std::deque<Call> slab;  // deque: frames never relocate
  std::vector<concurrency::Future<Call::Result>> futures;
  for (int i = 0; i < kCalls; ++i) {
    auto& call = slab.emplace_back(proxy, m, WorkBody{i});
    futures.push_back(call.future());
    call.start();
  }
  EXPECT_EQ(proxy.moderator().async_parked(), kCalls);

  ASSERT_TRUE(proxy.invoke(opener, [](Service&) {}).ok());
  concurrency::progress_until([&] {
    for (const auto& f : futures) {
      if (!f.ready()) return false;
    }
    return true;
  });
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(futures[static_cast<std::size_t>(i)].value().ok());
    EXPECT_EQ(*futures[static_cast<std::size_t>(i)].value().value, i * 2);
  }
  EXPECT_EQ(proxy.component().calls, kCalls);
  EXPECT_EQ(gate.entered, kCalls);
  EXPECT_EQ(gate.posted, kCalls);
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
}

TEST(ModeratorAsyncTest, DeadlineExpiredWhileParkedYieldsTimeout) {
  runtime::ManualClock clock;
  ModeratorOptions options;
  options.clock = &clock;
  Proxy proxy{Service{}, options};
  const auto m = MethodId::of("async-deadline");
  const auto ping = MethodId::of("async-deadline-ping");
  Gate gate;  // never opened
  proxy.moderator().register_aspect(m, AspectKind::of("a5"), gate.aspect());
  proxy.moderator().register_aspect(
      ping, AspectKind::of("a5"), std::make_shared<LambdaAspect>("noop"));

  Call call(proxy, m, WorkBody{});
  call.context().set_deadline(clock.now() + std::chrono::milliseconds(100));
  auto future = call.future();
  call.start();
  EXPECT_FALSE(future.ready());

  // The deadline passes while parked; an unrelated completion supplies the
  // wakeup and the retry turns it into a structured timeout.
  clock.advance(std::chrono::milliseconds(200));
  ASSERT_TRUE(proxy.invoke(ping, [](Service&) {}).ok());
  concurrency::progress();
  ASSERT_TRUE(future.ready());
  EXPECT_EQ(future.value().status, InvocationStatus::kTimedOut);
  EXPECT_EQ(future.value().error.code, ErrorCode::kTimeout);
  EXPECT_EQ(proxy.component().calls, 0);
  EXPECT_EQ(proxy.moderator().stats(m).timed_out, 1u);
  EXPECT_EQ(gate.entered, 0);
  EXPECT_EQ(gate.posted, 0);
}

TEST(ModeratorAsyncTest, StopTokenCancelsParkedCall) {
  Proxy proxy{Service{}};
  const auto m = MethodId::of("async-stop");
  const auto ping = MethodId::of("async-stop-ping");
  Gate gate;  // never opened
  proxy.moderator().register_aspect(m, AspectKind::of("a6"), gate.aspect());
  proxy.moderator().register_aspect(
      ping, AspectKind::of("a6"), std::make_shared<LambdaAspect>("noop"));

  std::stop_source source;
  Call call(proxy, m, WorkBody{});
  call.context().set_stop(source.get_token());
  auto future = call.future();
  call.start();
  EXPECT_FALSE(future.ready());

  source.request_stop();
  ASSERT_TRUE(proxy.invoke(ping, [](Service&) {}).ok());
  concurrency::progress();
  ASSERT_TRUE(future.ready());
  EXPECT_EQ(future.value().status, InvocationStatus::kCancelled);
  EXPECT_EQ(future.value().error.code, ErrorCode::kCancelled);
  EXPECT_EQ(proxy.moderator().stats(m).cancelled, 1u);
}

TEST(ModeratorAsyncTest, StopRequestAloneSettlesParkedCall) {
  // PROTOCOL §8: a stop token is the caller's escape from a silent method.
  // request_stop() by itself — no completion, no watchdog scan — must hand
  // the parked call back, so the next progress() settles it kCancelled.
  Proxy proxy{Service{}};
  const auto m = MethodId::of("async-stop-alone");
  Gate gate;  // never opened, and nothing else ever completes
  proxy.moderator().register_aspect(m, AspectKind::of("a11"), gate.aspect());

  std::stop_source source;
  Call call(proxy, m, WorkBody{});
  call.context().set_stop(source.get_token());
  auto future = call.future();
  call.start();
  ASSERT_FALSE(future.ready());
  EXPECT_EQ(proxy.moderator().async_parked(), 1);

  source.request_stop();
  EXPECT_EQ(proxy.moderator().async_parked(), 0)
      << "the stop request unparks the call";
  concurrency::progress();
  ASSERT_TRUE(future.ready());
  EXPECT_EQ(future.value().status, InvocationStatus::kCancelled);
  EXPECT_EQ(future.value().error.code, ErrorCode::kCancelled);
  EXPECT_EQ(proxy.moderator().stats(m).cancelled, 1u);
  EXPECT_EQ(gate.entered, 0);
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
}

TEST(ModeratorAsyncTest, ShutdownSettlesParkedCallsAsCancelled) {
  Proxy proxy{Service{}};
  const auto m = MethodId::of("async-shutdown");
  Gate gate;  // never opened
  proxy.moderator().register_aspect(m, AspectKind::of("a7"), gate.aspect());

  Call call(proxy, m, WorkBody{});
  auto future = call.future();
  call.start();
  EXPECT_FALSE(future.ready());

  proxy.moderator().shutdown();
  concurrency::progress();
  ASSERT_TRUE(future.ready());
  EXPECT_EQ(future.value().status, InvocationStatus::kCancelled);

  // Submissions after shutdown settle inline.
  Call late(proxy, m, WorkBody{});
  auto late_future = late.future();
  late.start();
  ASSERT_TRUE(late_future.ready());
  EXPECT_EQ(late_future.value().status, InvocationStatus::kCancelled);
}

TEST(ModeratorAsyncTest, WatchdogEvictsParkedCall) {
  runtime::ManualClock clock;
  runtime::EventLog log(clock);
  WatchdogOptions wd;
  wd.stall_after = std::chrono::milliseconds(100);
  wd.abort_stalled = true;
  ModeratorOptions options;
  options.clock = &clock;
  options.log = &log;
  options.watchdog = wd;
  Proxy proxy{Service{}, options};
  const auto m = MethodId::of("async-evict");
  Gate gate;  // never opened
  proxy.moderator().register_aspect(m, AspectKind::of("a8"), gate.aspect());

  Call call(proxy, m, WorkBody{});
  auto future = call.future();
  call.start();
  EXPECT_FALSE(future.ready());
  EXPECT_EQ(proxy.moderator().async_parked(), 1);

  clock.advance(std::chrono::milliseconds(150));
  EXPECT_EQ(proxy.moderator().scan_stalls(), 1u);
  EXPECT_EQ(proxy.moderator().async_parked(), 0)
      << "eviction transfers the node out of the parked list";
  concurrency::progress();
  ASSERT_TRUE(future.ready());
  EXPECT_EQ(future.value().status, InvocationStatus::kTimedOut);
  EXPECT_EQ(future.value().error.code, ErrorCode::kDeadlineExceeded);
  EXPECT_NE(future.value().error.message.find("watchdog"), std::string::npos);
  EXPECT_EQ(proxy.moderator().async_parked(), 0);
  const auto violations = TraceValidator::validate(log);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().description);
}

TEST(ModeratorAsyncTest, BindTargetsAnExplicitPersona) {
  Proxy proxy{Service{}};
  const auto m = MethodId::of("async-bind");
  const auto opener = MethodId::of("async-bind-opener");
  Gate gate;
  proxy.moderator().register_aspect(m, AspectKind::of("a9"), gate.aspect());
  proxy.moderator().register_aspect(
      opener, AspectKind::of("a9"),
      std::make_shared<LambdaAspect>(
          "open", nullptr, nullptr,
          [&gate](InvocationContext&) { gate.open = true; }));

  concurrency::Persona persona;
  Call call(proxy, m, WorkBody{3});
  call.bind(&persona);
  auto future = call.future();
  call.start();
  EXPECT_FALSE(future.ready());

  ASSERT_TRUE(proxy.invoke(opener, [](Service&) {}).ok());
  EXPECT_GE(concurrency::progress(), 0u);
  EXPECT_FALSE(future.ready())
      << "the submitting thread's persona must not fire a bound call";
  EXPECT_EQ(persona.progress(), 1u);
  ASSERT_TRUE(future.ready());
  EXPECT_TRUE(future.value().ok());
  EXPECT_EQ(*future.value().value, 6);
}

TEST(ModeratorAsyncTest, InvokeAsyncConvenienceWrapper) {
  Proxy proxy{Service{}};
  const auto m = MethodId::of("async-wrap");
  proxy.moderator().register_aspect(m, AspectKind::of("a10"),
                                    std::make_shared<LambdaAspect>("noop"));
  auto call = proxy.invoke_async(m, [](Service& s) { return s.work(8); });
  auto future = call->future();
  call->start();
  ASSERT_TRUE(future.ready());
  EXPECT_EQ(*future.value().value, 16);
}

TEST(ModeratorAsyncTest, SettleCallbackFitsInlineStorage) {
  // The no-heap-per-park property: the settle continuation the proxy arms
  // captures one frame pointer and must live in ParkedCall's inline buffer
  // (a spill would mean one heap allocation per parked call).
  AspectModerator::ParkedCall park;
  void* frame = &park;
  park.settle.emplace([frame](Decision) { (void)frame; });
  EXPECT_TRUE(park.settle.inline_stored());
  park.settle.reset();
}

}  // namespace
}  // namespace amf::core
