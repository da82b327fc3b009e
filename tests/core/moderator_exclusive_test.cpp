// The exclusive moderation phase (DESIGN.md §15.5, PROTOCOL.md §9). Inside
// it the owner's calls run the same hooks in the same order as live calls,
// with none of the cross-thread machinery: no span, no burst, no shard
// lock. A call that would block times out at once. The contract is checked
// at run time: begin requires quiescence, a call from another thread
// aborts, and a recomposition from another thread waits for the phase to
// end. Durable recovery runs in a phase and must hand live traffic a
// quiescent moderator.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/ticket/durable_ticket.hpp"
#include "core/framework.hpp"
#include "runtime/event_log.hpp"
#include "runtime/health.hpp"

namespace amf::core {
namespace {

using namespace std::chrono_literals;
using runtime::AspectKind;
using runtime::ErrorCode;
using runtime::MethodId;

struct Dummy {};
using Proxy = ComponentProxy<Dummy>;

// Appends every hook it runs, in order, to a shared transcript.
class Recorder final : public Aspect {
 public:
  Recorder(std::string name, std::vector<std::string>* transcript,
           Decision verdict = Decision::kResume)
      : name_(std::move(name)), transcript_(transcript), verdict_(verdict) {}

  std::string_view name() const override { return name_; }
  void on_arrive(InvocationContext&) override { record("arrive"); }
  Decision precondition(InvocationContext&) override {
    record("guard");
    return verdict_;
  }
  void entry(InvocationContext&) override { record("entry"); }
  void postaction(InvocationContext&) override { record("post"); }
  void on_cancel(InvocationContext&) override { record("cancel"); }

 private:
  void record(const char* hook) { transcript_->push_back(name_ + "." + hook); }

  std::string name_;
  std::vector<std::string>* transcript_;
  Decision verdict_;
};

struct Script {
  std::vector<std::string> hooks;
  std::vector<std::string> events;  // moderator event messages, in order
  std::vector<Decision> verdicts;
  std::int64_t spans_in_body = -1;
};

// Two admitted calls and one that blocks, with plans on both methods so
// the live run takes the locked loop too (no fast or batch route), like
// the durable ticket wiring. The blocked call's deadline has passed, so
// the live run times it out after one evaluation.
Script run_script(bool exclusive) {
  Script out;
  runtime::EventLog log;
  ModeratorOptions options;
  options.log = &log;
  AspectModerator moderator(options);
  const auto m = MethodId::of("ex-script-m");
  const auto b = MethodId::of("ex-script-b");
  moderator.register_aspect(
      m, AspectKind::of("ex-k1"),
      std::make_shared<Recorder>("first", &out.hooks));
  moderator.register_aspect(
      m, AspectKind::of("ex-k2"),
      std::make_shared<Recorder>("second", &out.hooks));
  moderator.register_aspect(
      b, AspectKind::of("ex-k1"),
      std::make_shared<Recorder>("never", &out.hooks, Decision::kBlock));
  moderator.bank().set_notification_plan(m, {m, b});
  moderator.bank().set_notification_plan(b, {m, b});

  std::optional<AspectModerator::ExclusivePhase> phase;
  if (exclusive) phase.emplace(moderator);
  for (int i = 0; i < 2; ++i) {
    InvocationContext ctx(m);
    out.verdicts.push_back(moderator.preactivation(ctx));
    out.spans_in_body = moderator.open_spans();
    moderator.postactivation(ctx);
  }
  InvocationContext blocked(b);
  blocked.set_deadline(runtime::RealClock::instance().now() - 1ms);
  out.verdicts.push_back(moderator.preactivation(blocked));
  EXPECT_EQ(blocked.abort_error()->code, ErrorCode::kTimeout);
  phase.reset();

  for (const auto& e : log.by_category("moderator")) {
    out.events.push_back(e.message);
  }
  const auto violations = TraceValidator::validate(log);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().description);
  return out;
}

TEST(ExclusivePhaseTest, RunsTheSameHooksInTheSameOrderAsLiveCalls) {
  const Script live = run_script(false);
  const Script phase = run_script(true);
  EXPECT_EQ(phase.hooks, live.hooks);
  EXPECT_EQ(phase.events, live.events);
  EXPECT_EQ(phase.verdicts, live.verdicts);
  EXPECT_EQ(live.spans_in_body, 1) << "a live admission opens a span";
  EXPECT_EQ(phase.spans_in_body, 0) << "a phase admission opens none";
}

TEST(ExclusivePhaseTest, PhaseCallsTakeNoBurstSpanOrParkedSlot) {
  Proxy proxy{Dummy{}};
  AspectModerator& moderator = proxy.moderator();
  const auto m = MethodId::of("ex-quiet");
  moderator.register_aspect(m, AspectKind::of("ex-q"),
                            std::make_shared<LambdaAspect>("noop"));
  AspectModerator::ExclusivePhase phase(moderator);
  for (int i = 0; i < 3; ++i) {
    auto r = proxy.invoke(m, [&](Dummy&) {
      EXPECT_EQ(moderator.open_spans(), 0);
      EXPECT_EQ(moderator.open_bursts(), 0);
      EXPECT_EQ(moderator.own_open_spans(), 0);
    });
    ASSERT_TRUE(r.ok()) << r.error.to_string();
    EXPECT_EQ(r.wait_time, runtime::Duration{0})
        << "the admission stamp reuses the arrival stamp";
  }
  EXPECT_EQ(moderator.stats(m).admitted, 3u);
  EXPECT_EQ(moderator.stats(m).completed, 3u);
}

TEST(ExclusivePhaseTest, ACallThatWouldBlockTimesOutAtOnce) {
  Proxy proxy{Dummy{}};
  AspectModerator& moderator = proxy.moderator();
  const auto m = MethodId::of("ex-block");
  std::vector<std::string> hooks;
  moderator.register_aspect(
      m, AspectKind::of("ex-b"),
      std::make_shared<Recorder>("never", &hooks, Decision::kBlock));
  AspectModerator::ExclusivePhase phase(moderator);
  // No deadline: live, this call would wait forever.
  const auto t0 = std::chrono::steady_clock::now();
  auto r = proxy.invoke(m, [](Dummy&) { ADD_FAILURE() << "body ran"; });
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
  EXPECT_EQ(r.status, InvocationStatus::kTimedOut);
  EXPECT_EQ(r.error.code, ErrorCode::kTimeout);
  EXPECT_EQ(hooks, (std::vector<std::string>{"never.arrive", "never.guard",
                                             "never.cancel"}));
  EXPECT_EQ(moderator.stats(m).timed_out, 1u);
  EXPECT_EQ(moderator.async_parked(), 0);
}

TEST(ExclusivePhaseTest, AsyncCallsSettleInline) {
  Proxy proxy{Dummy{}};
  const auto m = MethodId::of("ex-async");
  proxy.moderator().register_aspect(m, AspectKind::of("ex-a"),
                                    std::make_shared<LambdaAspect>("noop"));
  AspectModerator::ExclusivePhase phase(proxy.moderator());
  auto call = proxy.invoke_async(m, [](Dummy&) { return 7; });
  auto future = call->future();
  call->start();
  ASSERT_TRUE(future.ready());
  ASSERT_TRUE(future.value().ok());
  EXPECT_EQ(*future.value().value, 7);
}

TEST(ExclusivePhaseTest, RecompositionFromAnotherThreadWaitsForThePhase) {
  Proxy proxy{Dummy{}};
  AspectModerator& moderator = proxy.moderator();
  const auto m = MethodId::of("ex-recompose");
  std::atomic<int> late_entries{0};
  std::atomic<bool> registered{false};
  std::optional<AspectModerator::ExclusivePhase> phase;
  phase.emplace(moderator);
  std::thread other([&] {
    moderator.register_aspect(
        m, AspectKind::of("ex-late"),
        std::make_shared<LambdaAspect>(
            "late", LambdaAspect::GuardFn{},
            [&](InvocationContext&) { late_entries.fetch_add(1); }));
    registered.store(true);
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(registered.load()) << "the barrier must wait for the phase";
  // The owner keeps running meanwhile.
  EXPECT_TRUE(proxy.invoke(m, [](Dummy&) {}).ok());
  phase.reset();
  other.join();
  EXPECT_TRUE(registered.load());
  EXPECT_TRUE(proxy.invoke(m, [](Dummy&) {}).ok());
  EXPECT_GE(late_entries.load(), 1);
  EXPECT_EQ(moderator.open_spans(), 0);
}

TEST(ExclusivePhaseTest, APublishLandingMidCallKeepsTheAdmittedChain) {
  // Another thread's publish lands while a phase call runs its body; the
  // call's postactivation must still find the record it was admitted
  // under alive (it opened no span to keep it), and pair its entries
  // with that chain's postactions (G4).
  Proxy proxy{Dummy{}};
  AspectModerator& moderator = proxy.moderator();
  const auto m = MethodId::of("ex-midcall");
  std::vector<std::string> hooks;
  moderator.register_aspect(m, AspectKind::of("ex-mc1"),
                            std::make_shared<Recorder>("old", &hooks));
  std::optional<AspectModerator::ExclusivePhase> phase;
  phase.emplace(moderator);
  std::thread other;
  auto r = proxy.invoke(m, [&](Dummy&) {
    const std::uint64_t before = moderator.bank().version();
    other = std::thread([&] {
      moderator.register_aspect(m, AspectKind::of("ex-mc2"),
                                std::make_shared<Recorder>("new", &hooks));
    });
    while (moderator.bank().version() == before) std::this_thread::yield();
  });
  ASSERT_TRUE(r.ok()) << r.error.to_string();
  EXPECT_EQ(hooks, (std::vector<std::string>{"old.arrive", "old.guard",
                                             "old.entry", "old.post"}));
  phase.reset();
  other.join();
}

TEST(ExclusivePhaseTest, HealthFallbackSwapFromAnotherThreadWaitsForThePhase) {
  runtime::HealthRegistry health;
  ModeratorOptions options;
  options.health = &health;
  Proxy proxy{Dummy{}, options};
  AspectModerator& moderator = proxy.moderator();
  const auto m = MethodId::of("ex-fallback");
  auto primary = std::make_shared<LambdaAspect>("primary");
  primary->set_resource("ex-db");
  moderator.register_aspect(m, AspectKind::of("ex-p"), primary);
  moderator.bank().set_fallback(
      m, {{AspectKind::of("ex-shed"), std::make_shared<LambdaAspect>("shed")}});

  std::atomic<bool> swapped{false};
  std::optional<AspectModerator::ExclusivePhase> phase;
  phase.emplace(moderator);
  // What a prober thread does on a fence: deliver the transition, whose
  // listener republishes the bank and runs the recomposition barrier.
  std::thread prober([&] {
    health.report_fenced("ex-db", "io fault");
    health.pump();
    swapped.store(true);
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(swapped.load()) << "the swap's barrier must wait";
  EXPECT_TRUE(proxy.invoke(m, [](Dummy&) {}).ok());
  phase.reset();
  prober.join();
  EXPECT_TRUE(swapped.load());
  EXPECT_TRUE(moderator.bank().fallback_active(m));
  EXPECT_TRUE(proxy.invoke(m, [](Dummy&) {}).ok());
}

// --- run-time contract checks (death tests) --------------------------------

class ExclusivePhaseDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

TEST_F(ExclusivePhaseDeathTest, SyncCallFromAnotherThreadAborts) {
  EXPECT_DEATH(
      {
        Proxy proxy{Dummy{}};
        proxy.moderator().begin_exclusive();
        std::thread([&] {
          (void)proxy.invoke(MethodId::of("ex-intruder"), [](Dummy&) {});
        }).join();
      },
      "exclusive phase violated: call from a thread that does not own the "
      "phase \\(preactivation\\)");
}

TEST_F(ExclusivePhaseDeathTest, AnAsyncCallFromAnotherThreadAborts) {
  EXPECT_DEATH(
      {
        Proxy proxy{Dummy{}};
        proxy.moderator().begin_exclusive();
        std::thread([&] {
          auto call =
              proxy.invoke_async(MethodId::of("ex-intruder"), [](Dummy&) {});
          call->start();
        }).join();
      },
      "does not own the phase \\(preactivation_async\\)");
}

TEST_F(ExclusivePhaseDeathTest, APostactivationFromAnotherThreadAborts) {
  EXPECT_DEATH(
      {
        AspectModerator moderator;
        moderator.begin_exclusive();
        InvocationContext ctx(MethodId::of("ex-handoff"));
        if (moderator.preactivation(ctx) == Decision::kResume) {
          std::thread([&] { moderator.postactivation(ctx); }).join();
        }
      },
      "does not own the phase \\(postactivation\\)");
}

TEST_F(ExclusivePhaseDeathTest, BeginWhileASpanIsOpenAborts) {
  // Another thread's admitted call is still in its body.
  EXPECT_DEATH(
      {
        AspectModerator moderator;
        std::atomic<bool> admitted{false};
        std::atomic<bool> release{false};
        std::thread holder([&] {
          InvocationContext ctx(MethodId::of("ex-holder"));
          if (moderator.preactivation(ctx) == Decision::kResume) {
            admitted.store(true);
            while (!release.load()) std::this_thread::yield();
            moderator.postactivation(ctx);
          }
        });
        while (!admitted.load()) std::this_thread::yield();
        moderator.begin_exclusive();
        release.store(true);
        holder.join();
      },
      "exclusive phase violated: an admitted call has not completed "
      "\\(begin_exclusive\\)");
  // The calling thread's own call is still in its body.
  EXPECT_DEATH(
      {
        AspectModerator moderator;
        InvocationContext ctx(MethodId::of("ex-own"));
        if (moderator.preactivation(ctx) == Decision::kResume) {
          moderator.begin_exclusive();
        }
      },
      "the calling thread has an admitted call open");
}

TEST_F(ExclusivePhaseDeathTest, BeginRequiresQuiescence) {
  EXPECT_DEATH(
      {
        AspectModerator moderator;
        moderator.shutdown();
        moderator.begin_exclusive();
      },
      "the moderator is shut down");
  EXPECT_DEATH(
      {
        AspectModerator moderator;
        moderator.begin_exclusive();
        moderator.begin_exclusive();
      },
      "a phase is already active");
}

TEST_F(ExclusivePhaseDeathTest, EndWithACallStillOpenAborts) {
  EXPECT_DEATH(
      {
        AspectModerator moderator;
        InvocationContext ctx(MethodId::of("ex-unfinished"));
        moderator.begin_exclusive();
        if (moderator.preactivation(ctx) == Decision::kResume) {
          moderator.end_exclusive();
        }
      },
      "a call admitted in the phase has not completed");
}

// --- recovery runs in a phase ----------------------------------------------

TEST(ExclusiveRecoveryTest, OpenLeavesTheModeratorQuiescentForLiveTraffic) {
  using apps::ticket::DurableTicketApp;
  using apps::ticket::Ticket;
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("amf_exclusive_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  auto make = [](std::uint64_t id) {
    Ticket t;
    t.id = id;
    t.description = "t";
    t.opened_by = "a";
    return t;
  };
  constexpr std::uint64_t kLogged = 200;  // opens, half of them assigned
  constexpr std::uint64_t kLive = 500;
  {
    auto app = DurableTicketApp::open(dir.string());
    ASSERT_TRUE(app.ok()) << app.error().to_string();
    for (std::uint64_t i = 1; i <= kLogged; ++i) {
      ASSERT_TRUE(app.value()->open_ticket(make(i)).ok());
      if (i % 2 == 0) {
        ASSERT_TRUE(app.value()->assign_ticket().ok());
      }
      if (app.value()->pending() > 8) {
        ASSERT_TRUE(app.value()->assign_ticket().ok());
      }
    }
    ASSERT_TRUE(app.value()->sync().ok());
  }

  auto opened = DurableTicketApp::open(dir.string());
  ASSERT_TRUE(opened.ok()) << opened.error().to_string();
  const std::unique_ptr<DurableTicketApp> owned = std::move(opened.value());
  DurableTicketApp& app = *owned;
  AspectModerator& moderator = app.proxy().moderator();
  EXPECT_GT(app.recovery_stats().replayed, kLogged);
  EXPECT_EQ(moderator.open_spans(), 0);
  EXPECT_EQ(moderator.async_parked(), 0);
  EXPECT_EQ(moderator.async_parked(), 0);
  EXPECT_EQ(moderator.open_bursts(), 0);
  EXPECT_EQ(moderator.own_open_spans(), 0);

  // A registration runs the recomposition barrier, which would wait
  // forever on a span the phase leaked.
  std::atomic<std::uint64_t> audited{0};
  moderator.register_aspect(
      apps::ticket::open_method(), AspectKind::of("ex-audit"),
      std::make_shared<LambdaAspect>(
          "audit", LambdaAspect::GuardFn{},
          [&](InvocationContext&) { audited.fetch_add(1); }));

  const std::size_t backlog = app.pending();
  std::atomic<std::uint64_t> opens{0}, assigns{0};
  std::thread opener([&] {
    for (std::uint64_t i = 1; i <= kLive; ++i) {
      if (app.open_ticket(make(kLogged + i)).ok()) opens.fetch_add(1);
    }
  });
  std::thread assigner([&] {
    for (std::uint64_t i = 0; i < kLive + backlog; ++i) {
      if (app.assign_ticket().ok()) assigns.fetch_add(1);
    }
  });
  opener.join();
  assigner.join();
  EXPECT_EQ(opens.load(), kLive);
  EXPECT_EQ(assigns.load(), kLive + backlog);
  EXPECT_EQ(audited.load(), kLive);
  EXPECT_EQ(app.pending(), 0u);
  EXPECT_EQ(app.total_opened(), app.total_assigned());
  EXPECT_EQ(moderator.open_spans(), 0);
  EXPECT_EQ(moderator.async_parked(), 0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace amf::core
