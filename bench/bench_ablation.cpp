// E9 — Ablations of the framework's own design choices (DESIGN.md §3).
//
// A1: notification plan. The moderator can wake every method with waiters
//     (always safe) or follow a targeted plan (the paper's hand-wired
//     open↔assign notify, repaired per D5 to include self). Measures what
//     the targeted plan actually buys on the producer/consumer workload.
//
// A2: kind ordering. §5.3 runs authentication OUTSIDE synchronization.
//     With a caller mix containing invalid sessions, auth-first aborts
//     before touching guard state, auth-last evaluates sync guards first.
//     Measures the fail-fast value of the paper's ordering.
#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "apps/ticket/ticket_proxy.hpp"
#include "aspects/authentication.hpp"
#include "aspects/synchronization.hpp"
#include "core/framework.hpp"

namespace {

using namespace amf;
using namespace amf::apps::ticket;

constexpr int kPairs = 2;
constexpr int kOpsPerWorker = 2'000;

void run_ticket_workload(benchmark::State& state, bool targeted_plan) {
  for (auto _ : state) {
    auto proxy = make_ticket_proxy(16);
    if (!targeted_plan) {
      // Overwrite the targeted plan with "wake everything".
      proxy->moderator().bank().set_notification_plan(
          open_method(), {open_method(), assign_method()});
      proxy->moderator().bank().set_notification_plan(
          assign_method(), {open_method(), assign_method()});
      // (identical sets here — the ablation is plan-dispatch overhead vs
      // the default scan; with two methods they coincide, so ALSO measure
      // the no-plan default below)
    }
    {
      std::vector<std::jthread> threads;
      for (int p = 0; p < kPairs; ++p) {
        threads.emplace_back([&] {
          for (int i = 0; i < kOpsPerWorker; ++i) {
            (void)open_ticket(*proxy, Ticket{1, "", ""});
          }
        });
        threads.emplace_back([&] {
          for (int i = 0; i < kOpsPerWorker; ++i) {
            (void)assign_ticket(*proxy);
          }
        });
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kPairs *
                          kOpsPerWorker * 2);
}

void BM_NotifyPlanTargeted(benchmark::State& state) {
  run_ticket_workload(state, true);
}
BENCHMARK(BM_NotifyPlanTargeted)->Unit(benchmark::kMillisecond)->UseRealTime();

// Default moderator behavior when NO plan is installed: scan all methods
// with waiters. Needs a proxy built without make_ticket_proxy's plan.
void BM_NotifyPlanAbsent(benchmark::State& state) {
  for (auto _ : state) {
    auto proxy = std::make_shared<TicketProxy>(TicketServer(16));
    auto state_shared = std::make_shared<aspects::BoundedResourceState>(16);
    proxy->moderator().register_aspect(
        open_method(), runtime::kinds::synchronization(),
        std::make_shared<aspects::BoundedResourceAspect>(
            aspects::BoundedResourceAspect::Role::kProducer, state_shared));
    proxy->moderator().register_aspect(
        assign_method(), runtime::kinds::synchronization(),
        std::make_shared<aspects::BoundedResourceAspect>(
            aspects::BoundedResourceAspect::Role::kConsumer, state_shared));
    {
      std::vector<std::jthread> threads;
      for (int p = 0; p < kPairs; ++p) {
        threads.emplace_back([&] {
          for (int i = 0; i < kOpsPerWorker; ++i) {
            (void)open_ticket(*proxy, Ticket{1, "", ""});
          }
        });
        threads.emplace_back([&] {
          for (int i = 0; i < kOpsPerWorker; ++i) {
            (void)assign_ticket(*proxy);
          }
        });
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kPairs *
                          kOpsPerWorker * 2);
}
BENCHMARK(BM_NotifyPlanAbsent)->Unit(benchmark::kMillisecond)->UseRealTime();

// --- A2: kind ordering under a hostile caller mix -------------------------

struct Service {
  std::uint64_t hits = 0;
};

void run_ordering(benchmark::State& state, bool auth_first) {
  runtime::CredentialStore store;
  (void)store.add_user("good", "pw", {});
  auto good = store.login("good", "pw").value();
  runtime::Principal bad{"intruder", {}, "tok-forged"};

  core::ComponentProxy<Service> proxy{Service{}};
  const auto m = runtime::MethodId::of("ablate-work");
  const auto kAuth = runtime::kinds::authentication();
  const auto kSync = runtime::kinds::synchronization();
  proxy.moderator().bank().set_kind_order(
      auth_first ? std::vector<runtime::AspectKind>{kAuth, kSync}
                 : std::vector<runtime::AspectKind>{kSync, kAuth});
  proxy.moderator().register_aspect(
      m, kAuth, std::make_shared<aspects::AuthenticationAspect>(store));
  proxy.moderator().register_aspect(
      m, kSync, std::make_shared<aspects::MutualExclusionAspect>());

  // 50% invalid sessions.
  bool use_bad = false;
  for (auto _ : state) {
    auto r = proxy.call(m)
                 .as(use_bad ? bad : good)
                 .run([](Service& s) { return ++s.hits; });
    benchmark::DoNotOptimize(r);
    use_bad = !use_bad;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_OrderAuthFirst(benchmark::State& state) {
  run_ordering(state, true);
}
void BM_OrderAuthLast(benchmark::State& state) {
  run_ordering(state, false);
}
BENCHMARK(BM_OrderAuthFirst);
BENCHMARK(BM_OrderAuthLast);

}  // namespace

BENCHMARK_MAIN();
