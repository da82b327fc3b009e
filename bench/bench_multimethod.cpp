// E11 — Multi-method scalability of the sharded moderator.
//
// Claim checked: the moderator imposes no GLOBAL synchronization point —
// methods with disjoint aspects and self-only notification plans moderate
// on their own shard (mutex + condvar), so aggregate throughput grows with
// the number of independent methods instead of serializing on one lock
// (the AMECOS critique of global concern-composition bottlenecks).
//
// Args: (methods). Two workers per method hammer kOpsPerWorker moderated
// calls each; items/s is the aggregate admission+completion rate. The
// `NoPlan` variant shows the cost of the always-safe default (postactivation
// locks every shard), i.e. what setting a notification plan buys.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aspects/synchronization.hpp"
#include "core/moderator.hpp"

namespace {

using namespace amf;

constexpr int kOpsPerWorker = 5'000;
constexpr int kWorkersPerMethod = 2;

std::vector<runtime::MethodId> make_methods(int n) {
  std::vector<runtime::MethodId> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(runtime::MethodId::of("mm-" + std::to_string(i)));
  }
  return out;
}

void run_workload(core::AspectModerator& moderator,
                  const std::vector<runtime::MethodId>& methods) {
  std::vector<std::jthread> workers;
  for (const auto method : methods) {
    for (int w = 0; w < kWorkersPerMethod; ++w) {
      workers.emplace_back([&moderator, method] {
        for (int i = 0; i < kOpsPerWorker; ++i) {
          core::InvocationContext ctx(method);
          if (moderator.preactivation(ctx) == core::Decision::kResume) {
            moderator.postactivation(ctx);
          }
        }
      });
    }
  }
}

void BM_IndependentMethodsSharded(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto methods = make_methods(n);
  for (auto _ : state) {
    core::AspectModerator moderator;
    for (const auto method : methods) {
      // Each method gets a PRIVATE guard (bounded concurrency, counter
      // commits on entry/postaction) and a self-only wake plan — the
      // sharded fast path.
      moderator.register_aspect(
          method, runtime::AspectKind::of("mm-excl"),
          std::make_shared<aspects::MutualExclusionAspect>(kWorkersPerMethod));
      moderator.bank().set_notification_plan(method, {method});
    }
    run_workload(moderator, methods);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n *
                          kWorkersPerMethod * kOpsPerWorker);
  state.counters["methods"] = n;
}

void BM_IndependentMethodsNoPlan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto methods = make_methods(n);
  for (auto _ : state) {
    core::AspectModerator moderator;
    for (const auto method : methods) {
      moderator.register_aspect(
          method, runtime::AspectKind::of("mm-excl"),
          std::make_shared<aspects::MutualExclusionAspect>(kWorkersPerMethod));
    }
    run_workload(moderator, methods);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n *
                          kWorkersPerMethod * kOpsPerWorker);
  state.counters["methods"] = n;
}

void BM_IndependentMethodsFastPath(benchmark::State& state) {
  // Non-blocking observer chains (always-resume guard + entry/postaction
  // counters declared fast-capable): every call should admit and complete
  // on the optimistic lock-free path, skipping the shard mutex entirely.
  const int n = static_cast<int>(state.range(0));
  const auto methods = make_methods(n);
  std::uint64_t fast = 0;
  for (auto _ : state) {
    core::AspectModerator moderator;
    for (const auto method : methods) {
      auto observe = std::make_shared<core::LambdaAspect>(
          "mm-observe",
          [](core::InvocationContext&) { return core::Decision::kResume; });
      observe->set_nonblocking(true);
      moderator.register_aspect(method, runtime::AspectKind::of("mm-obs"),
                                std::move(observe));
    }
    run_workload(moderator, methods);
    fast += moderator.fast_admissions();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n *
                          kWorkersPerMethod * kOpsPerWorker);
  state.counters["methods"] = n;
  state.counters["fast_admissions"] = static_cast<double>(fast);
}

void BM_ExclusionGroupSharded(benchmark::State& state) {
  // Control: ONE shared MutualExclusionAspect across all methods merges
  // their lock group — throughput must NOT scale (the group is genuinely
  // serial), proving the shards only split what is safe to split.
  const int n = static_cast<int>(state.range(0));
  const auto methods = make_methods(n);
  for (auto _ : state) {
    core::AspectModerator moderator;
    auto shared = std::make_shared<aspects::MutualExclusionAspect>(1);
    for (const auto method : methods) {
      moderator.register_aspect(method, runtime::AspectKind::of("mm-group"),
                                shared);
      moderator.bank().set_notification_plan(method, methods);
    }
    run_workload(moderator, methods);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n *
                          kWorkersPerMethod * kOpsPerWorker);
  state.counters["methods"] = n;
}

void shapes(benchmark::internal::Benchmark* b) {
  for (const int methods : {1, 2, 4, 8}) b->Args({methods});
  b->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();
}

BENCHMARK(BM_IndependentMethodsSharded)->Apply(shapes);
BENCHMARK(BM_IndependentMethodsNoPlan)->Apply(shapes);
BENCHMARK(BM_IndependentMethodsFastPath)->Apply(shapes);
BENCHMARK(BM_ExclusionGroupSharded)->Apply(shapes);

}  // namespace

BENCHMARK_MAIN();
