// E15 — Asynchronous moderation: parked-call footprint and drain goodput.
//
// Claim checked: a kBlock verdict on the async path parks a caller-owned
// frame on the moderator's wait channels instead of holding a blocked
// thread — so the cost of N concurrently blocked calls is N small frames
// (~1 KB each, zero heap beyond the submitter's slab), not N stacks, and
// 100k+ concurrently blocked calls are routine. The thread-per-call
// baseline measures what the synchronous path pays for the same blocked
// population (it cannot even reach the async scale: the bench caps it at
// 2048 threads).
//
// Open-loop arrival: the submitter starts every call without waiting for
// any verdict; all parked frames coexist before the gate opens. One
// completing writer then transfers the whole parked population to the
// submitting persona, and a single progress() drain re-admits it — the
// drain rate is the reported goodput.
#include <benchmark/benchmark.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "apps/ticket/durable_ticket.hpp"
#include "concurrency/progress.hpp"
#include "core/framework.hpp"

namespace {

using namespace amf;

// Allocator-level live bytes: parked frames live in the submitter's slab
// (heap), so uordblks + hblkhd deltas attribute them precisely, and frees
// are visible immediately (RSS would keep counting allocator caches).
std::size_t heap_bytes() {
#if defined(__GLIBC__)
  struct mallinfo2 mi = mallinfo2();
  return static_cast<std::size_t>(mi.uordblks) +
         static_cast<std::size_t>(mi.hblkhd);
#else
  return 0;
#endif
}

// Resident set: thread stacks are mmap'd, invisible to mallinfo2.
std::size_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::size_t>(resident) * 4096u;
}

struct Cell {
  long value = 0;
};

struct Bump {
  void operator()(Cell& c) const { ++c.value; }
};

using Proxy = core::ComponentProxy<Cell>;
using Call = Proxy::AsyncCall<Bump>;

// Gate: blocks every caller until `open` flips; the opener method's
// postaction flips it under the moderator locks, so its completion is the
// wakeup that releases the parked population.
struct Gate {
  bool open = false;
};

void wire_gate(Proxy& proxy, Gate& gate, runtime::MethodId m,
               runtime::MethodId opener) {
  proxy.moderator().register_aspect(
      m, runtime::AspectKind::of("e15-gate"),
      std::make_shared<core::LambdaAspect>(
          "gate", [&gate](core::InvocationContext&) {
            return gate.open ? core::Decision::kResume : core::Decision::kBlock;
          }));
  proxy.moderator().register_aspect(
      opener, runtime::AspectKind::of("e15-gate"),
      std::make_shared<core::LambdaAspect>(
          "open", nullptr, nullptr,
          [&gate](core::InvocationContext&) { gate.open = true; }));
}

void BM_AsyncParkedCalls(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto m = runtime::MethodId::of("e15-async");
  const auto opener = runtime::MethodId::of("e15-async-opener");
  double bytes_per_call = 0, goodput = 0;
  for (auto _ : state) {
    Gate gate;
    Proxy proxy{Cell{}, core::ModeratorOptions{}};
    wire_gate(proxy, gate, m, opener);

    std::deque<Call> slab;  // the frames ARE the blocked calls
    std::vector<concurrency::Future<Call::Result>> futures;
    futures.reserve(static_cast<std::size_t>(k));
    const std::size_t heap0 = heap_bytes();
    for (int i = 0; i < k; ++i) {
      auto& call = slab.emplace_back(proxy, m, Bump{});
      futures.push_back(call.future());
      call.start();
    }
    const std::size_t heap1 = heap_bytes();
    if (proxy.moderator().async_parked() != k) {
      state.SkipWithError("not all calls parked");
      return;
    }
    bytes_per_call =
        static_cast<double>(heap1 - heap0) / static_cast<double>(k);

    const auto t0 = std::chrono::steady_clock::now();
    auto r = proxy.invoke(opener, [](Cell&) {});
    // The opener transferred the whole parked population; one drain
    // re-admits it FIFO. Later calls settle after earlier ones, so
    // readiness is checked back-to-front.
    for (auto it = futures.rbegin(); it != futures.rend(); ++it) {
      concurrency::progress_until([&] { return it->ready(); });
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.ok() || proxy.component().value != k) {
      state.SkipWithError("drain lost calls");
      return;
    }
    goodput = static_cast<double>(k) /
              std::chrono::duration<double>(t1 - t0).count();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * k);
  state.counters["parked_calls"] = k;
  state.counters["parked_bytes_per_call"] = bytes_per_call;
  state.counters["goodput"] = goodput;
}

void BM_ThreadPerCallBaseline(benchmark::State& state) {
  // The synchronous equivalent: every blocked call is a blocked thread.
  // Memory is measured as RSS (stacks are not heap); virtual reservation
  // is ~8 MB/thread on top of that. Capped at 2048 — the async side runs
  // 64x that population.
  const int k = static_cast<int>(state.range(0));
  const auto m = runtime::MethodId::of("e15-sync");
  const auto opener = runtime::MethodId::of("e15-sync-opener");
  double bytes_per_call = 0, goodput = 0;
  for (auto _ : state) {
    Gate gate;
    Proxy proxy{Cell{}, core::ModeratorOptions{}};
    wire_gate(proxy, gate, m, opener);

    const std::size_t rss0 = rss_bytes();
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      threads.emplace_back([&proxy, m] {
        benchmark::DoNotOptimize(proxy.invoke(m, Bump{}));
      });
    }
    while (proxy.moderator().async_parked() < k) {
      std::this_thread::yield();
    }
    const std::size_t rss1 = rss_bytes();
    bytes_per_call =
        static_cast<double>(rss1 - rss0) / static_cast<double>(k);

    const auto t0 = std::chrono::steady_clock::now();
    auto r = proxy.invoke(opener, [](Cell&) {});
    threads.clear();  // joins: every waiter admitted and completed
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.ok() || proxy.component().value != k) {
      state.SkipWithError("baseline lost calls");
      return;
    }
    goodput = static_cast<double>(k) /
              std::chrono::duration<double>(t1 - t0).count();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * k);
  state.counters["blocked_calls"] = k;
  state.counters["blocked_bytes_per_call"] = bytes_per_call;
  state.counters["goodput"] = goodput;
}

void BM_DurableTicketAsyncStorm(benchmark::State& state) {
  // App-level storm: a batch of future-returning assigns parks against an
  // empty durable ticket buffer, a burst of opens arrives, one drain
  // settles the lot — every admitted call WAL-logged like a sync one.
  namespace fs = std::filesystem;
  const int k = static_cast<int>(state.range(0));
  const auto dir = fs::temp_directory_path() / "amf_bench_e15_ticket";
  double goodput = 0;
  for (auto _ : state) {
    fs::remove_all(dir);
    apps::ticket::DurableTicketApp::Options options;
    options.capacity = static_cast<std::size_t>(k);
    auto app = apps::ticket::DurableTicketApp::open(dir.string(), options);
    if (!app.ok()) {
      state.SkipWithError("app open failed");
      return;
    }

    std::deque<apps::ticket::DurableTicketApp::AsyncAssignCall> slab;
    std::vector<concurrency::Future<
        apps::ticket::DurableTicketApp::AsyncAssignCall::Result>>
        futures;
    futures.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      futures.push_back(app.value()->assign_ticket_async(slab).future());
    }

    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < k; ++i) {
      apps::ticket::Ticket t;
      t.id = static_cast<std::uint64_t>(i + 1);
      t.description = "storm";
      t.opened_by = "bench";
      if (!app.value()->open_ticket(t).ok()) {
        state.SkipWithError("open refused");
        return;
      }
    }
    std::size_t done = 0;
    while (done < futures.size()) {
      concurrency::progress();
      done = 0;
      for (const auto& f : futures) done += f.ready() ? 1 : 0;
    }
    const auto t1 = std::chrono::steady_clock::now();
    goodput = static_cast<double>(2 * k) /
              std::chrono::duration<double>(t1 - t0).count();
  }
  fs::remove_all(dir);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * k);
  state.counters["parked_calls"] = k;
  state.counters["goodput"] = goodput;
}

BENCHMARK(BM_AsyncParkedCalls)
    ->Arg(1 << 10)
    ->Arg(1 << 14)
    ->Arg(1 << 17)  // 131072 concurrently parked calls
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ThreadPerCallBaseline)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_DurableTicketAsyncStorm)
    ->Arg(1024)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
