// E8 — Reusable readers-writer aspect vs hand-rolled std::shared_mutex.
//
// Claim checked: the composed RW concern delivers read concurrency in the
// same regime as a hand-written shared_mutex guard — the price of reuse is
// a constant per call, not a loss of the read-side scaling shape.
//
// Args: (threads, read%). Each iteration drives `threads` workers over a
// reservation grid with the given read/write mix. Per-op latencies land in
// lock-free histograms (runtime/metrics.hpp) and surface as read/write
// p50/p99 counters next to the throughput number, for both the framework
// and the shared_mutex baseline.
//
// BM_ReservationProxyBuild/n prices building the service over an n x n grid.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "apps/reservation/reservation_proxy.hpp"
#include "runtime/metrics.hpp"
#include "runtime/random.hpp"

namespace {

using namespace amf;
using namespace amf::apps::reservation;

constexpr int kOpsPerThread = 3'000;
constexpr std::size_t kRows = 16, kCols = 16;

// Sampling 1-in-16 keeps the two clock reads from dominating the baseline's
// ~35 ns ops (timing every op halved its throughput); uniform sampling
// leaves the percentiles unbiased and both series pay the identical tax.
constexpr unsigned kLatencySampleMask = 15;

/// Per-path sampler: the gate counts the ops ROUTED TO THIS HISTOGRAM, not
/// the thread's loop index. Gating on the shared index under-sampled the
/// minority path badly — in a 90%-read mix a thread's sampled slots are
/// ~90% reads, leaving write percentiles built from ~10× fewer samples
/// than their share (pure noise at p99). Now each path samples exactly
/// 1 op in 16 of its own stream.
class Sampler {
 public:
  explicit Sampler(runtime::Histogram& hist) : hist_(hist) {}

  template <typename F>
  void timed(F&& op) {
    if ((seq_++ & kLatencySampleMask) != 0) {
      op();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    op();
    const auto t1 = std::chrono::steady_clock::now();
    hist_.record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  }

 private:
  runtime::Histogram& hist_;
  unsigned seq_ = 0;
};

/// Publishes read/write latency percentiles as benchmark counters.
void report_latency(benchmark::State& state, const runtime::Histogram& reads,
                    const runtime::Histogram& writes) {
  state.counters["read_p50_ns"] =
      static_cast<double>(reads.percentile(0.50));
  state.counters["read_p99_ns"] =
      static_cast<double>(reads.percentile(0.99));
  state.counters["write_p50_ns"] =
      static_cast<double>(writes.percentile(0.50));
  state.counters["write_p99_ns"] =
      static_cast<double>(writes.percentile(0.99));
}

void BM_FrameworkRw(benchmark::State& state) {
  const int threads_n = static_cast<int>(state.range(0));
  const int read_pct = static_cast<int>(state.range(1));
  runtime::Histogram read_lat, write_lat;
  std::uint64_t fast_admissions = 0;
  for (auto _ : state) {
    auto proxy = make_reservation_proxy(kRows, kCols);
    {
      std::vector<std::jthread> threads;
      for (int t = 0; t < threads_n; ++t) {
        threads.emplace_back([&, t] {
          runtime::Rng rng(static_cast<std::uint64_t>(t) + 1);
          const std::string who = "w" + std::to_string(t);
          Sampler read_sampler(read_lat), write_sampler(write_lat);
          for (int i = 0; i < kOpsPerThread; ++i) {
            const Seat seat{rng.uniform_int(0, kRows - 1),
                            rng.uniform_int(0, kCols - 1)};
            if (rng.uniform_int(1, 100) <= static_cast<unsigned>(read_pct)) {
              read_sampler.timed([&] {
                benchmark::DoNotOptimize(proxy->invoke(
                    query_method(),
                    [&](ReservationSystem& s) { return s.holder(seat); }));
              });
            } else if (rng.bernoulli(0.5)) {
              write_sampler.timed([&] {
                benchmark::DoNotOptimize(proxy->invoke(
                    reserve_method(), [&](ReservationSystem& s) {
                      return s.reserve(seat, who);
                    }));
              });
            } else {
              write_sampler.timed([&] {
                benchmark::DoNotOptimize(proxy->invoke(
                    cancel_method(), [&](ReservationSystem& s) {
                      return s.cancel(seat, who);
                    }));
              });
            }
          }
        });
      }
    }
    fast_admissions += proxy->moderator().fast_admissions();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          threads_n * kOpsPerThread);
  state.counters["threads"] = threads_n;
  state.counters["read_pct"] = read_pct;
  state.counters["fast_admissions"] = static_cast<double>(fast_admissions);
  report_latency(state, read_lat, write_lat);
}

void BM_SharedMutexBaseline(benchmark::State& state) {
  const int threads_n = static_cast<int>(state.range(0));
  const int read_pct = static_cast<int>(state.range(1));
  runtime::Histogram read_lat, write_lat;
  for (auto _ : state) {
    ReservationSystem grid(kRows, kCols);
    std::shared_mutex mu;
    {
      std::vector<std::jthread> threads;
      for (int t = 0; t < threads_n; ++t) {
        threads.emplace_back([&, t] {
          runtime::Rng rng(static_cast<std::uint64_t>(t) + 1);
          const std::string who = "w" + std::to_string(t);
          Sampler read_sampler(read_lat), write_sampler(write_lat);
          for (int i = 0; i < kOpsPerThread; ++i) {
            const Seat seat{rng.uniform_int(0, kRows - 1),
                            rng.uniform_int(0, kCols - 1)};
            if (rng.uniform_int(1, 100) <= static_cast<unsigned>(read_pct)) {
              read_sampler.timed([&] {
                std::shared_lock lock(mu);
                benchmark::DoNotOptimize(grid.holder(seat));
              });
            } else if (rng.bernoulli(0.5)) {
              write_sampler.timed([&] {
                std::unique_lock lock(mu);
                benchmark::DoNotOptimize(grid.reserve(seat, who));
              });
            } else {
              write_sampler.timed([&] {
                std::unique_lock lock(mu);
                benchmark::DoNotOptimize(grid.cancel(seat, who));
              });
            }
          }
        });
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          threads_n * kOpsPerThread);
  state.counters["threads"] = threads_n;
  state.counters["read_pct"] = read_pct;
  report_latency(state, read_lat, write_lat);
}

// Construction cost of the service: make_reservation_proxy over an n x n
// grid, torn down each iteration. A seat is a 4-byte holder id and the
// grid one zero fill (DESIGN.md §4.6), so the 65,536-seat build costs a
// small multiple of the 256-seat one; CI guards that ratio.
void BM_ReservationProxyBuild(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_reservation_proxy(side, side));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void shapes(benchmark::internal::Benchmark* b) {
  for (const int threads : {2, 4, 8}) {
    for (const int read_pct : {90, 50}) {
      b->Args({threads, read_pct});
    }
  }
  b->Unit(benchmark::kMillisecond)->UseRealTime();
}

BENCHMARK(BM_FrameworkRw)->Apply(shapes);
BENCHMARK(BM_SharedMutexBaseline)->Apply(shapes);
BENCHMARK(BM_ReservationProxyBuild)->Arg(16)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
