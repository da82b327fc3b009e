// E16 — The price of durability (EXPERIMENTS.md).
//
// The persistence aspect's pitch is that a component gains a write-ahead
// log purely by bank composition. The honest question is what that costs
// on the moderated hot path. Four series answer it:
//
//   ticket_no_persist    — the durable ticket wiring MINUS the persistence
//                          aspect (same exclusion serialization, so the
//                          delta is the aspect, not the extra lock): the
//                          "before" baseline.
//   ticket_persist_batch — persistence with group commit (sync_every = 64):
//                          the deployment configuration. Each op pays
//                          encode + CRC + memcpy; the write()+fsync() pair
//                          amortizes over 64 commits.
//   ticket_persist_sync  — persistence with sync_every = 1: every commit
//                          fsyncs before the call returns. This is the
//                          strict-durability ceiling and is storage-bound;
//                          expect 10–100× the batched number on real disks.
//   wal_append           — the raw storage substrate alone (append to a
//                          Wal with sync_every = 64, no moderation): how
//                          much of the persistence delta is the log itself
//                          vs. the aspect plumbing around it.
//   recovery_replay      — full open+replay of a 4k-commit log, per
//                          recovered commit: the crash-restart cost.
//   crc32c               — the frame checksum alone over a 64 KiB buffer
//                          (items = bytes): what open and replay pay per
//                          byte of log scanned, on the path crc32c_extend
//                          dispatches to (SSE4.2 where CPUID has it).
//   crc32c_portable      — the same buffer through the slice-by-8 fallback:
//                          the dispatch's same-run reference.
//
// Each ticket series alternates open/assign so the buffer never fills and
// admission never blocks — the numbers isolate the persistence delta, not
// backpressure.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "apps/ticket/durable_ticket.hpp"
#include "apps/ticket/ticket_proxy.hpp"
#include "aspects/synchronization.hpp"
#include "storage/crc32c.hpp"
#include "storage/wal.hpp"

namespace {

namespace fs = std::filesystem;
using namespace amf;
using apps::ticket::DurableTicketApp;
using apps::ticket::Ticket;

std::string fresh_dir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() / ("amf_bench_persist_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

Ticket bench_ticket(std::uint64_t id) {
  Ticket t;
  t.id = id;
  t.description = "bench ticket payload";
  t.opened_by = "bench";
  return t;
}

/// The durable wiring minus persistence: same proxy, same exclusion
/// aspect serializing the writers, no WAL. Isolates the aspect's cost
/// from the serialization it requires.
std::shared_ptr<apps::ticket::TicketProxy> no_persist_proxy(
    std::size_t capacity) {
  auto proxy = apps::ticket::make_ticket_proxy(capacity, {});
  auto& moderator = proxy->moderator();
  moderator.bank().set_kind_order({runtime::kinds::synchronization(),
                                   runtime::AspectKind::of("exclusion")});
  auto exclusion = std::make_shared<aspects::ReadersWriterAspect>();
  exclusion->add_writer(apps::ticket::open_method());
  exclusion->add_writer(apps::ticket::assign_method());
  for (const auto m :
       {apps::ticket::open_method(), apps::ticket::assign_method()}) {
    moderator.register_aspect(m, runtime::AspectKind::of("exclusion"),
                              exclusion);
  }
  return proxy;
}

void BM_TicketNoPersist(benchmark::State& state) {
  auto proxy = no_persist_proxy(64);
  std::uint64_t id = 0;
  bool assign = false;
  for (auto _ : state) {
    if (assign) {
      auto r = proxy->call(apps::ticket::assign_method())
                   .run([](apps::ticket::TicketServer& s) {
                     return s.assign();
                   });
      benchmark::DoNotOptimize(r);
    } else {
      const Ticket t = bench_ticket(++id);
      auto r = proxy->call(apps::ticket::open_method())
                   .run([&t](apps::ticket::TicketServer& s) { s.open(t); });
      benchmark::DoNotOptimize(r);
    }
    assign = !assign;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TicketNoPersist);

void run_durable(benchmark::State& state, std::size_t sync_every,
                 const std::string& tag) {
  const std::string dir = fresh_dir(tag);
  DurableTicketApp::Options options;
  options.capacity = 64;
  options.wal.sync_every = sync_every;
  auto app = DurableTicketApp::open(dir, options);
  if (!app.ok()) {
    state.SkipWithError(app.error().to_string().c_str());
    return;
  }
  std::uint64_t id = 0;
  bool assign = false;
  for (auto _ : state) {
    if (assign) {
      auto r = app.value()->assign_ticket();
      benchmark::DoNotOptimize(r);
    } else {
      auto r = app.value()->open_ticket(bench_ticket(++id));
      benchmark::DoNotOptimize(r);
    }
    assign = !assign;
  }
  state.SetItemsProcessed(state.iterations());
  app.value().reset();
  fs::remove_all(dir);
}

void BM_TicketPersistBatched(benchmark::State& state) {
  run_durable(state, 64, "batched");
}
BENCHMARK(BM_TicketPersistBatched);

void BM_TicketPersistSyncEach(benchmark::State& state) {
  run_durable(state, 1, "synceach");
}
BENCHMARK(BM_TicketPersistSyncEach);

void BM_WalAppend(benchmark::State& state) {
  const std::string dir = fresh_dir("rawwal");
  storage::WalOptions options;
  options.sync_every = 64;
  auto wal = storage::Wal::open(dir, options);
  if (!wal.ok()) {
    state.SkipWithError(wal.error().to_string().c_str());
    return;
  }
  const std::string payload(96, 'x');  // a typical commit-record size
  for (auto _ : state) {
    auto lsn = wal.value()->append(1, payload);
    benchmark::DoNotOptimize(lsn);
  }
  state.SetItemsProcessed(state.iterations());
  wal.value().reset();
  fs::remove_all(dir);
}
BENCHMARK(BM_WalAppend);

void BM_RecoveryReplay(benchmark::State& state) {
  // Build one 4096-commit log, then measure full open+replay per commit.
  constexpr std::uint64_t kCommits = 4096;
  const std::string dir = fresh_dir("replay");
  {
    DurableTicketApp::Options options;
    options.capacity = 64;
    auto app = DurableTicketApp::open(dir, options);
    if (!app.ok()) {
      state.SkipWithError(app.error().to_string().c_str());
      return;
    }
    std::uint64_t id = 0;
    for (std::uint64_t i = 0; i < kCommits; ++i) {
      if (i % 2 == 0) {
        (void)app.value()->open_ticket(bench_ticket(++id));
      } else {
        (void)app.value()->assign_ticket();
      }
    }
    (void)app.value()->sync();
  }
  for (auto _ : state) {
    DurableTicketApp::Options options;
    options.capacity = 64;
    auto app = DurableTicketApp::open(dir, options);
    if (!app.ok()) {
      state.SkipWithError(app.error().to_string().c_str());
      return;
    }
    benchmark::DoNotOptimize(app.value()->recovery_stats().replayed);
  }
  state.SetItemsProcessed(state.iterations() * kCommits);
  fs::remove_all(dir);
}
BENCHMARK(BM_RecoveryReplay);

void crc32c_rate(benchmark::State& state,
                 std::uint32_t (*extend)(std::uint32_t, const void*,
                                         std::size_t)) {
  std::vector<unsigned char> data(64u << 10);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(i * 31 + 7);
  }
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = extend(crc, data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  // Items are bytes, so the snapshot's items_per_second is the byte rate.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}

void BM_Crc32c(benchmark::State& state) {
  state.SetLabel(storage::crc32c_hardware() ? "sse4.2" : "portable");
  crc32c_rate(state, &storage::crc32c_extend);
}
BENCHMARK(BM_Crc32c);

void BM_Crc32cPortable(benchmark::State& state) {
  crc32c_rate(state, &storage::crc32c_extend_portable);
}
BENCHMARK(BM_Crc32cPortable);

}  // namespace

BENCHMARK_MAIN();
