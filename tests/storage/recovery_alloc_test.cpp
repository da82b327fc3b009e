// Proves the DESIGN.md §15.5 bounded-memory claim as a test: recovery
// streams the log. A scan or a recovery pass allocates a fixed number of
// times (directory listing, one segment buffer, one reused record), so a
// 4096-record log costs the same allocations as a 64-record one. The same
// holds for DurableTicketApp::open, which replays every record through the
// moderated proxy inside an exclusive phase: a replayed call allocates
// nothing.
//
// The counter replaces global operator new for this binary only, as in
// hotpath_alloc_test. gtest and the log writer allocate freely, so the
// counter brackets exactly the scan or recover call.
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "apps/ticket/durable_ticket.hpp"
#include "storage/codec.hpp"
#include "storage/recovery.hpp"
#include "storage/storage.hpp"
#include "storage/wal.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// GCC pattern-matches new/delete pairs through the inlined replacements
// and objects to the malloc/free plumbing; the pairing here is exact
// (every new maps to malloc-family, every delete to free).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

namespace amf::storage {
namespace {

namespace fs = std::filesystem;
using runtime::Result;

constexpr std::uint64_t kSmall = 64;
constexpr std::uint64_t kLarge = 4096;
// Allocations may differ by this much between the two log sizes: one
// record's strings outgrowing the previous ones, never one per record.
constexpr std::uint64_t kSlack = 8;

std::uint64_t spread(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

class RecoveryAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("amf_recovery_alloc_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A fresh log directory holding `n` ticket-shaped commit records. Note
  /// values are fixed-width and longer than the small-string buffer, so
  /// decoding them would allocate per record unless capacity is reused.
  std::string write_log(std::uint64_t n) {
    const std::string dir = (dir_ / std::to_string(n)).string();
    WalOptions options;
    options.sync_every = 64;
    auto wal = Wal::open(dir, options);
    EXPECT_TRUE(wal.ok()) << wal.error().to_string();
    CommitRecord rec;
    rec.method = "open";
    rec.principal = "operator-on-the-night-shift";
    for (std::uint64_t i = 1; i <= n; ++i) {
      char id[32];
      std::snprintf(id, sizeof id, "ticket-%020llu",
                    static_cast<unsigned long long>(i));
      rec.invocation_id = i;
      rec.notes = {{"ticket.id", id},
                   {"ticket.description", "printer on fire in the copy room"},
                   {"ticket.opened_by", "operator-on-the-night-shift"}};
      EXPECT_TRUE(wal.value()->append(kCommitRecord, encode_commit(rec)).ok());
    }
    EXPECT_TRUE(wal.value()->sync().ok());
    return dir;
  }

  fs::path dir_;
};

/// Allocations made by one Wal::scan of `dir` with a no-op callback.
std::uint64_t scan_allocs(const std::string& dir, std::uint64_t expect) {
  std::uint64_t seen = 0;
  const std::function<Result<void>(const WalRecord&)> fn =
      [&seen](const WalRecord&) -> Result<void> {
    ++seen;
    return {};
  };
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  auto scanned = Wal::scan(dir, 0, fn);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(scanned.ok()) << scanned.error().to_string();
  EXPECT_EQ(seen, expect);
  return allocs;
}

/// Allocations made by one Recovery::recover over `dir` with no-op
/// restore and apply (storage opened outside the measured window).
std::uint64_t recover_allocs(const std::string& dir, std::uint64_t expect) {
  auto storage = FileStorage::open(dir, WalOptions{});
  EXPECT_TRUE(storage.ok()) << storage.error().to_string();
  std::uint64_t applied = 0;
  const Recovery::Restore restore = [](std::string_view) -> Result<void> {
    return {};
  };
  const Recovery::Apply apply = [&applied](Lsn,
                                           const CommitView& rec) -> Result<void> {
    if (rec.notes.size() == 3) ++applied;
    return {};
  };
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  auto recovered = Recovery::recover(*storage.value(), restore, apply);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(recovered.value().replayed, expect);
  EXPECT_EQ(applied, expect);
  return allocs;
}

/// A fresh directory holding a ticket log of `n` commits, written by the
/// durable app itself. Opens and assigns alternate, so replay never blocks,
/// and every string fits the small-string buffer: the count then isolates
/// the replay path from the component's own copies of long strings.
std::string write_ticket_log(const fs::path& root, std::uint64_t n) {
  const std::string dir = (root / ("tickets-" + std::to_string(n))).string();
  auto app = apps::ticket::DurableTicketApp::open(dir);
  EXPECT_TRUE(app.ok()) << app.error().to_string();
  apps::ticket::Ticket t;
  t.description = "printer jam";
  t.opened_by = "night shift";
  for (std::uint64_t i = 1; i <= n; ++i) {
    if (i % 2 == 1) {
      t.id = i;
      EXPECT_TRUE(app.value()->open_ticket(t).ok());
    } else {
      EXPECT_TRUE(app.value()->assign_ticket().ok());
    }
  }
  EXPECT_TRUE(app.value()->sync().ok());
  return dir;
}

/// Allocations made by one DurableTicketApp::open over `dir`: storage,
/// proxy, composition, and the replay of every record through the proxy.
std::uint64_t ticket_open_allocs(const std::string& dir, std::uint64_t expect) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  auto app = apps::ticket::DurableTicketApp::open(dir);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(app.ok()) << app.error().to_string();
  EXPECT_EQ(app.value()->recovery_stats().replayed, expect);
  return allocs;
}

TEST_F(RecoveryAllocTest, ScanAllocationsDoNotGrowWithTheLog) {
  const std::string small = write_log(kSmall);
  const std::string large = write_log(kLarge);
  const std::uint64_t a_small = scan_allocs(small, kSmall);
  const std::uint64_t a_large = scan_allocs(large, kLarge);
  EXPECT_LE(spread(a_small, a_large), kSlack)
      << "scan allocated " << a_small << " times for " << kSmall
      << " records and " << a_large << " times for " << kLarge;
}

TEST_F(RecoveryAllocTest, RecoverAllocationsDoNotGrowWithTheLog) {
  const std::string small = write_log(kSmall);
  const std::string large = write_log(kLarge);
  const std::uint64_t a_small = recover_allocs(small, kSmall);
  const std::uint64_t a_large = recover_allocs(large, kLarge);
  EXPECT_LE(spread(a_small, a_large), kSlack)
      << "recover allocated " << a_small << " times for " << kSmall
      << " records and " << a_large << " times for " << kLarge;
}

TEST_F(RecoveryAllocTest, TicketAppReplayAllocatesNothingPerRecord) {
  const std::string small = write_ticket_log(dir_, kSmall);
  const std::string large = write_ticket_log(dir_, kLarge);
  const std::uint64_t a_small = ticket_open_allocs(small, kSmall);
  const std::uint64_t a_large = ticket_open_allocs(large, kLarge);
  EXPECT_LE(spread(a_small, a_large), kSlack)
      << "DurableTicketApp::open allocated " << a_small << " times for "
      << kSmall << " commits and " << a_large << " times for " << kLarge;
}

}  // namespace
}  // namespace amf::storage
