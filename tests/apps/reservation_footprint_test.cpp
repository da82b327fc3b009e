// Proves the DESIGN.md §4.6 seat layout's footprint as a test: a seat is a
// 4-byte holder id, so building a grid requests 4 B per seat; the calls a
// browsing client makes allocate nothing; and holder ids are recycled, so
// churning names through a seat leaves the heap where it was. It also
// bounds the allocations of wiring the proxy: its cells publish as one
// composition (DESIGN.md §9.2), not one per cell.
//
// The counters replace global operator new for this binary only, as in
// recovery_alloc_test. They track allocations, requested bytes and live
// bytes (malloc_usable_size), and refuse any request over kRefuseAbove with
// std::bad_alloc, so a grid that slips past the seat-count check fails at
// once instead of touching gigabytes.
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/reservation/reservation_proxy.hpp"
#include "apps/reservation/reservation_system.hpp"
#include "runtime/metrics.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_requested{0};
std::atomic<std::int64_t> g_live{0};
constexpr std::size_t kRefuseAbove = std::size_t{1} << 30;
// Wiring budgets (39 and 18 measured): a publish per cell, or a snapshot
// of per-method maps, blows through them (325 and 53).
constexpr std::uint64_t kBuildAllocs = 64;
constexpr std::uint64_t kRepublishAllocs = 24;

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  return p;
}

void uncount(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}
}  // namespace

// GCC pattern-matches new/delete pairs through the inlined replacements
// and objects to the malloc/free plumbing; the pairing here is exact
// (every new maps to malloc-family, every delete to free).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_requested.fetch_add(n, std::memory_order_relaxed);
  if (n > kRefuseAbove) throw std::bad_alloc();
  return counted(std::malloc(n ? n : 1));
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_requested.fetch_add(n, std::memory_order_relaxed);
  if (n > kRefuseAbove) throw std::bad_alloc();
  const auto a = static_cast<std::size_t>(al);
  return counted(std::aligned_alloc(a, (n + a - 1) & ~(a - 1)));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept {
  uncount(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}

#pragma GCC diagnostic pop

namespace amf::apps::reservation {
namespace {

TEST(ReservationFootprintTest, GridRequestsFourBytesPerSeat) {
  constexpr std::size_t kSide = 256;
  const std::uint64_t before = g_requested.load();
  ReservationSystem sys(kSide, kSide);
  const std::uint64_t requested = g_requested.load() - before;
  EXPECT_LE(requested, 4 * kSide * kSide + 4096)
      << "a " << kSide << " x " << kSide << " grid requested " << requested
      << " bytes";
  EXPECT_EQ(sys.available(), kSide * kSide);
  EXPECT_EQ(sys.holder({kSide - 1, kSide - 1}), std::nullopt);
}

TEST(ReservationFootprintTest, OversizedGridIsRefusedBeforeItAllocates) {
  // 2^32 seats: one more than 32-bit ids can count.
  const std::uint64_t before = g_requested.load();
  EXPECT_THROW(ReservationSystem(std::size_t{1} << 16, std::size_t{1} << 16),
               std::invalid_argument);
  // Only the exception's message may be allocated.
  EXPECT_LT(g_requested.load() - before, 1024u);
  // 2^32 - 1 seats pass the check; the 16 GiB request is then refused by
  // this binary's operator new.
  EXPECT_THROW(ReservationSystem(std::numeric_limits<std::uint32_t>::max(), 1),
               std::bad_alloc);
}

TEST(ReservationFootprintTest, BrowsingCallsAllocateNothing) {
  ReservationSystem sys(16, 16);
  const std::string ann = "ann";
  const std::string bob = "bob";
  ASSERT_TRUE(sys.reserve({0, 0}, ann));
  ASSERT_TRUE(sys.reserve({0, 1}, ann));
  ASSERT_TRUE(sys.reserve({1, 0}, bob));

  const std::uint64_t before = g_allocs.load();
  const std::size_t free_seats = sys.available();
  const std::optional<std::string> held = sys.holder({0, 0});
  const std::optional<std::string> free_seat = sys.holder({5, 5});
  const bool reserved = sys.reserve({0, 2}, ann);  // ann already holds seats
  const bool cancelled = sys.cancel({0, 1}, ann);  // ann keeps two seats
  const bool last = sys.cancel({1, 0}, bob);       // bob's id is freed
  const std::uint64_t allocs = g_allocs.load() - before;

  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(free_seats, 16u * 16u - 3u);
  EXPECT_EQ(held, "ann");
  EXPECT_EQ(free_seat, std::nullopt);
  EXPECT_TRUE(reserved);
  EXPECT_TRUE(cancelled);
  EXPECT_TRUE(last);
  EXPECT_EQ(sys.seats_of(ann), (std::vector<Seat>{{0, 0}, {0, 2}}));
  EXPECT_TRUE(sys.seats_of(bob).empty());
}

TEST(ReservationFootprintTest, NameChurnLeavesTheHeapWhereItWas) {
  ReservationSystem sys(4, 4);
  const std::int64_t before = g_live.load();
  for (int i = 0; i < 10'000; ++i) {
    // Every other name is past the string's inline buffer, so the holder
    // table and the name map both hold heap copies of it.
    const std::string who =
        (i % 2 == 0 ? "n" : "a-name-past-the-inline-buffer-") +
        std::to_string(i);
    ASSERT_TRUE(sys.reserve({1, 1}, who)) << who;
    ASSERT_TRUE(sys.cancel({1, 1}, who)) << who;
  }
  const std::int64_t grown = g_live.load() - before;
  EXPECT_LE(grown, 4096) << "10,000 names left " << grown << " live bytes";
  EXPECT_GE(grown, -4096);
  EXPECT_EQ(sys.available(), 16u);
}

TEST(ReservationFootprintTest, WiringPublishesOnceNotPerCell) {
  // Warm the process-wide interned ids and kinds first.
  {
    runtime::Registry warm;
    (void)make_reservation_proxy(16, 16, &warm);
  }
  runtime::Registry registry;
  const std::uint64_t before = g_allocs.load();
  auto proxy = make_reservation_proxy(16, 16, &registry);
  const std::uint64_t build = g_allocs.load() - before;
  // 8 cells over 3 methods: one publish for the kind order, one for the
  // cells.
  EXPECT_LE(build, kBuildAllocs) << "building the proxy allocated " << build
                                 << " times";

  const std::uint64_t mid = g_allocs.load();
  proxy->moderator().bank().republish();
  const std::uint64_t republish = g_allocs.load() - mid;
  // One record and one lock group per method: all three share the
  // readers-writer aspect.
  EXPECT_LE(republish, kRepublishAllocs)
      << "one republish allocated " << republish << " times";
}

}  // namespace
}  // namespace amf::apps::reservation
