#include "apps/reservation/reservation_proxy.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/random.hpp"

namespace amf::apps::reservation {

// Failure messages print seats as (row, col), not as raw bytes.
void PrintTo(const Seat& seat, std::ostream* os) {
  *os << "(" << seat.row << ", " << seat.col << ")";
}

namespace {

TEST(ReservationSystemTest, ReserveAndCancel) {
  ReservationSystem sys(2, 2);
  EXPECT_EQ(sys.available(), 4u);
  EXPECT_TRUE(sys.reserve({0, 0}, "ann"));
  EXPECT_FALSE(sys.reserve({0, 0}, "bob"));  // taken
  EXPECT_EQ(sys.available(), 3u);
  EXPECT_EQ(sys.holder({0, 0}), "ann");
  EXPECT_FALSE(sys.cancel({0, 0}, "bob"));  // not the holder
  EXPECT_TRUE(sys.cancel({0, 0}, "ann"));
  EXPECT_EQ(sys.available(), 4u);
  EXPECT_EQ(sys.holder({0, 0}), std::nullopt);
}

TEST(ReservationSystemTest, SeatsOfLists) {
  ReservationSystem sys(3, 3);
  ASSERT_TRUE(sys.reserve({0, 1}, "ann"));
  ASSERT_TRUE(sys.reserve({2, 2}, "ann"));
  ASSERT_TRUE(sys.reserve({1, 1}, "bob"));
  const auto seats = sys.seats_of("ann");
  ASSERT_EQ(seats.size(), 2u);
  EXPECT_EQ(seats[0], (Seat{0, 1}));
  EXPECT_EQ(seats[1], (Seat{2, 2}));
}

TEST(ReservationSystemTest, OutOfRangeThrows) {
  ReservationSystem sys(2, 2);
  EXPECT_THROW(sys.reserve({5, 0}, "x"), std::out_of_range);
  EXPECT_THROW((void)sys.holder({0, 9}), std::out_of_range);
  EXPECT_THROW(ReservationSystem(0, 3), std::invalid_argument);
  // rows * cols wraps to 0 in 64 bits: refused, not a zero-seat grid.
  EXPECT_THROW(ReservationSystem(std::size_t{1} << 33, std::size_t{1} << 31),
               std::invalid_argument);
}

// The seat layout's holder table (DESIGN.md §4.6): ids name holders, and a
// holder's id is recycled once its last seat is cancelled.
TEST(ReservationSystemTest, HolderIdsFollowTheirNames) {
  ReservationSystem sys(2, 2);
  // A seat cancelled by one name and reserved by another reports the new
  // name.
  ASSERT_TRUE(sys.reserve({0, 0}, "ann"));
  ASSERT_TRUE(sys.cancel({0, 0}, "ann"));
  ASSERT_TRUE(sys.reserve({0, 0}, "bob"));
  EXPECT_EQ(sys.holder({0, 0}), "bob");
  EXPECT_FALSE(sys.cancel({0, 0}, "ann"));

  // A name never seen cancels nothing and holds nothing.
  EXPECT_FALSE(sys.cancel({0, 0}, "stranger"));
  EXPECT_FALSE(sys.cancel({1, 1}, "stranger"));
  EXPECT_TRUE(sys.seats_of("stranger").empty());

  // bob's last seat goes and its id is recycled by cal; bob, reserving
  // again, holds only the new seat, not cal's.
  ASSERT_TRUE(sys.cancel({0, 0}, "bob"));
  ASSERT_TRUE(sys.reserve({0, 1}, "cal"));
  ASSERT_TRUE(sys.reserve({1, 0}, "bob"));
  EXPECT_EQ(sys.seats_of("bob"), (std::vector<Seat>{{1, 0}}));
  EXPECT_EQ(sys.seats_of("cal"), (std::vector<Seat>{{0, 1}}));
  EXPECT_EQ(sys.holder({0, 1}), "cal");
  EXPECT_EQ(sys.holder({0, 0}), std::nullopt);
  EXPECT_EQ(sys.available(), 2u);

  // The empty name holds a seat like any other name.
  ASSERT_TRUE(sys.reserve({1, 1}, ""));
  EXPECT_FALSE(sys.reserve({1, 1}, "ann"));
  EXPECT_EQ(sys.holder({1, 1}), "");
  EXPECT_EQ(sys.available(), 1u);
  EXPECT_EQ(sys.seats_of(""), (std::vector<Seat>{{1, 1}}));
  EXPECT_TRUE(sys.cancel({1, 1}, ""));
  EXPECT_EQ(sys.available(), 2u);
}

// Seeded random reserve/cancel/holder/seats_of/available calls against a
// std::map model of the grid. Names mix short ones, long ones (past the
// string's inline buffer) and the empty name, so ids are recycled between
// names of every kind.
class ReservationModelSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ReservationModelSweep, AgreesWithAMapOfSeats) {
  constexpr std::size_t kRows = 8, kCols = 8;
  constexpr int kSteps = 25'000;
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  std::vector<std::string> names{""};
  for (int i = 1; i < 60; ++i) {
    names.push_back(i % 4 == 0 ? "a-name-past-the-inline-buffer-" +
                                     std::to_string(i)
                               : "n" + std::to_string(i));
  }
  ReservationSystem sys(kRows, kCols);
  std::map<std::size_t, std::string> model;  // row-major index -> holder
  runtime::Rng rng(seed);
  for (int step = 0; step < kSteps; ++step) {
    const std::size_t at = rng.uniform_int(0, kRows * kCols - 1);
    const Seat seat{at / kCols, at % kCols};
    const auto held = model.find(at);
    // On a held seat, half of the calls name its holder, so cancels and
    // seats_of calls hit as well as miss.
    const std::string& who =
        held != model.end() && rng.bernoulli(0.5)
            ? held->second
            : names[rng.uniform_int(0, names.size() - 1)];
    switch (rng.uniform_int(0, 4)) {
      case 0:
      case 1: {
        const bool expected = held == model.end();
        ASSERT_EQ(sys.reserve(seat, who), expected)
            << "step " << step << ": reserve " << at << " by '" << who << "'";
        if (expected) model.emplace(at, who);
        break;
      }
      case 2: {
        const bool expected = held != model.end() && held->second == who;
        ASSERT_EQ(sys.cancel(seat, who), expected)
            << "step " << step << ": cancel " << at << " by '" << who << "'";
        if (expected) model.erase(held);
        break;
      }
      case 3: {
        const auto expected = held == model.end()
                                  ? std::nullopt
                                  : std::optional<std::string>(held->second);
        ASSERT_EQ(sys.holder(seat), expected)
            << "step " << step << ": holder " << at;
        break;
      }
      default: {
        std::vector<Seat> expected;
        for (const auto& [index, name] : model) {
          if (name == who) {
            expected.push_back(Seat{index / kCols, index % kCols});
          }
        }
        ASSERT_EQ(sys.seats_of(who), expected)
            << "step " << step << ": seats_of '" << who << "'";
        break;
      }
    }
    ASSERT_EQ(sys.available(), kRows * kCols - model.size())
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReservationModelSweep,
                         ::testing::Values(1u, 42u, 777u, 31337u));

TEST(ReservationProxyTest, WiringRegistersAspects) {
  auto proxy = make_reservation_proxy(2, 2);
  const auto& bank = proxy->moderator().bank();
  EXPECT_NE(bank.find(reserve_method(), runtime::kinds::scheduling()),
            nullptr);
  EXPECT_NE(bank.find(reserve_method(), runtime::kinds::synchronization()),
            nullptr);
  EXPECT_NE(bank.find(query_method(), runtime::kinds::synchronization()),
            nullptr);
  // No metrics registry passed: no timing aspect.
  EXPECT_EQ(bank.find(reserve_method(), runtime::kinds::timing()), nullptr);
}

TEST(ReservationProxyTest, EverySuccessfulReserveOwnsOneSeat) {
  auto proxy = make_reservation_proxy(8, 8);
  constexpr int kClients = 6;
  std::atomic<int> accepted{0};
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const std::string who = "c" + std::to_string(c);
        for (std::size_t r = 0; r < 8; ++r) {
          for (std::size_t col = 0; col < 8; ++col) {
            auto res = proxy->invoke(
                reserve_method(), [&](ReservationSystem& sys) {
                  return sys.reserve({r, col}, who);
                });
            if (res.ok() && *res.value) accepted.fetch_add(1);
          }
        }
      });
    }
  }
  // Exactly 64 seats exist; every seat accepted exactly one claimant.
  EXPECT_EQ(accepted.load(), 64);
  auto avail = proxy->invoke(query_method(), [](ReservationSystem& sys) {
    return sys.available();
  });
  EXPECT_EQ(avail.value.value(), 0u);
}

TEST(ReservationProxyTest, CancelFreesForOthers) {
  auto proxy = make_reservation_proxy(2, 2);
  ASSERT_TRUE(proxy->invoke(reserve_method(), [](ReservationSystem& s) {
                return s.reserve({1, 1}, "ann");
              }).value.value());
  ASSERT_TRUE(proxy->invoke(cancel_method(), [](ReservationSystem& s) {
                return s.cancel({1, 1}, "ann");
              }).value.value());
  EXPECT_TRUE(proxy->invoke(reserve_method(), [](ReservationSystem& s) {
                return s.reserve({1, 1}, "bob");
              }).value.value());
}

TEST(ReservationProxyTest, TimingAspectFillsRegistry) {
  runtime::Registry metrics;
  auto proxy = make_reservation_proxy(2, 2, &metrics);
  for (int i = 0; i < 10; ++i) {
    (void)proxy->invoke(query_method(), [](ReservationSystem& s) {
      return s.available();
    });
  }
  EXPECT_EQ(metrics.histogram("reservation.query.service_ns").count(), 10u);
}

TEST(ReservationProxyTest, QueriesRunConcurrently) {
  auto proxy = make_reservation_proxy(4, 4);
  std::atomic<int> concurrent{0};
  std::atomic<int> max_seen{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 20; ++i) {
          (void)proxy->invoke(query_method(), [&](ReservationSystem& s) {
            const int now = concurrent.fetch_add(1) + 1;
            int prev = max_seen.load();
            while (prev < now &&
                   !max_seen.compare_exchange_weak(prev, now)) {
            }
            std::this_thread::sleep_for(std::chrono::microseconds(300));
            concurrent.fetch_sub(1);
            return s.available();
          });
        }
      });
    }
  }
  EXPECT_GE(max_seen.load(), 2) << "readers must overlap";
}

}  // namespace
}  // namespace amf::apps::reservation
