// PersistenceAspect + durable app wirings: what gets logged, fail-stop
// fencing, snapshot/checkpoint round trips, replay idempotence, and the
// protocol trace staying G4-clean on a recovery run.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/auction/durable_auction.hpp"
#include "apps/ticket/durable_ticket.hpp"
#include "core/verify.hpp"
#include "runtime/event_log.hpp"
#include "runtime/fault.hpp"
#include "storage/codec.hpp"
#include "storage/storage.hpp"

namespace amf {
namespace {

namespace fs = std::filesystem;
using apps::ticket::DurableTicketApp;
using apps::ticket::Ticket;
using runtime::ErrorCode;
using runtime::FaultInjector;
using runtime::FaultPoint;
using runtime::Principal;

Principal named(std::string name) {
  Principal p;
  p.name = std::move(name);
  return p;
}

Ticket ticket(std::uint64_t id, std::string desc, std::string by) {
  Ticket t;
  t.id = id;
  t.description = std::move(desc);
  t.opened_by = std::move(by);
  return t;
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("amf_persist_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  /// Writes a log whose only record is `rec`, as a crashed process left it.
  void write_log_of(const storage::CommitRecord& rec) {
    auto storage = storage::FileStorage::open(dir(), storage::WalOptions{});
    ASSERT_TRUE(storage.ok());
    ASSERT_TRUE(storage.value()
                    ->append(storage::kCommitRecord,
                             storage::encode_commit(rec))
                    .ok());
    ASSERT_TRUE(storage.value()->sync().ok());
  }

  fs::path dir_;
};

TEST_F(PersistenceTest, WiringPublishesCellsAndPlansInOneEpoch) {
  auto app = DurableTicketApp::open(dir());
  ASSERT_TRUE(app.ok());
  const auto& bank = app.value()->proxy().moderator().bank();
  // The empty bank's epoch, the ticket wiring, the kind order, and the
  // durable cells with their plans.
  EXPECT_EQ(bank.version(), 4u);
  std::vector<runtime::MethodId> all{apps::ticket::open_method(),
                                     apps::ticket::assign_method(),
                                     apps::ticket::checkpoint_method()};
  std::sort(all.begin(), all.end());
  const auto composition = bank.composition();
  for (const auto m : all) {
    const core::MethodRecord& rec = composition->find(m);
    ASSERT_NE(rec.wake, nullptr);
    EXPECT_EQ(*rec.wake, all);
    EXPECT_TRUE(rec.woken);
  }
}

TEST_F(PersistenceTest, AuthenticationExtensionKeepsEveryDurableCell) {
  // extend_with_authentication orders {authentication, synchronization};
  // the durable app's exclusion and persistence kinds keep their places
  // after them instead of leaving the chains.
  runtime::CredentialStore store;
  auto app = DurableTicketApp::open(dir());
  ASSERT_TRUE(app.ok());
  auto& proxy = app.value()->proxy();
  apps::ticket::extend_with_authentication(proxy, store);
  const std::vector<runtime::AspectKind> want{
      runtime::kinds::authentication(), runtime::kinds::synchronization(),
      runtime::AspectKind::of("exclusion"), runtime::kinds::persistence()};
  for (const auto m :
       {apps::ticket::open_method(), apps::ticket::assign_method()}) {
    std::vector<runtime::AspectKind> kinds;
    for (const auto& e : *proxy.moderator().bank().chain(m)) {
      kinds.push_back(e.kind);
    }
    EXPECT_EQ(kinds, want) << m.name();
  }
}

TEST_F(PersistenceTest, TicketHistorySurvivesReopen) {
  {
    auto app = DurableTicketApp::open(dir());
    ASSERT_TRUE(app.ok()) << app.error().to_string();
    ASSERT_TRUE(
        app.value()->open_ticket(ticket(1, "printer on fire", "alice"),
                                 named("alice")).ok());
    ASSERT_TRUE(
        app.value()->open_ticket(ticket(2, "disk full", "bob"), named("bob"))
            .ok());
    ASSERT_TRUE(
        app.value()->open_ticket(ticket(3, "bgp flap", "eve"), named("eve"))
            .ok());
    auto assigned = app.value()->assign_ticket(named("oncall"));
    ASSERT_TRUE(assigned.ok());
    EXPECT_EQ(assigned.value->id, 1u);
    EXPECT_EQ(app.value()->persistence().appended(), 4u);
    ASSERT_TRUE(app.value()->sync().ok());
  }  // no clean shutdown beyond the destructor — recovery rebuilds

  auto app = DurableTicketApp::open(dir());
  ASSERT_TRUE(app.ok()) << app.error().to_string();
  // All four commits replayed, none re-logged.
  EXPECT_EQ(app.value()->recovery_stats().snapshot_lsn, 0u);
  EXPECT_EQ(app.value()->recovery_stats().replayed, 4u);
  EXPECT_EQ(app.value()->persistence().appended(), 0u);
  EXPECT_EQ(app.value()->persistence().replay_skipped(), 4u);
  // State continuous across incarnations.
  EXPECT_EQ(app.value()->pending(), 2u);
  EXPECT_EQ(app.value()->total_opened(), 3u);
  EXPECT_EQ(app.value()->total_assigned(), 1u);
  auto next = app.value()->assign_ticket(named("oncall"));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value->id, 2u) << "FIFO order must survive recovery";
  EXPECT_EQ(next.value->description, "disk full");
}

TEST_F(PersistenceTest, OnlyCommittedInvocationsAreLogged) {
  auto app = DurableTicketApp::open(dir());
  ASSERT_TRUE(app.ok());

  // An aborted call (assign against an empty buffer, tight deadline) never
  // reaches postaction with a successful body: no record.
  auto aborted = app.value()->proxy()
                     .call(apps::ticket::assign_method())
                     .within(std::chrono::milliseconds(5))
                     .run([](apps::ticket::TicketServer& s) {
                       return s.assign();
                     });
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(app.value()->persistence().appended(), 0u);

  // A failed body (exception) reaches postaction with body_succeeded()
  // false: still no record — recovery must not replay a non-effect.
  auto failed = app.value()->proxy()
                    .call(apps::ticket::open_method())
                    .run([](apps::ticket::TicketServer&) {
                      throw std::runtime_error("body blew up");
                    });
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status, core::InvocationStatus::kFailed);
  EXPECT_EQ(app.value()->persistence().appended(), 0u);

  // A committed call logs exactly one record.
  ASSERT_TRUE(
      app.value()->open_ticket(ticket(1, "real", "alice"), named("alice"))
          .ok());
  EXPECT_EQ(app.value()->persistence().appended(), 1u);
}

TEST_F(PersistenceTest, UnhealthyStorageFailsStop) {
  FaultInjector fault(11);
  DurableTicketApp::Options options;
  options.wal.sync_every = 1;
  options.wal.fault = &fault;
  auto app = DurableTicketApp::open(dir(), options);
  ASSERT_TRUE(app.ok());
  ASSERT_TRUE(
      app.value()->open_ticket(ticket(1, "ok", "alice"), named("alice")).ok());

  // The faulted append happens in postaction — the body already ran, so
  // that call still completes, but the failure is counted and the device
  // is fenced.
  fault.arm(FaultPoint::kIoError, 1.0);
  auto during = app.value()->open_ticket(ticket(2, "mid", "bob"), named("bob"));
  EXPECT_TRUE(during.ok());
  EXPECT_EQ(app.value()->persistence().append_failures(), 1u);
  EXPECT_FALSE(app.value()->storage().healthy());

  // Every LATER call is vetoed up front: running undurable while claiming
  // durability would be a lie.
  auto after = app.value()->open_ticket(ticket(3, "late", "eve"), named("eve"));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.error.code, ErrorCode::kUnavailable);
  EXPECT_EQ(app.value()->persistence().append_failures(), 1u)
      << "fenced calls must be refused before the body, not logged as "
         "append failures";
}

TEST_F(PersistenceTest, CheckpointCompactsAndRestores) {
  DurableTicketApp::Options options;
  options.wal.segment_bytes = 256;  // force segment turnover
  {
    auto app = DurableTicketApp::open(dir(), options);
    ASSERT_TRUE(app.ok());
    for (std::uint64_t i = 1; i <= 8; ++i) {
      ASSERT_TRUE(app.value()
                      ->open_ticket(ticket(i, "t" + std::to_string(i), "a"),
                                    named("alice"))
                      .ok());
    }
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(app.value()->assign_ticket(named("oncall")).ok());
    }
    auto checkpoint = app.value()->checkpoint();
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.error().to_string();
    EXPECT_EQ(checkpoint.value(), 13u);
    // Two more commits after the snapshot: the replay tail.
    ASSERT_TRUE(
        app.value()->open_ticket(ticket(9, "t9", "a"), named("alice")).ok());
    ASSERT_TRUE(app.value()->assign_ticket(named("oncall")).ok());
    ASSERT_TRUE(app.value()->sync().ok());
  }

  auto app = DurableTicketApp::open(dir(), options);
  ASSERT_TRUE(app.ok()) << app.error().to_string();
  EXPECT_EQ(app.value()->recovery_stats().snapshot_lsn, 13u);
  EXPECT_EQ(app.value()->recovery_stats().replayed, 2u)
      << "only the tail past the snapshot replays";
  EXPECT_EQ(app.value()->total_opened(), 9u);
  EXPECT_EQ(app.value()->total_assigned(), 6u);
  EXPECT_EQ(app.value()->pending(), 3u);
  auto next = app.value()->assign_ticket(named("oncall"));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value->id, 7u);
}

TEST_F(PersistenceTest, RecoveryIsIdempotentAcrossRepeatedReopens) {
  {
    auto app = DurableTicketApp::open(dir());
    ASSERT_TRUE(app.ok());
    for (std::uint64_t i = 1; i <= 4; ++i) {
      ASSERT_TRUE(
          app.value()->open_ticket(ticket(i, "t", "a"), named("a")).ok());
    }
    ASSERT_TRUE(app.value()->assign_ticket(named("oncall")).ok());
    ASSERT_TRUE(app.value()->sync().ok());
  }
  // Open/close the same directory repeatedly WITHOUT new traffic: replay
  // must not re-log, duplicate, or lose anything — the observable state is
  // a fixed point.
  for (int generation = 0; generation < 3; ++generation) {
    auto app = DurableTicketApp::open(dir());
    ASSERT_TRUE(app.ok()) << "generation " << generation << ": "
                          << app.error().to_string();
    EXPECT_EQ(app.value()->recovery_stats().replayed, 5u);
    EXPECT_EQ(app.value()->persistence().appended(), 0u);
    EXPECT_EQ(app.value()->total_opened(), 4u);
    EXPECT_EQ(app.value()->total_assigned(), 1u);
    EXPECT_EQ(app.value()->pending(), 3u);
  }
}

TEST_F(PersistenceTest, ReplayRunsThroughTheFullProtocol) {
  {
    auto app = DurableTicketApp::open(dir());
    ASSERT_TRUE(app.ok());
    for (std::uint64_t i = 1; i <= 3; ++i) {
      ASSERT_TRUE(
          app.value()->open_ticket(ticket(i, "t", "a"), named("a")).ok());
    }
    ASSERT_TRUE(app.value()->assign_ticket(named("oncall")).ok());
    ASSERT_TRUE(app.value()->sync().ok());
  }
  // Replayed calls go through the same moderated proxy as live ones, so
  // the recovery run itself must produce a protocol-conformant trace
  // (admissions paired with postactivations — G4 on replay).
  runtime::EventLog log;
  DurableTicketApp::Options options;
  options.moderator.log = &log;
  auto app = DurableTicketApp::open(dir(), options);
  ASSERT_TRUE(app.ok());
  EXPECT_EQ(app.value()->recovery_stats().replayed, 4u);
  const auto violations = core::TraceValidator::validate(log);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().description);
}

TEST_F(PersistenceTest, UnknownMethodInLogIsCorruption) {
  storage::CommitRecord bogus;
  bogus.invocation_id = 1;
  bogus.method = "drop_all_tables";
  write_log_of(bogus);
  auto app = DurableTicketApp::open(dir());
  ASSERT_FALSE(app.ok());
  EXPECT_EQ(app.error().code, ErrorCode::kCorrupted);
}

TEST_F(PersistenceTest, TicketReplayRejectsAMalformedIdNote) {
  // "12x" is not a ticket id: replay must refuse it as log damage rather
  // than open ticket 12.
  storage::CommitRecord open;
  open.invocation_id = 1;
  open.method = std::string(apps::ticket::open_method().name());
  open.principal = "a";
  open.notes = {{std::string(apps::ticket::kTicketIdNote), "12x"},
                {std::string(apps::ticket::kTicketDescNote), "t"},
                {std::string(apps::ticket::kTicketByNote), "a"}};
  write_log_of(open);
  auto app = DurableTicketApp::open(dir());
  ASSERT_FALSE(app.ok());
  EXPECT_EQ(app.error().code, ErrorCode::kCorrupted);
}

TEST_F(PersistenceTest, OutOfOrderTicketLogFailsAtOnce) {
  // An assign logged before any open cannot be re-run: replaying it would
  // block on an empty buffer, and nothing during recovery could release
  // it. Recovery must report the damage at once (DESIGN.md §15.5), not
  // after waiting out the replay deadline.
  storage::CommitRecord assign;
  assign.invocation_id = 1;
  assign.method = std::string(apps::ticket::assign_method().name());
  assign.principal = "oncall";
  write_log_of(assign);
  DurableTicketApp::Options options;
  const auto t0 = std::chrono::steady_clock::now();
  auto app = DurableTicketApp::open(dir(), options);
  const auto took = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(app.ok());
  EXPECT_EQ(app.error().code, ErrorCode::kCorrupted);
  EXPECT_LT(took, options.replay_deadline / 5)
      << "open() took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(took).count()
      << " ms to reject the log";
}

TEST_F(PersistenceTest, AuctionReplayRejectsAMalformedReserveNote) {
  using apps::auction::DurableAuctionApp;
  // "12x" is not a reserve price: no item may be listed at 12.
  storage::CommitRecord list;
  list.invocation_id = 1;
  list.method = std::string(apps::auction::list_method().name());
  list.principal = "alice";
  list.notes = {{std::string(apps::auction::kTitleNote), "lamp"},
                {std::string(apps::auction::kReserveNote), "12x"}};
  write_log_of(list);
  auto app = DurableAuctionApp::open(dir());
  ASSERT_FALSE(app.ok());
  EXPECT_EQ(app.error().code, ErrorCode::kCorrupted);
}

TEST_F(PersistenceTest, AuctionHistorySurvivesReopenAndCheckpoint) {
  using apps::auction::DurableAuctionApp;
  {
    auto app = DurableAuctionApp::open(dir());
    ASSERT_TRUE(app.ok()) << app.error().to_string();
    auto lamp = app.value()->list_item("art deco lamp", 100, named("alice"));
    ASSERT_TRUE(lamp.ok());
    auto clock = app.value()->list_item("mantel clock", 50, named("bob"));
    ASSERT_TRUE(clock.ok());
    ASSERT_TRUE(app.value()->place_bid(*lamp.value, 120, named("carol")).ok());
    ASSERT_TRUE(app.value()->place_bid(*lamp.value, 150, named("dave")).ok());
    auto sale = app.value()->close_auction(*lamp.value, named("alice"));
    ASSERT_TRUE(sale.ok());
    EXPECT_TRUE(sale.value->reserve_met);
    EXPECT_EQ(sale.value->winner, "dave");
    ASSERT_TRUE(app.value()->sync().ok());
  }

  {
    auto app = DurableAuctionApp::open(dir());
    ASSERT_TRUE(app.ok()) << app.error().to_string();
    EXPECT_EQ(app.value()->recovery_stats().replayed, 5u);
    const auto lamp = app.value()->house().item(1);
    ASSERT_TRUE(lamp.has_value());
    EXPECT_TRUE(lamp->closed);
    EXPECT_EQ(lamp->highest_bid, 150);
    EXPECT_EQ(lamp->highest_bidder, "dave");
    const auto clock = app.value()->house().item(2);
    ASSERT_TRUE(clock.has_value());
    EXPECT_FALSE(clock->closed);
    // Checkpoint, add post-snapshot traffic, and crash again.
    auto checkpoint = app.value()->checkpoint();
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.error().to_string();
    ASSERT_TRUE(app.value()->place_bid(2, 75, named("erin")).ok());
    ASSERT_TRUE(app.value()->sync().ok());
  }

  auto app = DurableAuctionApp::open(dir());
  ASSERT_TRUE(app.ok()) << app.error().to_string();
  EXPECT_EQ(app.value()->recovery_stats().replayed, 1u)
      << "only the post-snapshot bid replays";
  const auto clock = app.value()->house().item(2);
  ASSERT_TRUE(clock.has_value());
  EXPECT_EQ(clock->highest_bid, 75);
  EXPECT_EQ(clock->highest_bidder, "erin");
  const auto lamp = app.value()->house().item(1);
  ASSERT_TRUE(lamp.has_value());
  EXPECT_TRUE(lamp->closed) << "snapshot must preserve the closed sale";
}

TEST_F(PersistenceTest, AsyncAssignStormDrainsDurablyAndSurvivesReopen) {
  // Ticket storm on the async path (DESIGN.md §18): a batch of assigns
  // parks against the empty buffer with no thread held per call; each
  // durable open's postactivation hands the parked batch back to this
  // thread's persona, which re-admits exactly as many as there are items.
  // Every admitted async call must hit the WAL like a sync one.
  constexpr int kStorm = 24;
  {
    auto app = DurableTicketApp::open(dir());
    ASSERT_TRUE(app.ok()) << app.error().to_string();

    std::deque<DurableTicketApp::AsyncAssignCall> slab;
    std::vector<concurrency::Future<DurableTicketApp::AsyncAssignCall::Result>>
        futures;
    for (int i = 0; i < kStorm; ++i) {
      auto& call = app.value()->assign_ticket_async(slab, named("oncall"));
      futures.push_back(call.future());
    }
    EXPECT_EQ(app.value()->proxy().moderator().async_parked(), kStorm)
        << "assigns against an empty buffer must all park";
    EXPECT_EQ(app.value()->persistence().appended(), 0u);

    for (int i = 0; i < kStorm; ++i) {
      ASSERT_TRUE(app.value()
                      ->open_ticket(ticket(static_cast<std::uint64_t>(i + 1),
                                           "storm", "alice"),
                                    named("alice"))
                      .ok());
      // Exactly one more parked assign can complete per opened ticket.
      concurrency::progress_until([&] {
        return futures[static_cast<std::size_t>(i)].ready();
      });
    }
    for (int i = 0; i < kStorm; ++i) {
      auto& result = futures[static_cast<std::size_t>(i)].value();
      ASSERT_TRUE(result.ok()) << result.error.to_string();
      EXPECT_EQ(result.value->id, static_cast<std::uint64_t>(i + 1))
          << "parked assigns must drain in FIFO order";
    }
    EXPECT_EQ(app.value()->proxy().moderator().async_parked(), 0);
    EXPECT_EQ(app.value()->persistence().appended(),
              static_cast<std::uint64_t>(2 * kStorm));
    ASSERT_TRUE(app.value()->sync().ok());
  }

  auto app = DurableTicketApp::open(dir());
  ASSERT_TRUE(app.ok()) << app.error().to_string();
  EXPECT_EQ(app.value()->recovery_stats().replayed,
            static_cast<std::uint64_t>(2 * kStorm));
  EXPECT_EQ(app.value()->pending(), 0u);
  EXPECT_EQ(app.value()->total_opened(), static_cast<std::uint64_t>(kStorm));
  EXPECT_EQ(app.value()->total_assigned(),
            static_cast<std::uint64_t>(kStorm));
}

}  // namespace
}  // namespace amf
