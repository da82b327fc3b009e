// Tests for the optimistic read-side admission fast path (DESIGN.md §11).
//
// What must hold:
//   * non-blocking chains (every aspect declares the capability, no plan
//     names the method) admit AND complete without the shard mutex — the
//     fast counters prove engagement,
//   * any blocking aspect, plan membership, or a blocked waiter anywhere
//     pushes the invocation back onto the locked slow path (the no-plan
//     completion contract is a broadcast: a fast completion must never
//     strand a sleeper),
//   * recomposition and quarantine stay safe while readers race through
//     the optimistic path: no guard or entry ever observes an aspect that
//     was retired by a completed recompose, and G4 entry/postaction
//     pairing holds for every aspect under the hammer,
//   * grouped readers-writer moderation keeps its exclusion invariant even
//     when reader admissions go lock-free (the writer's raised `lockers`
//     defeats optimistic validation).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aspects/observability.hpp"
#include "aspects/synchronization.hpp"
#include "core/aspect.hpp"
#include "core/moderator.hpp"

namespace amf::core {
namespace {

using runtime::AspectKind;
using runtime::MethodId;

/// Fast-capable aspect that counts every hook invocation and records a
/// violation when a guard or entry runs after the aspect was retired from
/// the composition (postactions are exempt: G4 pairs them with entries
/// that committed before retirement).
class ProbeFastAspect final : public Aspect {
 public:
  explicit ProbeFastAspect(std::string name) : name_(std::move(name)) {}

  std::string_view name() const override { return name_; }
  bool nonblocking(runtime::MethodId) const override { return true; }

  Decision precondition(InvocationContext&) override {
    if (retired_.load(std::memory_order_seq_cst)) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
    guards_.fetch_add(1, std::memory_order_relaxed);
    return Decision::kResume;
  }
  void entry(InvocationContext&) override {
    if (retired_.load(std::memory_order_seq_cst)) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
    entries_.fetch_add(1, std::memory_order_relaxed);
  }
  void postaction(InvocationContext&) override {
    posts_.fetch_add(1, std::memory_order_relaxed);
  }

  void set_retired(bool retired) {
    retired_.store(retired, std::memory_order_seq_cst);
  }
  std::uint64_t guards() const { return guards_.load(); }
  std::uint64_t entries() const { return entries_.load(); }
  std::uint64_t posts() const { return posts_.load(); }
  std::uint64_t violations() const { return violations_.load(); }

 private:
  std::string name_;
  std::atomic<bool> retired_{false};
  std::atomic<std::uint64_t> guards_{0};
  std::atomic<std::uint64_t> entries_{0};
  std::atomic<std::uint64_t> posts_{0};
  std::atomic<std::uint64_t> violations_{0};
};

/// Quarantine-policy guard that throws while poisoned. Declared fast-
/// capable so faults can trip ON the optimistic path.
class PoisonableGuard final : public Aspect {
 public:
  std::string_view name() const override { return "poisonable"; }
  bool nonblocking(runtime::MethodId) const override { return true; }
  FaultPolicy fault_policy() const override {
    return FaultPolicy::quarantine(3);
  }

  Decision precondition(InvocationContext&) override {
    guards_.fetch_add(1, std::memory_order_relaxed);
    if (poisoned_.load(std::memory_order_relaxed)) {
      throw std::runtime_error("poisoned guard");
    }
    return Decision::kResume;
  }

  void set_poisoned(bool p) {
    poisoned_.store(p, std::memory_order_relaxed);
  }
  std::uint64_t guards() const { return guards_.load(); }

 private:
  std::atomic<bool> poisoned_{false};
  std::atomic<std::uint64_t> guards_{0};
};

// --- engagement ----------------------------------------------------------

TEST(ModeratorFastPathTest, NonblockingChainAdmitsAndCompletesLockFree) {
  AspectModerator moderator;
  const auto m = MethodId::of("fp-engage");
  auto probe = std::make_shared<ProbeFastAspect>("fp-probe");
  auto second = std::make_shared<ProbeFastAspect>("fp-second");
  moderator.register_aspect(m, AspectKind::of("fp-probe"), probe);
  moderator.register_aspect(m, AspectKind::of("fp-second"), second);

  constexpr std::uint64_t kOps = 100;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    InvocationContext ctx(m);
    ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
    moderator.postactivation(ctx);
  }
  // Single-threaded, no waiters, no plan: every op takes the fast path.
  EXPECT_EQ(moderator.fast_admissions(), kOps);
  EXPECT_EQ(moderator.fast_completions(), kOps);
  EXPECT_EQ(probe->guards(), kOps);
  EXPECT_EQ(probe->entries(), kOps);
  EXPECT_EQ(probe->posts(), kOps);
  EXPECT_EQ(second->entries(), kOps);
  EXPECT_EQ(moderator.stats(m).admitted, kOps);
  EXPECT_EQ(moderator.stats(m).completed, kOps);
}

TEST(ModeratorFastPathTest, BlockingAspectStaysOnSlowPath) {
  AspectModerator moderator;
  const auto m = MethodId::of("fp-slow");
  moderator.register_aspect(m, AspectKind::of("fp-excl"),
                            std::make_shared<aspects::MutualExclusionAspect>());
  for (int i = 0; i < 10; ++i) {
    InvocationContext ctx(m);
    ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
    moderator.postactivation(ctx);
  }
  EXPECT_EQ(moderator.fast_admissions(), 0u);
  EXPECT_EQ(moderator.fast_completions(), 0u);
  EXPECT_EQ(moderator.stats(m).admitted, 10u);
}

TEST(ModeratorFastPathTest, WakeTargetOfAPlanIsIneligible) {
  // A method some plan names as a wake target depends on cross-method
  // completions for its re-evaluation; it must never skip the shard lock
  // even when its own chain is fully non-blocking.
  AspectModerator moderator;
  const auto target = MethodId::of("fp-target");
  const auto other = MethodId::of("fp-other");
  moderator.register_aspect(target, AspectKind::of("fp-t"),
                            std::make_shared<ProbeFastAspect>("t"));
  moderator.bank().set_notification_plan(other, {target});

  for (int i = 0; i < 5; ++i) {
    InvocationContext ctx(target);
    ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
    moderator.postactivation(ctx);
  }
  EXPECT_EQ(moderator.fast_admissions(), 0u);
  EXPECT_EQ(moderator.fast_completions(), 0u);
}

// --- the sleeper broadcast contract --------------------------------------

TEST(ModeratorFastPathTest, FastCompletionDefersWhileAnyWaiterSleeps) {
  // The no-plan default wakes EVERY method on completion. A fast-eligible
  // helper completing while an unrelated caller is blocked must fall back
  // to the locked, broadcasting path — otherwise the waiter sleeps through
  // the state change it is waiting for.
  AspectModerator moderator;
  const auto gated = MethodId::of("fp-gated");
  const auto helper = MethodId::of("fp-helper");  // empty chain: eligible
  std::atomic<bool> open{false};
  moderator.register_aspect(
      gated, AspectKind::of("fp-gate"),
      std::make_shared<LambdaAspect>("gate", [&](InvocationContext&) {
        return open.load() ? Decision::kResume : Decision::kBlock;
      }));

  std::atomic<bool> admitted{false};
  std::jthread waiter([&] {
    InvocationContext ctx(gated);
    ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
    admitted.store(true);
    moderator.postactivation(ctx);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_FALSE(admitted.load());

  open.store(true);
  InvocationContext ctx(helper);
  ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
  moderator.postactivation(ctx);  // must broadcast: a sleeper is registered
  waiter.join();
  EXPECT_TRUE(admitted.load());
  // The helper's completion saw the sleeper and took the slow path.
  EXPECT_EQ(moderator.fast_completions(), 0u);
}

// --- recomposition + quarantine hammer -----------------------------------

TEST(ModeratorFastPathTest, HammerSurvivesRecompositionAndQuarantine) {
  AspectModerator moderator;
  const auto m = MethodId::of("fp-hammer");
  auto base = std::make_shared<ProbeFastAspect>("fp-base");
  auto flip = std::make_shared<ProbeFastAspect>("fp-flip");
  auto poison = std::make_shared<PoisonableGuard>();
  const auto flip_kind = AspectKind::of("fp-flip");
  moderator.register_aspect(m, AspectKind::of("fp-base"), base);
  moderator.register_aspect(m, AspectKind::of("fp-poison"), poison);

  constexpr int kReaders = 3;
  constexpr int kOpsPerReader = 400;
  std::atomic<std::uint64_t> resumed{0};
  std::atomic<std::uint64_t> aborted{0};
  std::atomic<bool> stop_mutating{false};

  // Poisoned from the start: the first three faulting guards (booked on
  // whichever path the readers are on, including the optimistic one) trip
  // the quarantine, after which the chain recomposes without the guard.
  poison->set_poisoned(true);

  {
    std::vector<std::jthread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&] {
        for (int i = 0; i < kOpsPerReader; ++i) {
          InvocationContext ctx(m);
          if (moderator.preactivation(ctx) == Decision::kResume) {
            resumed.fetch_add(1);
            moderator.postactivation(ctx);
          } else {
            aborted.fetch_add(1);  // poisoned guard vetoed this one
          }
        }
      });
    }
    std::jthread mutator([&] {
      while (!stop_mutating.load()) {
        // Flip the extra aspect into the composition and back out. After
        // remove_aspect returns, the recompose barrier has drained every
        // burst and span that could still see the old chain — any later
        // guard/entry on `flip` is a protocol violation.
        flip->set_retired(false);
        moderator.register_aspect(m, flip_kind, flip);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        moderator.bank().remove_aspect(m, flip_kind);
        flip->set_retired(true);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    for (auto& r : readers) r.join();
    stop_mutating.store(true);
  }

  EXPECT_EQ(resumed.load() + aborted.load(),
            static_cast<std::uint64_t>(kReaders * kOpsPerReader));
  // No guard or entry ever observed the retired aspect.
  EXPECT_EQ(flip->violations(), 0u);
  EXPECT_EQ(base->violations(), 0u);
  // G4: every committed entry was paired with exactly one postaction.
  EXPECT_EQ(base->entries(), base->posts());
  EXPECT_EQ(flip->entries(), flip->posts());
  EXPECT_EQ(moderator.stats(m).completed, resumed.load());
  // The quarantine tripped (three faults booked against the guard) and
  // aborted callers carried structured errors, not crashes.
  EXPECT_GE(moderator.fault_count(poison.get()), 3u);
  EXPECT_GE(aborted.load(), 3u);
  // The optimistic path engaged between recompositions.
  EXPECT_GT(moderator.fast_admissions(), 0u);
}

// --- grouped readers-writer exclusion ------------------------------------

TEST(ModeratorFastPathTest, GroupedRwKeepsExclusionWithFastReaders) {
  AspectModerator moderator;
  const auto read = MethodId::of("fp-rw-read");
  const auto write = MethodId::of("fp-rw-write");
  auto rw = std::make_shared<aspects::ReadersWriterAspect>();
  rw->add_reader(read);
  rw->add_writer(write);
  moderator.register_aspect(read, AspectKind::of("fp-rw"), rw);
  moderator.register_aspect(write, AspectKind::of("fp-rw"), rw);
  // No notification plan: the default broadcast keeps every wake correct,
  // and plan-free methods are what the fast path accelerates.

  // Warm-up with no writer in sight: reader admissions must go lock-free.
  for (int i = 0; i < 100; ++i) {
    InvocationContext ctx(read);
    ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
    moderator.postactivation(ctx);
  }
  EXPECT_GT(moderator.fast_admissions(), 0u);

  std::atomic<int> readers_inside{0};
  std::atomic<int> writers_inside{0};
  std::atomic<std::uint64_t> violations{0};
  constexpr int kReaderThreads = 3;
  constexpr int kReadsPerThread = 300;
  constexpr int kWrites = 100;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kReaderThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kReadsPerThread; ++i) {
          InvocationContext ctx(read);
          ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
          readers_inside.fetch_add(1);
          if (writers_inside.load() != 0) violations.fetch_add(1);
          readers_inside.fetch_sub(1);
          moderator.postactivation(ctx);
        }
      });
    }
    threads.emplace_back([&] {
      for (int i = 0; i < kWrites; ++i) {
        InvocationContext ctx(write);
        ASSERT_EQ(moderator.preactivation(ctx), Decision::kResume);
        const int w = writers_inside.fetch_add(1);
        if (w != 0 || readers_inside.load() != 0) violations.fetch_add(1);
        writers_inside.fetch_sub(1);
        moderator.postactivation(ctx);
      }
    });
  }
  EXPECT_EQ(violations.load(), 0u) << "readers-writer exclusion broken";
  EXPECT_EQ(moderator.stats(read).completed,
            static_cast<std::uint64_t>(100 + kReaderThreads * kReadsPerThread));
  EXPECT_EQ(moderator.stats(write).completed,
            static_cast<std::uint64_t>(kWrites));
}

}  // namespace
}  // namespace amf::core
