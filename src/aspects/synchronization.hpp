// Synchronization aspects: the paper's flagship concern.
//
// Three reusable shapes cover the synchronization patterns the paper's
// domain needs:
//   * MutualExclusionAspect — N-bounded critical section; registering ONE
//     instance on several methods makes them a mutually exclusive group.
//   * ReadersWriterAspect   — shared/exclusive access with optional writer
//     priority; methods are classified as readers or writers.
//   * BoundedResourceAspect — the producer/consumer guard pair of the
//     trouble-ticketing example (Fig. 7), repaired per DESIGN.md D1/D3.
//
// All state is mutated only inside entry()/postaction()/on_arrive()/
// on_cancel(), which the moderator runs under its state lock, so these
// classes need no locks of their own — except ReadersWriterAspect, whose
// counters are atomics: its READ side declares the non-blocking capability
// (Aspect::nonblocking), so reader hooks may run on the moderator's
// lock-free fast path, concurrently with each other. Writer hooks always
// run under the shard locks, and the moderator's admission handshake keeps
// them mutually ordered with reader hook windows (DESIGN.md §11).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/aspect.hpp"
#include "runtime/ids.hpp"

namespace amf::aspects {

/// At most `limit` invocations of the guarded method(s) run concurrently.
/// Share one instance across methods to form an exclusion group.
class MutualExclusionAspect final : public core::Aspect {
 public:
  explicit MutualExclusionAspect(std::size_t limit = 1) : limit_(limit) {}

  std::string_view name() const override { return "mutex"; }

  core::CompiledHooks compile() const override {
    return core::compiled_hooks_for<MutualExclusionAspect>();
  }

  core::Decision precondition(core::InvocationContext& ctx) override {
    (void)ctx;
    return active_ < limit_ ? core::Decision::kResume : core::Decision::kBlock;
  }

  void entry(core::InvocationContext& ctx) override {
    (void)ctx;
    ++active_;
  }

  void postaction(core::InvocationContext& ctx) override {
    (void)ctx;
    --active_;
  }

  /// Currently admitted invocations (diagnostics/tests).
  std::size_t active() const { return active_; }

 private:
  const std::size_t limit_;
  std::size_t active_ = 0;
};

/// Readers-writer discipline across a set of methods. Classify each guarded
/// method as reader or writer; register the SAME instance for all of them.
class ReadersWriterAspect final : public core::Aspect {
 public:
  struct Options {
    /// When true, arriving writers bar new readers (no writer starvation).
    bool writer_priority = true;
  };

  ReadersWriterAspect() : ReadersWriterAspect(Options{}) {}
  explicit ReadersWriterAspect(Options options) : options_(options) {}

  /// Declares `method` a reader (shared access). Wiring-time only: the
  /// role table must be complete before traffic starts (every hook reads
  /// it without synchronization).
  void add_reader(runtime::MethodId method) { mark(method, kReader); }
  /// Declares `method` a writer (exclusive access).
  void add_writer(runtime::MethodId method) { mark(method, kWriter); }

  std::string_view name() const override { return "readers-writer"; }

  core::CompiledHooks compile() const override {
    return core::compiled_hooks_for<ReadersWriterAspect>();
  }

  /// Reader methods are the non-blocking side: their hooks touch only the
  /// atomic counters, so concurrent lock-free execution is safe, and the
  /// guard merely REFUSES (kBlock) under an active writer — parking is
  /// the moderator's fallback. Writer methods stay on the locked path.
  bool nonblocking(runtime::MethodId method) const override {
    return (role(method) & kReader) != 0;
  }

  void on_arrive(core::InvocationContext& ctx) override {
    if (is_writer(ctx)) {
      waiting_writers_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  core::Decision precondition(core::InvocationContext& ctx) override {
    // Relaxed loads: ordering against concurrent hook windows is the
    // moderator's job (its Dekker handshake makes every committed entry /
    // postaction happen-before the guard evaluations that must see it);
    // coherence alone keeps each counter's reads monotone.
    if (is_writer(ctx)) {
      return (active_readers_.load(std::memory_order_relaxed) == 0 &&
              active_writers_.load(std::memory_order_relaxed) == 0)
                 ? core::Decision::kResume
                 : core::Decision::kBlock;
    }
    if (active_writers_.load(std::memory_order_relaxed) > 0) {
      return core::Decision::kBlock;
    }
    if (options_.writer_priority &&
        waiting_writers_.load(std::memory_order_relaxed) > 0) {
      return core::Decision::kBlock;
    }
    return core::Decision::kResume;
  }

  void entry(core::InvocationContext& ctx) override {
    if (is_writer(ctx)) {
      waiting_writers_.fetch_sub(1, std::memory_order_relaxed);
      active_writers_.fetch_add(1, std::memory_order_relaxed);
    } else {
      active_readers_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void postaction(core::InvocationContext& ctx) override {
    if (is_writer(ctx)) {
      active_writers_.fetch_sub(1, std::memory_order_relaxed);
    } else {
      active_readers_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  void on_cancel(core::InvocationContext& ctx) override {
    if (is_writer(ctx)) {
      waiting_writers_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  std::size_t active_readers() const {
    return static_cast<std::size_t>(
        active_readers_.load(std::memory_order_relaxed));
  }
  std::size_t active_writers() const {
    return static_cast<std::size_t>(
        active_writers_.load(std::memory_order_relaxed));
  }

 private:
  // Role bits per method, indexed by MethodId::value(): method ids are
  // dense, so every hook answers is-writer with one bounds check and load.
  static constexpr std::uint8_t kReader = 1;
  static constexpr std::uint8_t kWriter = 2;

  void mark(runtime::MethodId method, std::uint8_t bit) {
    if (!method.valid()) return;  // no call ever carries the invalid id
    if (method.value() >= roles_.size()) roles_.resize(method.value() + 1);
    roles_[method.value()] |= bit;
  }
  std::uint8_t role(runtime::MethodId method) const {
    return method.value() < roles_.size() ? roles_[method.value()] : 0;
  }
  bool is_writer(const core::InvocationContext& ctx) const {
    return (role(ctx.method()) & kWriter) != 0;
  }

  Options options_;
  std::vector<std::uint8_t> roles_;
  std::atomic<std::uint64_t> active_readers_{0};
  std::atomic<std::uint64_t> active_writers_{0};
  std::atomic<std::uint64_t> waiting_writers_{0};
};

/// Shared state of one bounded resource (the paper's `noItems`/`capacity`
/// plus the repair-D1 split between reserved and committed slots).
/// Invariant: 0 <= committed <= reserved <= capacity.
struct BoundedResourceState {
  explicit BoundedResourceState(std::size_t cap) : capacity(cap) {}

  const std::size_t capacity;
  std::size_t reserved = 0;   // slots held by admitted-or-done producers
  std::size_t committed = 0;  // items fully produced and not yet consumed
  std::size_t active_producers = 0;
  std::size_t active_consumers = 0;
};

/// Producer- or consumer-side guard over a shared BoundedResourceState.
/// With `max_active == 1` this is exactly the paper's
/// Open/AssignSynchronizationAspect pair (one active producer, one active
/// consumer, blocking on full/empty).
class BoundedResourceAspect final : public core::Aspect {
 public:
  enum class Role { kProducer, kConsumer };

  BoundedResourceAspect(Role role, std::shared_ptr<BoundedResourceState> state,
                        std::size_t max_active = 1)
      : role_(role), state_(std::move(state)), max_active_(max_active) {}

  std::string_view name() const override {
    return role_ == Role::kProducer ? "sync-producer" : "sync-consumer";
  }

  core::CompiledHooks compile() const override {
    return core::compiled_hooks_for<BoundedResourceAspect>();
  }

  core::Decision precondition(core::InvocationContext& ctx) override {
    (void)ctx;
    if (role_ == Role::kProducer) {
      return (state_->active_producers < max_active_ &&
              state_->reserved < state_->capacity)
                 ? core::Decision::kResume
                 : core::Decision::kBlock;
    }
    return (state_->active_consumers < max_active_ && state_->committed > 0)
               ? core::Decision::kResume
               : core::Decision::kBlock;
  }

  void entry(core::InvocationContext& ctx) override {
    (void)ctx;
    if (role_ == Role::kProducer) {
      ++state_->active_producers;
      ++state_->reserved;  // reserve the tail slot before writing it
    } else {
      ++state_->active_consumers;
      --state_->committed;  // claim the head item before reading it
    }
  }

  void postaction(core::InvocationContext& ctx) override {
    (void)ctx;
    if (role_ == Role::kProducer) {
      --state_->active_producers;
      ++state_->committed;  // the written item becomes visible
    } else {
      --state_->active_consumers;
      --state_->reserved;  // the consumed slot becomes reusable
    }
  }

  const BoundedResourceState& state() const { return *state_; }

 private:
  const Role role_;
  std::shared_ptr<BoundedResourceState> state_;
  const std::size_t max_active_;
};

}  // namespace amf::aspects
