// Persona: per-thread progress engine for asynchronous moderation
// (DESIGN.md §18).
//
// A persona is a logical execution context owned by exactly one thread —
// the upcxx notion, reduced to what async moderation needs: an MPSC ready
// queue of continuation nodes plus a drain loop. Any thread may ENQUEUE a
// node (that is how a completing writer's postactivation hands a parked
// call back to its initiator), but only the owning thread DRAINS, so every
// continuation of a given call runs on the thread that started the call —
// the persona-affinity rule that lets the async path open and close
// moderation spans with plain thread-local bookkeeping.
//
// Attentiveness contract: nothing fires until the owner calls progress().
// A parked call whose persona is never progressed never completes — the
// async analogue of a thread that never returns to its event loop. Code
// that blocks a persona thread on a future must interleave progress()
// (see progress_until()), or sleep on the persona's doorbell (wait()) when
// every event it waits for arrives as an enqueue.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

#include "concurrency/intru_queue.hpp"

namespace amf::concurrency {

/// One schedulable continuation. Intrusive: embed it (or derive from it)
/// in the object that carries the continuation's state; `fire` receives
/// the node back and may destroy or re-enqueue-elsewhere the containing
/// object — the persona reads `next` before firing and never touches the
/// node afterwards.
struct ProgressNode {
  ProgressNode* next = nullptr;
  void (*fire)(ProgressNode*) = nullptr;
};

/// A per-thread ready queue of completed continuations.
class Persona {
 public:
  Persona() = default;
  Persona(const Persona&) = delete;
  Persona& operator=(const Persona&) = delete;

  /// Hands a ready node to this persona. Any thread; lock-free unless the
  /// owner sleeps in wait(), which it then wakes. The node must stay
  /// untouched by the producer until its `fire` runs. The producer touches
  /// the persona itself until this returns: an owner that may destroy the
  /// persona right after firing the node must order that after the call
  /// (the moderator enqueues under a shard mutex the node's retry takes).
  void enqueue(ProgressNode* node) {
    ready_.push(node);
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    // Dekker pair with wait(): the seq_cst push, then this load; the owner
    // stores `sleeping_`, then re-checks the queue. One side sees the other.
    if (sleeping_.load(std::memory_order_seq_cst)) {
      std::scoped_lock lk(bell_mu_);
      bell_.notify_one();
    }
  }

  /// Doorbell: sleeps until a node is queued or the steady clock reaches
  /// `until` (default: no deadline). Returns at once if a node is already
  /// queued. Owner thread only; it fires nothing — call progress() next.
  void wait(std::chrono::steady_clock::time_point until =
                std::chrono::steady_clock::time_point::max()) {
    std::unique_lock lk(bell_mu_);
    sleeping_.store(true, std::memory_order_seq_cst);
    while (ready_.empty()) {
      if (until == std::chrono::steady_clock::time_point::max()) {
        bell_.wait(lk);
      } else if (bell_.wait_until(lk, until) == std::cv_status::timeout) {
        break;
      }
    }
    sleeping_.store(false, std::memory_order_relaxed);
  }

  /// Drains and fires every ready node, including nodes that became ready
  /// while draining (a fired continuation may cascade-enqueue more work
  /// onto this same persona). Owner thread only. Returns the number of
  /// nodes fired.
  std::size_t progress() {
    std::size_t fired = 0;
    for (;;) {
      ProgressNode* node = ready_.take_all();
      if (node == nullptr) return fired;
      while (node != nullptr) {
        ProgressNode* next = node->next;  // fire() may recycle the node
        node->fire(node);
        node = next;
        ++fired;
      }
    }
  }

  /// True when nothing is queued. Racy by nature (a producer may enqueue
  /// immediately after); use only as a progress-loop exit heuristic.
  bool idle() const { return ready_.empty(); }

  /// Lifetime enqueue count (observability; relaxed).
  std::uint64_t enqueued() const {
    return enqueued_.load(std::memory_order_relaxed);
  }

  /// The calling thread's persona. One per thread, created on first use;
  /// it must outlive every call parked against it, so threads that
  /// initiate async invocations must outlive their parked calls.
  static Persona& current() {
    static thread_local Persona tl;
    return tl;
  }

 private:
  IntruQueue<ProgressNode> ready_;
  std::atomic<std::uint64_t> enqueued_{0};
  // Doorbell state; `sleeping_` is only true while the owner is in wait().
  std::atomic<bool> sleeping_{false};
  std::mutex bell_mu_;
  std::condition_variable bell_;
};

/// Drains the calling thread's persona once.
inline std::size_t progress() { return Persona::current().progress(); }

/// Spins progress() until `pred()` holds, yielding between empty drains.
/// The blocking-wait helper for tests and synchronous callers of async
/// APIs — keeps the persona attentive while waiting.
template <typename Pred>
void progress_until(Pred&& pred) {
  while (!pred()) {
    if (progress() == 0) std::this_thread::yield();
  }
}

}  // namespace amf::concurrency
