// IntruQueue: intrusive multi-producer / single-consumer queue.
//
// The ready queue of a Persona (progress.hpp, DESIGN.md §18.1): any thread
// hands a continuation node to a persona with one lock-free push, and the
// persona's owner drains the whole list at once. The queue owns NOTHING —
// nodes are embedded in their producers' frames (a parked call's
// ParkedCall, an async call frame) and carry their own link field — and
// the drain hands back the nodes in FIFO (push) order, so continuations
// fire in the order they were enqueued.
//
// Concurrency contract:
//   * push(): any thread, lock-free (one CAS loop on the head).
//   * take_all(): only the single consumer (the persona's owner thread).
//     It transfers ownership of every node it returns; the producer must
//     not touch a pushed node again.
//   * empty(): any thread; racy by nature.
//
// All operations are seq_cst: the persona doorbell's Dekker pair (push,
// then load `sleeping_`; store `sleeping_`, then re-check empty()) argues
// in the seq_cst total order.
#pragma once

#include <atomic>

namespace amf::concurrency {

/// Intrusive MPSC queue over nodes with a `Node* next` member given by
/// pointer-to-member. Nodes are caller-owned; a node may be re-pushed
/// after the consumer has released it, never while queued.
template <typename Node, Node* Node::*Next = &Node::next>
class IntruQueue {
 public:
  IntruQueue() = default;
  IntruQueue(const IntruQueue&) = delete;
  IntruQueue& operator=(const IntruQueue&) = delete;

  /// Links `node` in front of the internal stack.
  void push(Node* node) {
    Node* head = head_.load(std::memory_order_seq_cst);
    do {
      node->*Next = head;
    } while (!head_.compare_exchange_weak(head, node,
                                          std::memory_order_seq_cst));
  }

  /// Detaches every queued node and returns them in FIFO (push) order,
  /// linked through the node's next field; nullptr when empty. Single
  /// consumer only.
  Node* take_all() {
    Node* stack = head_.exchange(nullptr, std::memory_order_seq_cst);
    Node* fifo = nullptr;
    while (stack != nullptr) {
      Node* next = stack->*Next;
      stack->*Next = fifo;
      fifo = stack;
      stack = next;
    }
    return fifo;
  }

  /// True when nothing is queued. Racy by nature; the persona doorbell's
  /// re-check after raising `sleeping_` makes the race benign.
  bool empty() const {
    return head_.load(std::memory_order_seq_cst) == nullptr;
  }

 private:
  std::atomic<Node*> head_{nullptr};
};

}  // namespace amf::concurrency
