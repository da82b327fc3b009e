// Tests for the intrusive MPSC queue behind every persona's ready queue
// (DESIGN.md §18.1): FIFO hand-back order, empty() across pushes, node
// re-use after release, and a multi-producer hammer that checks
// exactly-once delivery and per-producer ordering.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "concurrency/intru_queue.hpp"

namespace amf::concurrency {
namespace {

struct Node {
  Node* next = nullptr;
  int producer = 0;
  int seq = 0;
};

TEST(IntruQueueTest, EmptyUntilPushed) {
  IntruQueue<Node> q;
  Node a, b;
  EXPECT_TRUE(q.empty());
  q.push(&a);
  q.push(&b);
  EXPECT_FALSE(q.empty());
}

TEST(IntruQueueTest, TakeAllReturnsPushOrder) {
  IntruQueue<Node> q;
  std::vector<Node> nodes(16);
  for (int i = 0; i < 16; ++i) {
    nodes[static_cast<std::size_t>(i)].seq = i;
    q.push(&nodes[static_cast<std::size_t>(i)]);
  }
  int expect = 0;
  for (Node* n = q.take_all(); n != nullptr; n = n->next) {
    EXPECT_EQ(n->seq, expect++) << "take_all must hand nodes back FIFO";
  }
  EXPECT_EQ(expect, 16);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.take_all(), nullptr);
}

TEST(IntruQueueTest, NodesAreReusableAfterRelease) {
  IntruQueue<Node> q;
  Node n;
  for (int round = 0; round < 3; ++round) {
    n.seq = round;
    q.push(&n);
    Node* got = q.take_all();
    ASSERT_EQ(got, &n);
    EXPECT_EQ(got->next, nullptr);
    EXPECT_EQ(got->seq, round);
  }
}

TEST(IntruQueueTest, MpscHammerDeliversExactlyOnceInProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2'000;
  IntruQueue<Node> q;
  // Nodes are caller-owned: each producer pushes out of its own slab, like
  // parked calls living in their callers' stack frames.
  std::vector<std::vector<Node>> slabs(kProducers,
                                       std::vector<Node>(kPerProducer));
  std::atomic<int> received{0};
  std::vector<int> last_seq(kProducers, -1);
  std::atomic<int> order_violations{0};

  std::thread consumer([&] {
    // Single consumer, as a persona's owner thread is.
    while (received.load(std::memory_order_relaxed) <
           kProducers * kPerProducer) {
      for (Node* n = q.take_all(); n != nullptr;) {
        Node* next = n->next;
        if (n->seq != last_seq[static_cast<std::size_t>(n->producer)] + 1) {
          order_violations.fetch_add(1, std::memory_order_relaxed);
        }
        last_seq[static_cast<std::size_t>(n->producer)] = n->seq;
        received.fetch_add(1, std::memory_order_relaxed);
        n = next;
      }
      std::this_thread::yield();
    }
  });
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          Node& n = slabs[static_cast<std::size_t>(p)]
                         [static_cast<std::size_t>(i)];
          n.producer = p;
          n.seq = i;
          q.push(&n);
        }
      });
    }
  }
  consumer.join();
  EXPECT_EQ(received.load(), kProducers * kPerProducer);
  EXPECT_EQ(order_violations.load(), 0)
      << "a producer's nodes came back out of push order";
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(last_seq[static_cast<std::size_t>(p)], kPerProducer - 1);
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace amf::concurrency
