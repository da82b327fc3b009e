// Measurement primitives of the end-to-end benchmark: a nanosecond clock, a
// fixed-memory latency histogram, and the ack board that turns observations
// of `Storage::last_synced()` into per-request ack times (DESIGN.md §15 ack
// rule: a record is acknowledged once last_synced() >= its lsn).
//
// Everything here has constant memory, so the run's peak RSS measures the
// program under test rather than the length of the run.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

namespace e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Log-linear histogram of non-negative nanosecond values: exact below
/// 128 ns, then 128 buckets per power of two (bucket width < 0.8% of the
/// value). Percentiles interpolate inside the bucket by rank. A failed
/// request is recorded as +infinity: it sorts above every finite value.
class Histogram {
 public:
  void record(std::int64_t ns) {
    const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
    ++buckets_[index(v)];
    ++finite_;
    sum_ += static_cast<double>(v);
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  void record_failure() { ++failures_; }

  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    finite_ += other.finite_;
    failures_ += other.failures_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  std::uint64_t count() const { return finite_ + failures_; }
  std::uint64_t failures() const { return failures_; }
  /// Mean of the finite values (0 when there are none).
  double mean() const {
    return finite_ == 0 ? 0.0 : sum_ / static_cast<double>(finite_);
  }

  /// The q-quantile (0 <= q <= 1) in ns; +inf when the rank falls among
  /// failures, 0 for an empty histogram.
  double percentile(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    const double rank = q * static_cast<double>(n - 1);
    if (rank > static_cast<double>(finite_) - 1.0) {
      return std::numeric_limits<double>::infinity();
    }
    double cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const auto c = static_cast<double>(buckets_[i]);
      if (c == 0) continue;
      if (rank < cum + c) {
        double lo = 0, width = 0;
        bounds(i, &lo, &width);
        const double v = lo + width * ((rank - cum + 0.5) / c);
        return std::clamp(v, static_cast<double>(min_),
                          static_cast<double>(max_));
      }
      cum += c;
    }
    return static_cast<double>(max_);
  }

  /// Share of the recorded values (failures included) that are >= `ns`.
  double share_at_least(double ns) const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    double above = static_cast<double>(failures_);
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      double lo = 0, width = 0;
      bounds(i, &lo, &width);
      if (lo >= ns) {
        above += static_cast<double>(buckets_[i]);
      } else if (lo + width > ns) {
        above += static_cast<double>(buckets_[i]) * (lo + width - ns) / width;
      }
    }
    return above / static_cast<double>(n);
  }

 private:
  static constexpr unsigned kSub = 7;
  static constexpr unsigned kOctaves = 44;
  static constexpr std::size_t kBuckets = std::size_t(kOctaves + 1) << kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < (1u << kSub)) return static_cast<std::size_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(v));
    const unsigned shift = msb - kSub;
    const std::size_t idx = (std::size_t(shift + 1) << kSub) +
                            static_cast<std::size_t>((v >> shift) - (1u << kSub));
    return std::min(idx, kBuckets - 1);
  }
  static void bounds(std::size_t idx, double* lo, double* width) {
    if (idx < (1u << kSub)) {
      *lo = static_cast<double>(idx);
      *width = 1;
      return;
    }
    const int shift = static_cast<int>(idx >> kSub) - 1;
    const std::size_t sub = idx & ((1u << kSub) - 1);
    *lo = std::ldexp(static_cast<double>((1u << kSub) + sub), shift);
    *width = std::ldexp(1.0, shift);
  }

  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t finite_ = 0;
  std::uint64_t failures_ = 0;
  double sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// Shared record of when `last_synced()` was first seen to reach each
/// value. Every generator thread reports what it reads after each call;
/// only observations that advance the frontier are kept, so the log grows
/// with the number of group commits, not with the number of requests.
class AckBoard {
 public:
  AckBoard() : AckBoard(std::size_t(1) << 20) {}
  explicit AckBoard(std::size_t capacity)
      : capacity_(capacity), log_(new Obs[capacity]) {}

  void observe(std::uint64_t synced, std::int64_t t) {
    if (synced <= frontier_.load(std::memory_order_acquire)) return;
    std::scoped_lock lock(mu_);
    if (synced <= frontier_.load(std::memory_order_relaxed)) return;
    const std::size_t n = size_.load(std::memory_order_relaxed);
    if (n < capacity_) {
      log_[n] = Obs{synced, t};
      size_.store(n + 1, std::memory_order_release);
    }
    frontier_.store(synced, std::memory_order_release);
  }

  std::uint64_t frontier() const {
    return frontier_.load(std::memory_order_acquire);
  }

  /// Time of the first kept observation with synced >= `lsn` made at or
  /// after `not_before`, or -1 when none is on the board.
  std::int64_t ack_time(std::uint64_t lsn, std::int64_t not_before) const {
    const std::size_t n = size_.load(std::memory_order_acquire);
    const Obs* first = std::lower_bound(
        log_.get(), log_.get() + n, lsn,
        [](const Obs& o, std::uint64_t v) { return o.synced < v; });
    for (const Obs* o = first; o != log_.get() + n; ++o) {
      if (o->t >= not_before) return o->t;
    }
    return -1;
  }

 private:
  struct Obs {
    std::uint64_t synced;
    std::int64_t t;
  };

  const std::size_t capacity_;
  // Uninitialised on purpose: pages become resident only as entries land.
  std::unique_ptr<Obs[]> log_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> frontier_{0};
  std::mutex mu_;
};

}  // namespace e2e
