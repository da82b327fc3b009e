// The benchmark's four workloads and the scaffolding they share.
//
// A run is: set-up (timed, repeated, median reported) → warm-up → measured
// window → tail (load continues, unrecorded, until every request sent in
// the window has its outcome) → stop → correctness self-check.
//
// A traced run (--trace 1) installs the tracing decorators during set-up
// and splits the window in two halves: a reference half that drives the
// public API paths with the tracer off, and a traced half that drives the
// moderator directly with spans on. The request metrics (throughput,
// latency, ack) come from the reference half, the layer metrics from the
// traced half; trace.overhead_share compares the halves.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "measure.hpp"
#include "trace.hpp"

namespace e2e {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  double warmup = 2;
  bool trace = false;
  bool smoke = false;     // smoke run: preloads shrink to kSmokePreload
  std::string data_dir;   // per-run data directory (created, removed)
  std::string trace_out;  // span TSV path (traced runs; empty = none)

  /// Length of window 1: the measured window, or a traced run's reference
  /// half.
  double window1_s() const { return trace ? seconds / 2 : seconds; }
};

/// Commits a smoke run preloads, instead of a durable workload's own size.
inline constexpr std::int64_t kSmokePreload = 20'000;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Metric> end_to_end;  // the JSON metrics of an untraced run
  std::vector<Metric> per_layer;   // the JSON metrics of a traced run
  std::vector<std::string> lines;  // human-readable detail
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::string check;  // self-check verdict
  std::string fatal;  // non-empty: the run is unusable, exit without JSON
};

Report run_tickets_durable(const Config& cfg);
Report run_tickets_saturate(const Config& cfg);
Report run_tickets_handoff(const Config& cfg);
Report run_reservations_browse(const Config& cfg);

// --- shared scaffolding ----------------------------------------------------

/// Window 1 is the measured window (the reference half of a traced run);
/// window 2 is the traced half. 0 = not recorded (warm-up, tail).
inline constexpr int kWindows = 3;

/// Main-thread controls the generator threads poll.
struct Control {
  std::atomic<int> window{0};
  std::atomic<bool> tracing{false};  // drive the traced call paths
  std::atomic<bool> tail{false};     // no further window will open
  std::atomic<bool> stop_openers{false};
  std::atomic<bool> stop_agent{false};
  std::atomic<int> done{0};          // workers whose window work is complete
  std::int64_t start[kWindows] = {};
  std::int64_t end[kWindows] = {};

  double seconds(int w) const { return double(end[w] - start[w]) * 1e-9; }
};

/// Runs the window schedule on the calling (main) thread: warm-up, then
/// one measured window — or, traced, a reference half and a traced half
/// (enabling `tracer` and the traced call paths in between). `poll` runs
/// about every millisecond while the traced half is open; `edge(w, open)`
/// runs as window `w` opens and right after it closes. Returns once the
/// last window closed, with `ctl.tail` set.
void run_windows(const Config& cfg, Control& ctl, Tracer* tracer,
                 const std::function<void()>& poll,
                 const std::function<void(int, bool)>& edge);

/// Waits (bounded) until `workers` threads reported done, then returns
/// whether they all did.
bool await_done(Control& ctl, int workers, double timeout_s);

/// Times `make()` `reps` times and keeps the last result; each
/// repetition's time goes to `samples` (ns). `prepare()` runs untimed
/// before each repetition.
template <typename Prepare, typename Make>
auto timed_setups(Prepare prepare, Make make, int reps, Histogram& samples) {
  for (int rep = 1;; ++rep) {
    prepare();
    const std::int64_t t0 = now_ns();
    auto made = make();
    samples.record(now_ns() - t0);
    if (rep == reps) return made;
  }
}

/// For µs-scale set-ups. On a shared machine their cost switches between
/// modes (1.7× apart here) that last hundreds of milliseconds, so a burst
/// of repetitions samples one mode and its median flips between runs.
/// Instead `reps` repetitions are built once per round, in 20 rounds 100 ms
/// apart, and a repetition's time is its mean over the rounds: every
/// repetition then samples the same spread of machine states. Keeps the
/// last result; the repetition times go to `samples` (ns).
template <typename Make>
auto spread_setups(Make make, int reps, Histogram& samples) {
  constexpr int kRounds = 20;
  std::vector<std::int64_t> total(std::size_t(reps), 0);
  decltype(make()) kept;
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (std::int64_t& t : total) {
      const std::int64_t t0 = now_ns();
      auto made = make();
      t += now_ns() - t0;
      kept = std::move(made);  // the previous one is destroyed untimed
    }
  }
  for (const std::int64_t t : total) samples.record(t / kRounds);
  return kept;
}

double median(std::vector<double> v);
double percentile_of(std::vector<double> v, double q);

template <typename... A>
std::string format(const char* fmt, A... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

/// "<what> n=<count> p50=<µs> p99=<µs>" for a detail line.
std::string describe(const char* what, const Histogram& h);
/// The set-up samples' count and quartiles, for a detail line.
std::string describe_setup(const Histogram& samples);

/// Peak resident set of the process so far (MB).
double rss_peak_mb();

/// The end-to-end metrics of an untraced run: setup_s, completed_share
/// (from report.attempted and report.failed) and rss_peak_mb.
void end_to_end_metrics(double setup_s, double rss_mb, Report& report);

/// The measured window cut into whole seconds, by the time each request
/// was sent (or due). The request metrics are medians over the slices, so
/// a stall of the shared machine moves one slice, not the result.
class Slices {
 public:
  /// `kLatency`: call → return. `kAck`: until the effect is acknowledged
  /// (durable: the §15 ack rule; in memory: the return itself).
  enum Series { kLatency, kAck };

  explicit Slices(double window_s)
      : n_(std::size_t(std::max(1.0, std::floor(window_s)))),
        hist_{std::vector<Histogram>(n_), std::vector<Histogram>(n_)},
        ok_(n_) {}

  /// `since_start` is the request's send (or due) time relative to the
  /// window start; requests outside the window's whole seconds are ignored.
  void record(Series s, std::int64_t since_start, std::int64_t ns) {
    if (const std::size_t i = slot(since_start); i < n_) hist_[s][i].record(ns);
  }
  void record_failure(Series s, std::int64_t since_start) {
    if (const std::size_t i = slot(since_start); i < n_) {
      hist_[s][i].record_failure();
    }
  }
  /// One completed call, towards throughput.
  void count(std::int64_t since_start) {
    if (const std::size_t i = slot(since_start); i < n_) ++ok_[i];
  }
  void merge(const Slices& other) {
    for (std::size_t i = 0; i < n_; ++i) {
      for (int s : {kLatency, kAck}) hist_[s][i].merge(other.hist_[s][i]);
      ok_[i] += other.ok_[i];
    }
  }

  /// The request metrics — throughput_ops_s, latency_p50/p99_us and
  /// ack_p50/p99_us, medians over the slices — plus a detail line each with
  /// its range over the slices. A slice whose quantile is a failure counts
  /// as the slice length.
  std::vector<Metric> report(Report& out) const;

 private:
  std::size_t slot(std::int64_t since_start) const {
    if (since_start < 0) return n_;
    return std::min(n_, std::size_t(since_start / 1'000'000'000));
  }

  std::size_t n_;
  std::vector<Histogram> hist_[2];
  std::vector<std::uint64_t> ok_;
};

/// Per-layer metrics common to every workload, from the traced half.
struct LayerInputs {
  const Tracer* tracer = nullptr;
  const std::string* trace_out = nullptr;
  std::vector<Metric> requests;  // Slices::report of the reference half
  Histogram call_ref;       // sync call → return, reference half
  Histogram call_traced;    // same, traced half
  Histogram wait;           // admitted_at − enqueued_at, traced half
  Histogram late_ref;       // open-loop send lateness, reference half
  double offered_ref = 0;   // requests sent per second, reference half
  double ack_lag_share = 0; // mean(ack − return) / mean(ack), reference half
  std::uint64_t admitted = 0, blocks = 0, fast = 0;  // moderator, traced half
  std::uint64_t parked_max = 0;
  std::uint64_t completed = 0;  // calls completed in the traced half
  std::uint64_t appends = 0, append_bytes = 0, syncs = 0;
  double replay_commits_s = 0;
  std::uint64_t progress_calls = 0, progress_empty = 0, progress_fired = 0;
};

/// Builds the per-layer metric list (and detail lines) into `report`.
/// Sets report.fatal when the layer self-times do not account for the
/// traced request latency (±10%).
void layer_metrics(const LayerInputs& in, Report& report);

}  // namespace e2e
