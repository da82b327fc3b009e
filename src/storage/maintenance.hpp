// Maintenance: background checkpointing and coordinated drain (DESIGN.md
// §17.4).
//
// Checkpointing was a caller chore — reach quiescence, call checkpoint(),
// hope the timing was right. Checkpointer makes it a background concern: a
// periodic thread invokes an app-supplied checkpoint callback off the hot
// path, so moderated admissions never carry snapshot work. The callback
// owns its quiescence story (the durable apps run the capture through a
// moderated exclusion-writer method, so a checkpoint is just another
// serialized call — never a stop-the-world).
//
// drain_and_checkpoint is the orderly way DOWN: quiesce intake (moderator
// shutdown wakes every waiter), wait for in-flight spans to finish, force
// the log tail to disk, publish a final snapshot. After it returns the
// directory reopens with an empty replay tail — recovery restores the
// snapshot and replays nothing.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "runtime/clock.hpp"
#include "runtime/event_log.hpp"
#include "storage/recovery.hpp"
#include "storage/storage.hpp"

namespace amf::core {
class AspectModerator;
}  // namespace amf::core

namespace amf::storage {

/// Periodic background checkpointing. Owns one thread (when `interval` is
/// non-zero); the checkpoint callback runs entirely on that thread, never
/// on a moderated caller's.
class Checkpointer {
 public:
  /// Produces one checkpoint and returns the LSN it covers. The callback
  /// must be safe to run concurrently with live traffic — the durable apps
  /// satisfy this by capturing through a moderated exclusion-writer call.
  using CheckpointFn = std::function<runtime::Result<Lsn>()>;

  struct Options {
    /// Period between checkpoint attempts. Zero = no thread; drive with
    /// run_once() (simulated-time tests).
    runtime::Duration interval{std::chrono::seconds(1)};
    /// Optional event log: one "checkpoint" line per attempt.
    runtime::EventLog* log = nullptr;
  };

  Checkpointer(CheckpointFn fn, Options options);
  ~Checkpointer();

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// One synchronous checkpoint attempt (also what the thread calls).
  runtime::Result<Lsn> run_once();

  /// Stops the background thread (idempotent; destructor calls it).
  void stop();

  std::uint64_t runs() const { return runs_.load(std::memory_order_relaxed); }
  std::uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }
  /// LSN of the newest successful checkpoint (0 = none yet).
  Lsn last_lsn() const { return last_lsn_.load(std::memory_order_relaxed); }

 private:
  const CheckpointFn fn_;
  const Options options_;
  std::atomic<std::uint64_t> runs_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<Lsn> last_lsn_{0};
  std::mutex mu_;
  std::condition_variable_any cv_;
  std::jthread thread_;  // last member: joins before the rest tears down
};

/// What drain_and_checkpoint accomplished.
struct DrainReport {
  std::int64_t spans_at_entry = 0;      ///< in-flight bodies when drain began
  std::uint64_t waiters_at_entry = 0;   ///< blocked preactivations woken
  bool quiesced = false;                ///< spans and waiters reached zero
  bool checkpointed = false;            ///< final snapshot published
  Lsn checkpoint_lsn = 0;               ///< its covered LSN (when checkpointed)
  std::string checkpoint_error;         ///< why not (e.g. device fenced)
};

/// Coordinated shutdown: moderator.shutdown() (aborts future intake, wakes
/// every waiter), wait up to `timeout` for open spans and blocked waiters
/// to drain, sync the log tail, publish a final snapshot via `capture`
/// (skipped when null). Fails with kTimeout when in-flight work does not
/// drain — state is then NOT quiescent and the caller must not assume a
/// clean tail. A fenced device does not fail the drain: the report carries
/// the checkpoint refusal instead, and the spill (if any) stays in memory
/// for a later reopen.
runtime::Result<DrainReport> drain_and_checkpoint(
    core::AspectModerator& moderator, Storage& storage,
    const Recovery::Capture& capture,
    runtime::Duration timeout = std::chrono::seconds(5));

}  // namespace amf::storage
