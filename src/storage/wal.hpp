// Append-only segmented write-ahead log (DESIGN.md §15).
//
// The durable substrate under the persistence aspect: every committed
// moderated invocation becomes one CRC32C-framed record appended here. The
// design goals, in order:
//
//   1. A crash NEVER silently corrupts acknowledged history. Records are
//      framed magic | crc | length | lsn | type | payload; on open the log
//      is scanned front to back, a damaged frame at the very end of the
//      LAST segment is a torn tail (the write the crash interrupted) and is
//      truncated away, while damage anywhere earlier — behind bytes that
//      were already acknowledged as synced — is unrecoverable corruption
//      and fails open with kCorrupted. No resync heuristics: we never skip
//      a bad frame to "find" later records, because a scan that guesses
//      can resurrect half-written garbage as history.
//
//   2. The moderation hot path stays cheap. append() only frames the record
//      into a user-space buffer (memcpy + CRC); the write()+fsync() pair
//      runs once per `sync_every` records (group commit), on segment
//      rotation, or on an explicit sync(). The durability contract follows
//      the batching: a record is COMMITTED once `last_synced() >= lsn`,
//      and only then may the application acknowledge it externally.
//
//   3. Every storage edge is a first-class fault-injection point. The
//      seeded FaultInjector (runtime/fault.hpp) drives kShortWrite (frame
//      torn mid-write, device considered lost), kIoError (write/fsync
//      refusal, sticky), and kCrashPoint (named sites where a chaos child
//      may SIGKILL itself via WalOptions::crash_hook) — so the
//      kill-and-recover suite replays identical crash schedules from a
//      seed.
//
// Segments are named wal-<first-lsn, 16 hex>.log. LSNs are 1-based and
// contiguous across segments; a gap is corruption. Rotation happens when a
// segment reaches segment_bytes and doubles as a sync barrier.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/result.hpp"

namespace amf::storage {

/// Log sequence number: 1-based, contiguous, totally ordered.
using Lsn = std::uint64_t;

/// One decoded log record.
struct WalRecord {
  Lsn lsn = 0;
  std::uint8_t type = 0;
  std::string payload;
};

/// Tuning + fault wiring shared by the WAL and the snapshot writer.
struct WalOptions {
  /// Rotate to a new segment once the current one reaches this size.
  std::size_t segment_bytes = 4u << 20;

  /// Group-commit batch: append() triggers write()+fsync() after this many
  /// buffered records. 1 = sync every append (chaos/strict mode); 0 = only
  /// explicit sync() / rotation flushes.
  std::size_t sync_every = 16;

  /// Optional seeded fault source for kShortWrite / kIoError / kCrashPoint.
  runtime::FaultInjector* fault = nullptr;

  /// Called when kCrashPoint fires at a named site ("wal.sync.pre-write",
  /// "wal.sync.post-write", "wal.sync.post-fsync", "snapshot.pre-rename",
  /// "snapshot.post-rename"). The kill-and-recover suite installs
  /// `raise(SIGKILL)` here; default is a no-op (the decision still consumes
  /// one injector slot, keeping schedules comparable).
  std::function<void(std::string_view site)> crash_hook;
};

/// What open() found and repaired.
struct WalOpenInfo {
  Lsn tail_lsn = 0;                   ///< last valid record (0 = empty log)
  std::uint64_t records = 0;          ///< valid records scanned
  std::uint64_t segments = 0;         ///< segment files seen
  std::uint64_t truncated_bytes = 0;  ///< torn tail dropped from the last segment
};

/// Append-only segmented log over a directory. Thread-safe (one internal
/// mutex; callers on the moderation path already serialize through the
/// persistence aspect's lock group, so the mutex is uncontended there).
class Wal {
 public:
  /// Opens (creating if needed) the log in `dir`. Scans and validates every
  /// segment, truncates a torn tail on the last segment, fails with
  /// kCorrupted when damage sits before acknowledged history, and with
  /// kUnavailable on I/O errors.
  static runtime::Result<std::unique_ptr<Wal>> open(
      std::string dir, WalOptions options, WalOpenInfo* info = nullptr);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Frames and buffers one record; flushes per the sync_every policy.
  /// Returns the record's LSN. The record is DURABLE only once
  /// `last_synced() >= lsn`. Fails with kUnavailable once the device has
  /// faulted out (sticky — see healthy()).
  runtime::Result<Lsn> append(std::uint8_t type, std::string_view payload);

  /// Forces the buffered tail to disk (write + fsync). No-op on an already
  /// clean log.
  runtime::Result<void> sync();

  /// Highest LSN handed out by append() (buffered or synced).
  Lsn last_appended() const;

  /// Highest LSN known durable (covered by a completed fsync).
  Lsn last_synced() const;

  /// False once an injected or real I/O fault marked the device lost; every
  /// later append/sync fails fast with kUnavailable. Mirrors how a real
  /// engine fences a log device after EIO — retrying into a file in unknown
  /// state would risk interleaving garbage with acknowledged records.
  bool healthy() const;

  /// Decodes the records still sitting in the group-commit buffer (LSNs
  /// assigned, durability unknown). The self-healing layer (DESIGN.md §17)
  /// salvages these at fence time: a failed flush leaves the buffer intact
  /// — even a short write persists only a prefix ON DISK while the full
  /// frames remain here — so the records can be re-appended to a reopened
  /// device, deduplicated against whatever the torn-tail repair kept.
  std::vector<WalRecord> unsynced_records() const;

  /// Removes whole segments whose every record is <= `keep_from` (i.e.
  /// covered by a snapshot). The segment containing keep_from+1 survives.
  runtime::Result<void> remove_segments_below(Lsn keep_from);

  /// Read-only scan of the log in `dir`, invoking `fn` for every valid
  /// record with lsn > `after`, in LSN order. Tolerates a torn tail on the
  /// last segment (stops there); fails with kCorrupted on damage anywhere
  /// else or on an LSN gap after `after`. Usable while no Wal instance has
  /// the directory open for writing (recovery-time API). Streams: one
  /// segment buffer and one WalRecord serve the whole scan, so `fn` must
  /// copy out anything it keeps past its return.
  static runtime::Result<void> scan(
      const std::string& dir, Lsn after,
      const std::function<runtime::Result<void>(const WalRecord&)>& fn);

 private:
  Wal(std::string dir, WalOptions options);

  runtime::Result<void> flush_locked();
  runtime::Result<void> open_segment_locked(Lsn first_lsn);
  runtime::Result<void> fail_locked(std::string what);

  const std::string dir_;
  const WalOptions options_;

  mutable std::mutex mu_;
  int fd_ = -1;                     // current segment, O_APPEND
  std::string segment_path_;        // current segment file
  std::uint64_t segment_bytes_ = 0; // durable bytes in current segment
  std::string buffer_;              // framed records awaiting flush
  std::size_t buffered_records_ = 0;
  Lsn next_lsn_ = 1;
  Lsn last_synced_ = 0;
  // Set (never cleared) under mu_; healthy() reads it without the lock,
  // so the persistence guard's per-call check takes no WAL mutex.
  std::atomic<bool> failed_{false};
};

}  // namespace amf::storage
