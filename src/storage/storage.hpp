// Storage: the durability boundary the persistence aspect talks to
// (DESIGN.md §15.1).
//
// The aspect and the recovery driver are written against this narrow
// interface — append committed records, sync, publish/load snapshots,
// replay the tail — so the moderation side never sees file descriptors,
// segment names, or fsync policy. FileStorage is the one real
// implementation (segmented WAL + atomic-rename snapshots in a single
// directory); tests substitute their own to script failures that even the
// fault injector cannot time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace amf::storage {

/// Abstract durability substrate. Thread-safe; the durability contract is
/// the WAL's: a record is committed once `last_synced() >= lsn`.
class Storage {
 public:
  virtual ~Storage() = default;

  /// Appends one record, returns its LSN. Durable only once
  /// last_synced() >= lsn (group commit — see WalOptions::sync_every).
  virtual runtime::Result<Lsn> append(std::uint8_t type,
                                      std::string_view payload) = 0;

  /// Forces buffered records to disk.
  virtual runtime::Result<void> sync() = 0;

  virtual Lsn last_appended() const = 0;
  virtual Lsn last_synced() const = 0;

  /// False once the device has faulted out; appends then fail fast with
  /// kUnavailable and the persistence aspect starts REJECTING new calls in
  /// precondition (fail-stop beats silently running undurable).
  virtual bool healthy() const = 0;

  /// Whether append() would currently accept a record. Defaults to
  /// healthy(); a self-healing implementation (DESIGN.md §17) stays
  /// accepting while fenced as long as its spill buffer has room, which is
  /// what the persistence aspect's precondition actually gates on.
  virtual bool accepting() const { return healthy(); }

  /// Publishes `payload` as the snapshot covering every record with
  /// lsn <= `lsn`, then retires old snapshot generations and compacts log
  /// segments no retained snapshot needs. `lsn` must be <= last_synced():
  /// a snapshot may not claim coverage of records that could still be
  /// lost.
  virtual runtime::Result<void> write_snapshot(Lsn lsn,
                                               std::string_view payload) = 0;

  /// Newest valid snapshot, nullopt when none has ever been published.
  virtual runtime::Result<std::optional<Snapshot>> latest_snapshot()
      const = 0;

  /// Invokes `fn` for every durable record with lsn > `after` in LSN
  /// order. Recovery-time API: call before issuing new appends, otherwise
  /// records synced after the call started may or may not be seen. The
  /// record passed to `fn` may be reused for the next one.
  virtual runtime::Result<void> replay(
      Lsn after,
      const std::function<runtime::Result<void>(const WalRecord&)>& fn)
      const = 0;
};

/// File-backed Storage: one directory holding wal-*.log segments and
/// snap-*.snap generations.
class FileStorage final : public Storage {
 public:
  /// How many snapshot generations write_snapshot() retains. Two, so a
  /// crash that lands exactly on a damaged newest snapshot still recovers
  /// from the previous one plus the (uncompacted) log behind it.
  static constexpr std::size_t kKeepSnapshots = 2;

  /// Opens `dir`, validating the full log (torn-tail repair, corruption
  /// detection) — see Wal::open. `info` receives scan results when
  /// non-null.
  static runtime::Result<std::unique_ptr<FileStorage>> open(
      std::string dir, WalOptions options, WalOpenInfo* info = nullptr);

  runtime::Result<Lsn> append(std::uint8_t type,
                              std::string_view payload) override;
  runtime::Result<void> sync() override;
  Lsn last_appended() const override;
  Lsn last_synced() const override;
  bool healthy() const override;
  runtime::Result<void> write_snapshot(Lsn lsn,
                                       std::string_view payload) override;
  runtime::Result<std::optional<Snapshot>> latest_snapshot() const override;
  runtime::Result<void> replay(
      Lsn after,
      const std::function<runtime::Result<void>(const WalRecord&)>& fn)
      const override;

  const std::string& dir() const { return dir_; }

 private:
  FileStorage(std::string dir, WalOptions options, std::unique_ptr<Wal> wal)
      : dir_(std::move(dir)),
        options_(std::move(options)),
        wal_(std::move(wal)) {}

  const std::string dir_;
  const WalOptions options_;
  std::unique_ptr<Wal> wal_;
};

}  // namespace amf::storage
