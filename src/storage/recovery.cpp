#include "storage/recovery.hpp"

namespace amf::storage {

using runtime::Result;

Result<RecoveryStats> Recovery::recover(Storage& storage,
                                        const Restore& restore,
                                        const Apply& apply) {
  RecoveryStats stats;

  auto snapshot = storage.latest_snapshot();
  if (!snapshot.ok()) return snapshot.error();
  if (snapshot.value().has_value()) {
    const Snapshot& snap = *snapshot.value();
    stats.snapshot_lsn = snap.lsn;
    auto restored = restore(snap.payload);
    if (!restored.ok()) return restored.error();
  }

  // Records are decoded as views into the storage's reused WalRecord:
  // nothing is copied to read one, and replay holds O(largest record)
  // here, whatever the log's length.
  auto replayed = storage.replay(
      stats.snapshot_lsn, [&](const WalRecord& record) -> Result<void> {
        if (record.type != kCommitRecord) return {};  // future record kinds
        auto view = decode_commit_view(record.payload);
        if (!view.ok()) return view.error();
        if (auto r = apply(record.lsn, view.value()); !r.ok()) return r;
        ++stats.replayed;
        return {};
      });
  if (!replayed.ok()) return replayed.error();
  return stats;
}

Result<Lsn> Recovery::checkpoint(Storage& storage, const Capture& capture) {
  auto synced = storage.sync();
  if (!synced.ok()) return synced.error();
  const Lsn lsn = storage.last_synced();
  auto payload = capture();
  if (!payload.ok()) return payload.error();
  auto written = storage.write_snapshot(lsn, payload.value());
  if (!written.ok()) return written.error();
  return lsn;
}

}  // namespace amf::storage
