// Recovery: snapshot + log-tail replay through the REAL moderated proxy
// (DESIGN.md §15.5).
//
// Recovery is deliberately not a bulk state loader. It restores the latest
// snapshot, then re-issues every logged invocation after it through the
// application's `apply` callback — which the durable apps implement as a
// real proxy call with the replay note set. Guards, entry, notification
// plans and postactions all run on replay exactly as they did live; the
// only difference is the PersistenceAspect seeing kReplayNoteKey and not
// re-appending. That buys two things:
//
//   * Idempotence for free: replaying twice is safe because the aspect
//     never duplicates records, and the component transitions are driven
//     by the same guarded methods as live traffic.
//   * The recovered process is verifiably a NORMAL process: TraceValidator
//     checks G1–G8 over the replay trace the same way chaos tests check a
//     live run.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "storage/codec.hpp"
#include "storage/persistence.hpp"
#include "storage/storage.hpp"

namespace amf::storage {

/// What a recovery pass did — the kill-and-recover suite's audit surface.
struct RecoveryStats {
  Lsn snapshot_lsn = 0;       ///< log position the restored snapshot covered
  std::uint64_t replayed = 0; ///< commit records re-applied after it
};

class Recovery {
 public:
  /// Restores application state from `payload` of the latest snapshot
  /// (never called when no snapshot exists).
  using Restore = std::function<runtime::Result<void>(std::string_view)>;

  /// Re-applies one logged commit record (expected: a real proxy call with
  /// ctx note kReplayNoteKey = record.invocation_id). The view points into
  /// the replay's reused frame buffer and is valid only inside this call:
  /// copy out anything needed after it returns.
  using Apply = std::function<runtime::Result<void>(Lsn, const CommitView&)>;

  /// Produces the snapshot payload for the application's current state;
  /// called only while the caller guarantees quiescence.
  using Capture = std::function<runtime::Result<std::string>()>;

  /// Full recovery pass: load newest valid snapshot → `restore` → replay
  /// the log tail through `apply` in LSN order. Unknown record types are
  /// skipped (forward compatibility); malformed commit payloads and LSN
  /// gaps fail with kCorrupted. Holds memory bounded by the largest log
  /// segment, not by the number of records replayed.
  static runtime::Result<RecoveryStats> recover(Storage& storage,
                                                const Restore& restore,
                                                const Apply& apply);

  /// Checkpoint: sync the log, `capture` the state, publish it as the
  /// snapshot covering last_synced(). Old generations and fully-covered
  /// log segments are retired by the storage layer. Caller must hold the
  /// application quiescent across the call (no in-flight moderated
  /// invocations) so the captured state matches the synced log position.
  static runtime::Result<Lsn> checkpoint(Storage& storage,
                                         const Capture& capture);
};

/// Loads a logged call into a fresh proxy CallBuilder: the caller's name,
/// the logged notes in order, then kReplayNoteKey = the record's
/// invocation id. A durable app's Apply runs it.
template <typename CallBuilder>
CallBuilder& load_replayed_call(CallBuilder& call, const CommitView& record) {
  char id[20];  // the longest std::uint64_t in decimal
  const char* end =
      std::to_chars(id, id + sizeof id, record.invocation_id).ptr;
  call.as(record.principal);
  for (const auto& [key, value] : record.notes) call.note(key, value);
  call.note(kReplayNoteKey, std::string_view(id, std::size_t(end - id)));
  return call;
}

}  // namespace amf::storage
