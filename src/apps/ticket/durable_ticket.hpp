// DurableTicketApp: the trouble-ticketing cluster with durability composed
// in (DESIGN.md §15.6).
//
// The point of this wiring is what it does NOT touch: TicketServer is the
// same sequential component the paper wrote, and the open/assign sync
// aspects are the unmodified Fig. 4–7 pair. Durability arrives purely by
// bank composition:
//
//   kind order:  sync → exclusion → persist
//
//   * exclusion — a ReadersWriterAspect with BOTH methods as writers. The
//     base wiring admits one open and one assign concurrently (SPSC), which
//     is fine live but would let postaction (= log append) order invert
//     body-effect order. Serializing the writers makes append order equal
//     effect order, which is what replay correctness needs.
//   * persist — LAST in the kind order, so (postactions running in reverse)
//     its append runs FIRST, while the exclusion slot is still held.
//
// Recovery re-issues logged calls through the same proxy, so guards, entry,
// notification plans and postactions all run on replay exactly as live —
// inside an exclusive moderator phase, which drops only the synchronisation
// that guards against other threads (DESIGN.md §15.5).
#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <string>

#include "apps/ticket/ticket_proxy.hpp"
#include "runtime/health.hpp"
#include "storage/maintenance.hpp"
#include "storage/persistence.hpp"
#include "storage/recovery.hpp"
#include "storage/self_healing.hpp"
#include "storage/storage.hpp"

namespace amf::apps::ticket {

/// Note keys the durable wiring uses to ride open()'s arguments on the
/// invocation context — which is how they reach the WAL record.
inline constexpr std::string_view kTicketIdNote = "ticket.id";
inline constexpr std::string_view kTicketDescNote = "ticket.desc";
inline constexpr std::string_view kTicketByNote = "ticket.by";

/// The moderated checkpoint method (DESIGN.md §17.4): an exclusion WRITER
/// with no sync and no persist aspect. Admission means no open/assign body
/// or postaction is in flight, so sync + capture inside its body observe a
/// state that matches the log position exactly — a coherent snapshot
/// without stopping intake.
runtime::MethodId checkpoint_method();

class DurableTicketApp {
 public:
  struct Options {
    std::size_t capacity = 16;
    storage::WalOptions wal;
    core::ModeratorOptions moderator;
    /// Admission deadline of checkpoint(), its only use. (Replay needs
    /// none: it runs in an exclusive moderator phase, where a replayed call
    /// that would block — e.g. an assign before the open it consumed —
    /// fails at once and open() returns kCorrupted.)
    runtime::Duration replay_deadline = std::chrono::seconds(5);
    /// When true, the WAL opens behind a SelfHealingStorage (DESIGN.md
    /// §17): a device fault fences the log into a degraded window (spill or
    /// shed per `fence_policy`) instead of fail-stopping the app.
    bool self_heal = false;
    storage::SelfHealingStorage::FencePolicy fence_policy =
        storage::SelfHealingStorage::FencePolicy::kSpill;
    std::size_t spill_capacity = 1024;
    /// Optional health registry. MUST outlive the app less its prober —
    /// destroy (or stop) the registry first. When set it is wired into the
    /// moderator (fallback-chain swaps, quarantine probes) and, under
    /// self_heal, into the storage (fence reports + reopen probe).
    runtime::HealthRegistry* health = nullptr;
    /// Background checkpoint period (0 = none). Checkpoints run on their
    /// own thread through the moderated checkpoint method, so they are
    /// coherent without ever blocking the fast path.
    runtime::Duration checkpoint_interval{0};
  };

  /// Opens (creating if needed) the durable app over directory `dir`:
  /// opens storage, composes the aspects, restores the latest snapshot and
  /// replays the log tail. Fails with kCorrupted on unexplainable damage.
  static runtime::Result<std::unique_ptr<DurableTicketApp>> open(
      std::string dir, Options options);
  static runtime::Result<std::unique_ptr<DurableTicketApp>> open(
      std::string dir) {
    return open(std::move(dir), Options{});
  }

  // --- moderated operations ----------------------------------------------

  core::InvocationResult<void> open_ticket(
      const Ticket& t,
      runtime::Principal principal = runtime::Principal::anonymous());

  core::InvocationResult<Ticket> assign_ticket(
      runtime::Principal principal = runtime::Principal::anonymous());

  // --- asynchronous operations (DESIGN.md §18) ---------------------------
  //
  // Future-returning variants for ticket storms: a blocked call parks a
  // slab frame on the moderator's wait channel instead of occupying a
  // thread, so in-flight concurrency is bounded by memory, not pool size.

  /// Named body functors, so the AsyncCall frame types are spellable (a
  /// slab needs a concrete element type; lambdas would anonymize it).
  struct OpenBody {
    Ticket ticket;
    void operator()(TicketServer& s) const { s.open(ticket); }
  };
  struct AssignBody {
    Ticket operator()(TicketServer& s) const { return s.assign(); }
  };
  using AsyncOpenCall = TicketProxy::AsyncCall<OpenBody>;
  using AsyncAssignCall = TicketProxy::AsyncCall<AssignBody>;

  /// Constructs the call frame in `slab` (std::deque never relocates, so
  /// the parked node stays pinned) and starts it. Drive completions by
  /// progressing the submitting thread's persona
  /// (concurrency::progress()); the slab may only shrink once its
  /// futures are ready.
  AsyncOpenCall& open_ticket_async(
      std::deque<AsyncOpenCall>& slab, const Ticket& t,
      runtime::Principal principal = runtime::Principal::anonymous());
  AsyncAssignCall& assign_ticket_async(
      std::deque<AsyncAssignCall>& slab,
      runtime::Principal principal = runtime::Principal::anonymous());

  // --- durability control ------------------------------------------------

  /// Forces the log tail to disk (group commit barrier).
  runtime::Result<void> sync() { return storage_->sync(); }

  /// Publishes a coherent snapshot and compacts. Runs through the
  /// moderated checkpoint method (see checkpoint_method()), so it is safe
  /// under live traffic — the exclusion writer slot supplies quiescence.
  runtime::Result<storage::Lsn> checkpoint();

  /// Coordinated shutdown: quiesce intake, wake every waiter, wait for
  /// in-flight spans, sync, publish a final snapshot. The moderator is
  /// unusable afterwards (every later call aborts kCancelled).
  runtime::Result<storage::DrainReport> drain(
      runtime::Duration timeout = std::chrono::seconds(5));

  // --- observers ---------------------------------------------------------

  TicketProxy& proxy() { return *proxy_; }
  storage::Storage& storage() { return *storage_; }
  /// Non-null iff Options::self_heal was set.
  storage::SelfHealingStorage* self_healing() { return self_heal_; }
  /// Non-null iff Options::checkpoint_interval was non-zero.
  storage::Checkpointer* checkpointer() { return checkpointer_.get(); }
  const storage::PersistenceAspect& persistence() const { return *persist_; }
  const storage::RecoveryStats& recovery_stats() const { return recovery_; }

  /// Lifetime totals across ALL incarnations (snapshot base + this
  /// process); exact at quiescence.
  std::uint64_t total_opened() const {
    return base_opened_ + proxy_->component().total_opened();
  }
  std::uint64_t total_assigned() const {
    return base_assigned_ + proxy_->component().total_assigned();
  }
  std::size_t pending() const { return proxy_->component().pending(); }

 private:
  DurableTicketApp() = default;

  runtime::Result<void> restore_snapshot(std::string_view payload);
  runtime::Result<void> apply_record(storage::Lsn lsn,
                                     const storage::CommitView& record);
  std::string capture_snapshot() const;

  std::string dir_;
  Options options_;
  std::unique_ptr<storage::Storage> storage_;
  storage::SelfHealingStorage* self_heal_ = nullptr;  // view into storage_
  std::shared_ptr<TicketProxy> proxy_;
  std::shared_ptr<storage::PersistenceAspect> persist_;
  storage::RecoveryStats recovery_;
  // Totals already accounted for by the restored snapshot: the component's
  // own counters restart at (pending, 0) after a snapshot restore, so the
  // app re-bases them to keep lifetime totals continuous across crashes.
  std::uint64_t base_opened_ = 0;
  std::uint64_t base_assigned_ = 0;
  // Last member: its thread calls checkpoint() → proxy_, so it must stop
  // before anything above tears down.
  std::unique_ptr<storage::Checkpointer> checkpointer_;
};

}  // namespace amf::apps::ticket
