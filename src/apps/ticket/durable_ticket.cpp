#include "apps/ticket/durable_ticket.hpp"

#include <utility>

#include "aspects/synchronization.hpp"
#include "storage/codec.hpp"

namespace amf::apps::ticket {

using runtime::ErrorCode;
using runtime::make_error;
using runtime::Result;
using storage::wire::put_str;
using storage::wire::put_u32;
using storage::wire::put_u64;

namespace {

/// Kind of the log-order exclusion aspect (see file comment in the header:
/// it serializes the writers so WAL append order equals effect order).
runtime::AspectKind exclusion_kind() {
  return runtime::AspectKind::of("exclusion");
}

}  // namespace

runtime::MethodId checkpoint_method() {
  static const runtime::MethodId id = runtime::MethodId::of("checkpoint");
  return id;
}

Result<std::unique_ptr<DurableTicketApp>> DurableTicketApp::open(
    std::string dir, Options options) {
  std::unique_ptr<DurableTicketApp> app(new DurableTicketApp());
  if (options.self_heal) {
    storage::SelfHealingStorage::Options sh;
    sh.wal = options.wal;
    sh.policy = options.fence_policy;
    sh.spill_capacity = options.spill_capacity;
    sh.health = options.health;
    auto storage = storage::SelfHealingStorage::open(dir, std::move(sh));
    if (!storage.ok()) return storage.error();
    app->self_heal_ = storage.value().get();
    app->storage_ = std::move(storage.value());
  } else {
    auto storage = storage::FileStorage::open(dir, options.wal);
    if (!storage.ok()) return storage.error();
    app->storage_ = std::move(storage.value());
  }
  if (options.health != nullptr) options.moderator.health = options.health;

  app->dir_ = std::move(dir);
  app->options_ = options;
  app->proxy_ = make_ticket_proxy(options.capacity, options.moderator);

  auto& moderator = app->proxy_->moderator();
  moderator.bank().set_kind_order({runtime::kinds::synchronization(),
                                   exclusion_kind(),
                                   runtime::kinds::persistence()});

  auto exclusion = std::make_shared<aspects::ReadersWriterAspect>();
  exclusion->add_writer(open_method());
  exclusion->add_writer(assign_method());
  // The checkpoint method is a writer too: its admission proves no
  // open/assign body or postaction is mid-flight (see checkpoint()).
  exclusion->add_writer(checkpoint_method());
  app->persist_ = std::make_shared<storage::PersistenceAspect>(*app->storage_);
  std::vector<core::Binding> cells;
  for (const auto m : {open_method(), assign_method()}) {
    cells.push_back({m, exclusion_kind(), exclusion});
    cells.push_back({m, runtime::kinds::persistence(), app->persist_});
  }
  cells.push_back({checkpoint_method(), exclusion_kind(), exclusion});
  moderator.bank().register_aspects(std::move(cells));
  // The base wiring's plans predate the checkpoint method; its guard reads
  // the writer slot that open/assign postactions release, so their plans
  // must include it (and its completion must wake them).
  const std::vector<runtime::MethodId> all = {open_method(), assign_method(),
                                              checkpoint_method()};
  for (const auto m : all) moderator.set_notification_plan(m, all);

  // Recovery runs in an exclusive moderator phase (DESIGN.md §15.5): the
  // replayed calls run every hook in order, without the synchronisation
  // that only guards against threads that do not exist yet. The phase ends
  // on every exit path, before the checkpointer thread starts.
  auto stats = [&] {
    const core::AspectModerator::ExclusivePhase phase(moderator);
    return storage::Recovery::recover(
        *app->storage_,
        [&app](std::string_view payload) {
          return app->restore_snapshot(payload);
        },
        [&app](storage::Lsn lsn, const storage::CommitView& record) {
          return app->apply_record(lsn, record);
        });
  }();
  if (!stats.ok()) return stats.error();
  app->recovery_ = std::move(stats.value());

  if (options.checkpoint_interval.count() > 0) {
    storage::Checkpointer::Options co;
    co.interval = options.checkpoint_interval;
    co.log = options.moderator.log;
    DurableTicketApp* raw = app.get();
    app->checkpointer_ = std::make_unique<storage::Checkpointer>(
        [raw] { return raw->checkpoint(); }, co);
  }
  return app;
}

core::InvocationResult<void> DurableTicketApp::open_ticket(
    const Ticket& t, runtime::Principal principal) {
  // The arguments ride the context as notes; the persistence postaction
  // serializes the notes into the commit record, which is how replay gets
  // them back.
  return proxy_->call(open_method())
      .as(std::move(principal))
      .note(kTicketIdNote, std::to_string(t.id))
      .note(kTicketDescNote, t.description)
      .note(kTicketByNote, t.opened_by)
      .run([&t](TicketServer& s) { s.open(t); });
}

core::InvocationResult<Ticket> DurableTicketApp::assign_ticket(
    runtime::Principal principal) {
  // assign() takes no arguments — FIFO order makes replay deterministic,
  // so the record needs nothing beyond the method and identity.
  return proxy_->call(assign_method())
      .as(std::move(principal))
      .run([](TicketServer& s) { return s.assign(); });
}

DurableTicketApp::AsyncOpenCall& DurableTicketApp::open_ticket_async(
    std::deque<AsyncOpenCall>& slab, const Ticket& t,
    runtime::Principal principal) {
  // Same note protocol as the synchronous path: the arguments ride the
  // context, the persistence postaction serializes them into the record.
  AsyncOpenCall& call =
      slab.emplace_back(*proxy_, open_method(), OpenBody{t});
  call.context().set_principal(std::move(principal));
  call.context().set_note(kTicketIdNote, std::to_string(t.id));
  call.context().set_note(kTicketDescNote, t.description);
  call.context().set_note(kTicketByNote, t.opened_by);
  call.start();
  return call;
}

DurableTicketApp::AsyncAssignCall& DurableTicketApp::assign_ticket_async(
    std::deque<AsyncAssignCall>& slab, runtime::Principal principal) {
  AsyncAssignCall& call =
      slab.emplace_back(*proxy_, assign_method(), AssignBody{});
  call.context().set_principal(std::move(principal));
  call.start();
  return call;
}

Result<storage::Lsn> DurableTicketApp::checkpoint() {
  // Coherence argument: admission of the checkpoint method means the
  // exclusion writer slot is held — every prior open/assign has finished
  // its postaction (its WAL append), and none can start. sync() inside the
  // slot then makes last_synced() cover exactly the effects the captured
  // state contains; the snapshot write itself can safely happen after the
  // slot releases because (lsn, payload) are already fixed and coverage
  // claims only records <= lsn.
  std::string payload;
  storage::Lsn lsn = 0;
  bool device_failed = false;
  runtime::Error device_error;
  auto result = proxy_->call(checkpoint_method())
                    .within(options_.replay_deadline)
                    .run([&](TicketServer&) {
                      auto synced = storage_->sync();
                      if (!synced.ok()) {
                        device_failed = true;
                        device_error = synced.error();
                        return;
                      }
                      lsn = storage_->last_synced();
                      payload = capture_snapshot();
                    });
  if (!result.ok()) {
    return make_error(result.error.code, "checkpoint: admission refused: " +
                                             result.error.to_string());
  }
  if (device_failed) return device_error;
  auto written = storage_->write_snapshot(lsn, payload);
  if (!written.ok()) return written.error();
  return lsn;
}

Result<storage::DrainReport> DurableTicketApp::drain(
    runtime::Duration timeout) {
  // Stop the background checkpointer first: its thread goes through the
  // moderator, which is about to start refusing.
  if (checkpointer_) checkpointer_->stop();
  return storage::drain_and_checkpoint(
      proxy_->moderator(), *storage_,
      [this]() -> Result<std::string> { return capture_snapshot(); }, timeout);
}

std::string DurableTicketApp::capture_snapshot() const {
  std::string out;
  put_u64(out, total_opened());
  put_u64(out, total_assigned());
  put_u32(out, std::uint32_t(proxy_->component().capacity()));
  const auto pending = proxy_->component().pending_snapshot();
  put_u32(out, std::uint32_t(pending.size()));
  for (const Ticket& t : pending) {
    put_u64(out, t.id);
    put_str(out, t.description);
    put_str(out, t.opened_by);
  }
  return out;
}

Result<void> DurableTicketApp::restore_snapshot(std::string_view payload) {
  storage::wire::Reader r{payload};
  const std::uint64_t opened = r.u64();
  const std::uint64_t assigned = r.u64();
  const std::uint32_t capacity = r.u32();
  const std::uint32_t count = r.u32();
  std::vector<Ticket> pending;
  for (std::uint32_t i = 0; i < count && !r.failed; ++i) {
    Ticket t;
    t.id = r.u64();
    t.description = std::string(r.str());
    t.opened_by = std::string(r.str());
    pending.push_back(std::move(t));
  }
  if (r.failed || r.pos != payload.size()) {
    return make_error(ErrorCode::kCorrupted,
                      "ticket snapshot: malformed payload");
  }
  if (opened - assigned != count) {
    return make_error(ErrorCode::kCorrupted,
                      "ticket snapshot: totals disagree with pending count");
  }
  if (capacity != proxy_->component().capacity()) {
    return make_error(
        ErrorCode::kInvalidArgument,
        "ticket snapshot: captured capacity differs from configured");
  }

  // Rebuild through the MODERATED proxy so the sync aspects' shared state
  // (reserved/committed slots) tracks the refilled buffer; the replay note
  // keeps the persistence aspect from logging the reconstruction. Runs in
  // open()'s exclusive phase, where a call that would block (more pending
  // tickets than slots) fails at once with kTimeout.
  for (const Ticket& t : pending) {
    auto result = proxy_->call(open_method())
                      .note(storage::kReplayNoteKey, "snapshot")
                      .run([&t](TicketServer& s) { s.open(t); });
    if (!result.ok()) {
      return make_error(ErrorCode::kCorrupted,
                        "ticket snapshot: restore refused: " +
                            result.error.to_string());
    }
  }
  base_opened_ = opened - count;     // restored opens recount in the component
  base_assigned_ = assigned;
  return {};
}

Result<void> DurableTicketApp::apply_record(
    storage::Lsn lsn, const storage::CommitView& record) {
  auto replay_error = [&](const runtime::Error& e) {
    // A blocked replay means the log's order cannot be re-run — e.g. an
    // assign logged before the open it consumed. In open()'s exclusive
    // phase a call that would block fails at once with kTimeout; that is
    // log damage, not overload.
    const bool timed_out = e.code == ErrorCode::kTimeout ||
                           e.code == ErrorCode::kDeadlineExceeded;
    return make_error(timed_out ? ErrorCode::kCorrupted : e.code,
                      "replay of lsn " + std::to_string(lsn) +
                          " refused: " + e.to_string());
  };

  // Interned names are stable: resolve them once, not per record.
  static const std::string_view open_name = open_method().name();
  static const std::string_view assign_name = assign_method().name();
  if (record.method == open_name) {
    Ticket t;
    bool has_id = false;
    for (const auto& [key, value] : record.notes) {
      if (key == kTicketIdNote) {
        has_id = storage::wire::parse_decimal(value, t.id);
      } else if (key == kTicketDescNote) {
        t.description = value;
      } else if (key == kTicketByNote) {
        t.opened_by = value;
      }
    }
    if (!has_id) {
      return make_error(ErrorCode::kCorrupted,
                        "ticket log: missing or malformed '" +
                            std::string(kTicketIdNote) + "' note at lsn " +
                            std::to_string(lsn));
    }
    auto call = proxy_->call(open_method());
    auto result = storage::load_replayed_call(call, record)
                      .run([&t](TicketServer& s) { s.open(std::move(t)); });
    if (!result.ok()) return replay_error(result.error);
    return {};
  }
  if (record.method == assign_name) {
    auto call = proxy_->call(assign_method());
    auto result = storage::load_replayed_call(call, record)
                      .run([](TicketServer& s) { return s.assign(); });
    if (!result.ok()) return replay_error(result.error);
    return {};
  }
  return make_error(ErrorCode::kCorrupted,
                    "ticket log: unknown method '" +
                        std::string(record.method) + "' at lsn " +
                        std::to_string(lsn));
}

}  // namespace amf::apps::ticket
