// InvocationContext: everything the moderation pipeline knows about one
// call to a participating method.
//
// The paper passes only a `methodID` string through the moderator; an open
// system needs more (who is calling, with what priority, until when — §1's
// open issues), so the context carries caller identity, priority, deadline
// and a small note store through which aspects communicate.
//
// The context is a hot-path object: one is constructed per moderated call.
// Its design goal (DESIGN.md §13) is that constructing one and running it
// through an uncontended fast-path invocation performs ZERO heap
// allocations — ids come from thread-local blocks, notes live in inline
// slots, and the moderator's admission bookkeeping is borrowed by raw
// pointer instead of shared_ptr refcounts.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stop_token>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/decision.hpp"
#include "runtime/clock.hpp"
#include "runtime/identity.hpp"
#include "runtime/ids.hpp"
#include "runtime/result.hpp"

namespace amf::core {

struct BankEntry;  // core/bank.hpp

/// Small-buffer key/value store for invocation notes. The first
/// `kInlineSlots` distinct keys live inline in the context (no container
/// node, no rehash); later keys spill to a heap vector. Values are
/// std::string, so short keys and values ("shed.by", an aspect name)
/// additionally fit the string's own small-buffer storage and the common
/// set/read cycle never touches the heap at all. Lookup is a linear
/// string_view comparison — no std::string temporary is ever built to
/// probe (the note maps stay tiny; aspects pass a handful of facts, not
/// documents). Insertion order is preserved: inline slots first, then the
/// spill, and overwriting a key keeps its position.
class NoteStore {
 public:
  static constexpr std::size_t kInlineSlots = 4;

  /// Inserts or overwrites `key`. Returns nothing; never fails (spills to
  /// the heap past the inline capacity).
  void set(std::string_view key, std::string_view value) {
    if (std::string* v = find_mutable(key)) {
      v->assign(value.data(), value.size());
      return;
    }
    if (inline_used_ < kInlineSlots) {
      Slot& s = inline_[inline_used_];
      s.key.assign(key.data(), key.size());
      s.value.assign(value.data(), value.size());
      ++inline_used_;
      return;
    }
    spill_.emplace_back(Slot{std::string(key), std::string(value)});
  }

  /// The stored value for `key`, or nullptr. The pointer (and any view of
  /// it) stays valid until the note is overwritten or the store dies.
  const std::string* find(std::string_view key) const {
    for (std::size_t i = 0; i < inline_used_; ++i) {
      if (inline_[i].key == key) return &inline_[i].value;
    }
    for (const Slot& s : spill_) {
      if (s.key == key) return &s.value;
    }
    return nullptr;
  }

  std::size_t size() const { return inline_used_ + spill_.size(); }
  bool empty() const { return size() == 0; }

  /// Visits every note in insertion order (inline slots, then spill).
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < inline_used_; ++i) {
      f(std::string_view(inline_[i].key), std::string_view(inline_[i].value));
    }
    for (const Slot& s : spill_) {
      f(std::string_view(s.key), std::string_view(s.value));
    }
  }

 private:
  struct Slot {
    std::string key;
    std::string value;
  };

  std::string* find_mutable(std::string_view key) {
    for (std::size_t i = 0; i < inline_used_; ++i) {
      if (inline_[i].key == key) return &inline_[i].value;
    }
    for (Slot& s : spill_) {
      if (s.key == key) return &s.value;
    }
    return nullptr;
  }

  std::array<Slot, kInlineSlots> inline_{};
  std::size_t inline_used_ = 0;
  std::vector<Slot> spill_;
};

/// Per-invocation state threaded through preactivation → body →
/// postactivation. Created by the proxy (or directly in tests), mutated by
/// the moderator and by aspects.
class InvocationContext {
 public:
  /// Creates a context for a call to `method` with a process-unique id
  /// (allocated from a thread-local block — see runtime::next_invocation_id).
  explicit InvocationContext(runtime::MethodId method)
      : id_(runtime::next_invocation_id()), method_(method) {}

  /// Process-unique invocation id (used to correlate log events).
  std::uint64_t id() const { return id_; }

  /// The participating method being invoked.
  runtime::MethodId method() const { return method_; }

  /// Caller identity; anonymous by default.
  const runtime::Principal& principal() const { return principal_; }
  void set_principal(runtime::Principal p) { principal_ = std::move(p); }
  /// Names the caller in place (no Principal temporary), with no roles
  /// and no token.
  void set_principal_name(std::string_view name) {
    principal_.name.assign(name.data(), name.size());
    principal_.roles.clear();
    principal_.token.clear();
  }

  /// Scheduling priority (higher = more urgent; 0 default).
  int priority() const { return priority_; }
  void set_priority(int p) { priority_ = p; }

  /// Absolute deadline for admission; waiting past it times the call out.
  const std::optional<runtime::TimePoint>& deadline() const {
    return deadline_;
  }
  void set_deadline(runtime::TimePoint d) { deadline_ = d; }

  /// Optional cooperative-cancellation token.
  const std::optional<std::stop_token>& stop() const { return stop_; }
  void set_stop(std::stop_token t) { stop_ = std::move(t); }

  // --- fields maintained by the moderator -------------------------------

  /// Global arrival order among invocations at the same moderator (basis
  /// for FIFO scheduling). Assigned when the invocation first reaches a
  /// scheduling-relevant path; hook-free fast-path invocations skip the
  /// shared arrival counter entirely and keep seq 0 (nothing can observe
  /// an order among calls that run no hooks).
  std::uint64_t arrival_seq() const { return arrival_seq_; }
  void set_arrival_seq(std::uint64_t s) { arrival_seq_ = s; }

  /// When preactivation started / when the guards finally admitted the call.
  runtime::TimePoint enqueued_at() const { return enqueued_at_; }
  void set_enqueued_at(runtime::TimePoint t) { enqueued_at_ = t; }
  runtime::TimePoint admitted_at() const { return admitted_at_; }
  void set_admitted_at(runtime::TimePoint t) { admitted_at_ = t; }

  /// Number of times this caller blocked before admission.
  std::uint64_t blocked_count() const { return blocked_count_; }
  void note_blocked() { ++blocked_count_; }

  /// Whether the functional body ran to completion without throwing;
  /// consulted by postactions (e.g. audit logs success/failure).
  bool body_succeeded() const { return body_succeeded_; }
  void set_body_succeeded(bool ok) { body_succeeded_ = ok; }

  /// Set by an aspect that returns Decision::kAbort (or by the moderator on
  /// timeout/cancel) to explain the veto to the caller.
  const std::optional<runtime::Error>& abort_error() const {
    return abort_error_;
  }
  void set_abort_error(runtime::Error e) { abort_error_ = std::move(e); }

  /// The aspect chain this invocation was admitted under, BORROWED from the
  /// moderator's admission record (no refcount traffic on the hot path).
  /// Set at admission so postactivation pairs exactly with the entries that
  /// ran, even if the bank is reconfigured mid-call. Valid from admission
  /// until postactivation returns — the moderator's thread-local record
  /// cache defers reclamation while this thread holds an open span; do not
  /// read it after the invocation completes.
  const std::vector<BankEntry>* admitted_chain() const {
    return admitted_chain_;
  }
  void set_admitted_chain(const std::vector<BankEntry>* c) {
    admitted_chain_ = c;
  }

  /// Recomposition-barrier parity of the span opened at admission
  /// (moderator-internal bookkeeping; -1 before admission / after close).
  int span_parity() const { return span_parity_; }
  void set_span_parity(int p) { span_parity_ = p; }

  /// Opaque moderator-owned hint (the Moderation record preactivation
  /// resolved) handed back at postactivation to skip a registry lookup.
  /// Borrowed, same lifetime contract as admitted_chain(); the moderator
  /// revalidates it — a stale hint is never trusted.
  const void* moderation_hint() const { return moderation_hint_; }
  void set_moderation_hint(const void* h) { moderation_hint_ = h; }

  // --- free-form notes ---------------------------------------------------

  /// Attaches/overwrites a note. Aspects use notes to pass facts down the
  /// chain (e.g. authentication stores the resolved principal name).
  void set_note(std::string_view key, std::string_view value) {
    notes_.set(key, value);
  }

  /// Reads a note if present, as an owned copy (compatibility accessor —
  /// prefer note_view() anywhere the copy is not kept).
  std::optional<std::string> note(std::string_view key) const {
    const std::string* v = notes_.find(key);
    if (v == nullptr) return std::nullopt;
    return *v;
  }

  /// Reads a note if present, without copying: the view points into the
  /// store and stays valid until that note is overwritten or the context
  /// dies. The hot-path accessor — reading a note never allocates.
  std::optional<std::string_view> note_view(std::string_view key) const {
    const std::string* v = notes_.find(key);
    if (v == nullptr) return std::nullopt;
    return std::string_view(*v);
  }

  /// The note store itself (iteration, tests).
  const NoteStore& notes() const { return notes_; }

 private:
  std::uint64_t id_;
  runtime::MethodId method_;
  runtime::Principal principal_ = runtime::Principal::anonymous();
  int priority_ = 0;
  std::optional<runtime::TimePoint> deadline_;
  std::optional<std::stop_token> stop_;

  std::uint64_t arrival_seq_ = 0;
  runtime::TimePoint enqueued_at_{};
  runtime::TimePoint admitted_at_{};
  std::uint64_t blocked_count_ = 0;
  bool body_succeeded_ = false;
  int span_parity_ = -1;
  std::optional<runtime::Error> abort_error_;
  const std::vector<BankEntry>* admitted_chain_ = nullptr;
  const void* moderation_hint_ = nullptr;
  NoteStore notes_;
};

}  // namespace amf::core
