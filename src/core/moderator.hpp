// AspectModerator: the framework's coordination kernel (Figs. 1, 3, 11).
//
// Responsibilities, exactly as in the paper:
//   * hold the aspect bank and accept `register_aspect` calls,
//   * `preactivation(ctx)`: evaluate the ordered guard chain of the
//     invoked method; BLOCK the caller while any guard says so; ABORT the
//     invocation if a guard vetoes; otherwise admit it,
//   * `postactivation(ctx)`: run postactions in reverse order and wake the
//     waiters whose guards may now pass.
//
// Locking model (sharded; see DESIGN.md §3 D2 and §9). Every method has its
// own mutex and parked-call list. A chain evaluation (guards + entry
// commits) holds, in one ordered acquisition, the locks of exactly the
// methods whose chains share an aspect OBJECT with the invoked method (the
// bank's lock group) — so an exclusion group stays atomic (repair D2) while
// unrelated methods never contend. Postactivation holds the completed
// method's group plus its notification-plan targets: the plan is both the
// paper's wake wiring (open→assign / assign→open) AND the declaration of
// which methods' guards the completing postactions may influence through
// shared captured state. Without a plan the moderator falls back to locking
// every method — always safe, never required once plans are set.
//
// On top of the sharded slow path sits an OPTIMISTIC FAST PATH (DESIGN.md
// §11): when the bank classifies a method's chain as non-blocking (every
// aspect declares the capability) and no notification plan involves the
// method, admission and completion run the hook chain with no mutex at
// all, under seqlock-style validation against the composition epoch, the
// plan revision, the recomposition-barrier generation and a per-shard
// Dekker handshake with locked sections. Any validation failure — or a
// kBlock verdict — falls back to the slow path, so parking semantics,
// G4 pairing, quarantine safe points and the barrier are untouched.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "concurrency/completion.hpp"
#include "concurrency/progress.hpp"
#include "core/bank.hpp"
#include "core/context.hpp"
#include "core/decision.hpp"
#include "runtime/clock.hpp"
#include "runtime/event_log.hpp"
#include "runtime/fault.hpp"
#include "runtime/ids.hpp"
#include "runtime/metrics.hpp"

namespace amf::core {

/// Per-method moderation statistics (all monotonically increasing).
struct MethodStats {
  std::uint64_t admitted = 0;    // invocations that passed preactivation
  std::uint64_t completed = 0;   // postactivations performed
  std::uint64_t aborted = 0;     // guard vetoes
  std::uint64_t timed_out = 0;   // deadline expiries while blocked
  std::uint64_t cancelled = 0;   // stop-token cancellations while blocked
  std::uint64_t block_events = 0;  // admissions that blocked at least once
};

/// Stall-watchdog configuration (DESIGN.md §10). The watchdog reads the
/// MODERATOR clock, so simulated-clock tests can stage stalls and scan
/// deterministically via `scan_stalls()`; `poll` adds a real-time scanner
/// thread for production clocks.
struct WatchdogOptions {
  /// Slack past a waiter's deadline before it counts as stalled — waiters
  /// normally time themselves out; the watchdog catches the ones that
  /// can't (pathological wake storms, lost signals, silent methods).
  runtime::Duration grace{std::chrono::milliseconds(50)};
  /// Stall bound for waiters WITHOUT a deadline (0 = such waiters may
  /// block forever, which is legitimate for pure producer/consumer guards).
  runtime::Duration stall_after{0};
  /// When true, a stalled waiter is evicted: its preactivation aborts with
  /// kDeadlineExceeded. When false the watchdog only reports.
  bool abort_stalled = false;
  /// Scan period of the background scanner thread (0 = no thread; call
  /// `scan_stalls()` manually, e.g. from simulated-clock tests).
  runtime::Duration poll{0};
};

/// Moderator configuration.
struct ModeratorOptions {
  /// Clock used for timestamps and deadlines.
  const runtime::Clock* clock = &runtime::RealClock::instance();
  /// Optional event log; when set, the moderator records the protocol
  /// phases ("preactivation", "admitted", "postactivation", ...) so tests
  /// can replay the paper's sequence diagrams.
  runtime::EventLog* log = nullptr;
  /// Optional metrics registry; when set, the moderator maintains
  /// "moderator.aspect_faults", "moderator.quarantines" and
  /// "moderator.stalls" counters plus a 1-in-16-sampled
  /// "moderator.invocation_ns" admission→completion latency histogram
  /// (sampling keeps the fast path at one clock read per call; sampled
  /// completions pay a second).
  runtime::Registry* metrics = nullptr;
  /// Optional fault injector: arms throw-in-precondition /
  /// throw-in-entry / throw-in-postaction chaos in this moderator.
  runtime::FaultInjector* fault = nullptr;
  /// Optional stall watchdog.
  std::optional<WatchdogOptions> watchdog;
  /// Optional health registry (DESIGN.md §17; must outlive the moderator).
  /// When set, the bank consults it for fallback-chain swaps, and
  /// quarantined aspects are reported as fenced "aspect/<name>" resources
  /// with an un-quarantine probe — so quarantine stops being terminal: the
  /// registry's hysteretic prober restores the aspect automatically.
  runtime::HealthRegistry* health = nullptr;
};

/// The coordination kernel. Thread-safe; one instance moderates one
/// component cluster (one proxy), as in the paper, but nothing prevents
/// sharing an instance across components that must coordinate.
class AspectModerator {
 public:
  explicit AspectModerator(ModeratorOptions options = {});
  ~AspectModerator();

  AspectModerator(const AspectModerator&) = delete;
  AspectModerator& operator=(const AspectModerator&) = delete;

  /// The bank (for direct registration, kind ordering, inspection).
  AspectBank& bank() { return bank_; }
  const AspectBank& bank() const { return bank_; }

  /// The clock this moderator stamps and resolves deadlines against.
  const runtime::Clock& clock() const { return *clock_; }

  /// Paper-style convenience: registerAspect(methodID, aspect, object).
  void register_aspect(runtime::MethodId method, runtime::AspectKind kind,
                       AspectPtr aspect) {
    bank_.register_aspect(method, kind, std::move(aspect));
  }

  /// Pre-activation phase. Blocks until the guard chain admits the call,
  /// a guard aborts it, the deadline passes, stop is requested, or the
  /// moderator shuts down. Returns kResume (admitted — the caller MUST
  /// later call `postactivation` with the same context) or kAbort
  /// (ctx.abort_error() explains why; never call postactivation).
  Decision preactivation(InvocationContext& ctx);

  /// Post-activation phase: runs postactions of the chain the invocation
  /// was admitted under, in reverse order, then wakes affected waiters.
  void postactivation(InvocationContext& ctx);

  /// Restricts which methods' waiters are woken when `completed` finishes.
  /// Without a plan, every method with waiters is woken (always safe).
  /// Plans reproduce the paper's hand-wired open→assign / assign→open
  /// notifications, and under the sharded lock they additionally bound
  /// which methods a postactivation synchronizes with: guards of methods
  /// OUTSIDE the plan (and outside the completed method's lock group) must
  /// not read state the completing postactions write.
  void set_notification_plan(runtime::MethodId completed,
                             std::vector<runtime::MethodId> wake);

  /// Wakes everything and makes all current and future preactivations
  /// return kAbort(kCancelled). Used for orderly shutdown.
  void shutdown();

  /// True once shutdown() has been called.
  bool is_shutdown() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Snapshot of the statistics of `method`.
  MethodStats stats(runtime::MethodId method) const;

  /// Total number of threads currently blocked in preactivation (racy;
  /// diagnostics only).
  std::uint64_t blocked_waiters() const;

  /// Spans currently open (admitted invocations whose postactivation has
  /// not finished), both parities. Racy; used by the drain manager to wait
  /// for in-flight bodies after intake quiesces.
  std::int64_t open_spans() const {
    return spans_[0].load(std::memory_order_relaxed) +
           spans_[1].load(std::memory_order_relaxed);
  }

  // --- failure containment (DESIGN.md §10) ------------------------------

  /// Faults recorded against `aspect` (hooks that threw, real or injected).
  std::uint64_t fault_count(const Aspect* aspect) const;

  /// Restores a quarantined aspect and resets its fault count, so one more
  /// burst of faults is needed to re-quarantine it. Returns false if the
  /// aspect was not quarantined.
  bool unquarantine(const Aspect* aspect);

  /// One watchdog sweep against the moderator clock: reports (and, when
  /// configured, evicts) every waiter blocked past its deadline + grace or
  /// past stall_after. Returns the number of stalled waiters found. No-op
  /// without ModeratorOptions::watchdog. Simulated-clock tests advance the
  /// clock and call this directly; with WatchdogOptions::poll a background
  /// thread calls it periodically.
  std::size_t scan_stalls();

  /// Multi-line operational report: the bank's composition table followed
  /// by per-method moderation statistics.
  std::string report() const;

  /// Invocations admitted / completed on the optimistic fast path
  /// (DESIGN.md §11); monotone, for tests and perf diagnostics.
  std::uint64_t fast_admissions() const {
    return fast_admissions_.load(std::memory_order_relaxed);
  }
  std::uint64_t fast_completions() const {
    return fast_completions_.load(std::memory_order_relaxed);
  }

  // --- asynchronous moderation (DESIGN.md §18) --------------------------

  /// One asynchronous admission (defined below, after the private types it
  /// embeds). Callers allocate it on the stack or in a slab, arm `settle`,
  /// and submit via preactivation_async().
  struct ParkedCall;

  /// Asynchronous pre-activation: never sleeps. Runs the same admission
  /// attempt as preactivation(); a kBlock verdict PARKS `call` on the
  /// method's parked list and returns, where preactivation() would wait
  /// for the node to settle. The armed `call.settle` callback fires
  /// exactly once with the final verdict — inline (from inside this call)
  /// when the verdict is immediate, or from `call.persona`'s progress()
  /// drain after a completing writer's postactivation (or a stop request
  /// on ctx->stop()) transferred the parked node. On kResume the owner
  /// must run the body and then postactivation() with the same context,
  /// exactly as after a synchronous admission; on kAbort
  /// ctx->abort_error() says why and postactivation must not run.
  void preactivation_async(ParkedCall& call);

  /// Calls currently parked on shard lists — async frames and blocked
  /// synchronous callers alike (racy; diagnostics).
  std::int64_t async_parked() const {
    return parked_.load(std::memory_order_relaxed);
  }

  /// Moderation bursts currently registered, both parities (racy;
  /// diagnostics).
  std::int64_t open_bursts() const {
    return bursts_[0].load(std::memory_order_relaxed) +
           bursts_[1].load(std::memory_order_relaxed);
  }

  /// The calling thread's open spans of this moderator.
  std::int64_t own_open_spans() const { return own_spans(0) + own_spans(1); }

  // --- exclusive phase (DESIGN.md §15.5, PROTOCOL.md §9) ------------------

  /// Starts an exclusive phase owned by the calling thread. Until
  /// end_exclusive(), the owner's calls run the same compiled chains and
  /// hooks, in the same order, through the locked admission loop and
  /// postactivation, minus the work that only guards against other
  /// threads: the fast attempt, bursts, spans, the Dekker traffic, every
  /// shard mutex and two of three clock reads. A call that would block
  /// fails at once with kTimeout, because nothing else runs to release it.
  /// Aborts the process with a message unless the moderator is quiescent:
  /// no burst, span or parked call, no shutdown and no phase already
  /// active.
  ///
  /// During the phase a pre- or post-activation from any other thread
  /// aborts the process with a message, and a recomposition barrier run
  /// from another thread (e.g. a health prober's fallback swap) waits for
  /// the phase to end.
  void begin_exclusive();
  /// Ends the calling thread's phase. Aborts unless this thread began it
  /// and every call admitted inside it has completed.
  void end_exclusive();

  /// Scoped exclusive phase: begins on construction and ends on every exit
  /// path. Both durable apps recover inside one, in open().
  class ExclusivePhase {
   public:
    explicit ExclusivePhase(AspectModerator& moderator)
        : moderator_(moderator) {
      moderator_.begin_exclusive();
    }
    ~ExclusivePhase() { moderator_.end_exclusive(); }
    ExclusivePhase(const ExclusivePhase&) = delete;
    ExclusivePhase& operator=(const ExclusivePhase&) = delete;

   private:
    AspectModerator& moderator_;
  };

 private:
  /// Atomic mirror of MethodStats. Relaxed updates: the optimistic fast
  /// path bumps counters without the shard mutex, and exact cross-field
  /// consistency was never promised (stats() is a racy snapshot anyway).
  struct StatsCells {
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> aborted{0};
    std::atomic<std::uint64_t> timed_out{0};
    std::atomic<std::uint64_t> cancelled{0};
    std::atomic<std::uint64_t> block_events{0};

    MethodStats snapshot() const {
      return MethodStats{admitted.load(std::memory_order_relaxed),
                         completed.load(std::memory_order_relaxed),
                         aborted.load(std::memory_order_relaxed),
                         timed_out.load(std::memory_order_relaxed),
                         cancelled.load(std::memory_order_relaxed),
                         block_events.load(std::memory_order_relaxed)};
    }
  };

  struct MethodState {
    explicit MethodState(runtime::MethodId m) : id(m) {}
    const runtime::MethodId id;
    std::mutex mu;
    StatsCells stats;  // relaxed atomics (see StatsCells)
    // Blocked calls of this shard, sync and async (DESIGN.md §18): a
    // singly-linked FIFO of ParkedCall nodes, guarded by mu. Every signal
    // site transfers this whole list to the nodes' personas.
    ParkedCall* park_head = nullptr;
    ParkedCall* park_tail = nullptr;
    // Dekker-style handshake with the optimistic fast path (DESIGN.md
    // §11). `lockers` counts slow moderation sections whose LOCKED shard
    // set includes this shard: incremented before the mutexes are taken,
    // decremented only after the final unlock — so "some slow section
    // covers this shard" is visible without its mutex. `fast_windows`
    // counts open lock-free hook windows on this shard. Fast opens a
    // window then checks lockers == 0; slow raises lockers then (under
    // the locks) spins until fast_windows == 0. Both sides seq_cst: the
    // total order guarantees at least one side observes the other, so
    // lock-free hooks never overlap a locked section that covers the same
    // shard.
    std::atomic<std::int64_t> lockers{0};
    std::atomic<std::int64_t> fast_windows{0};
  };

  /// Tiny inline-storage vector for the moderation hot path: lock groups
  /// and chains are almost always small, and a malloc per invocation is
  /// what the sharded design is meant to be cheaper than. Spills to the
  /// heap past N elements. Only what the moderator needs — trivial T.
  template <typename T, std::size_t N>
  class SmallVec {
   public:
    void push_back(T v) {
      if (size_ < N) {
        inline_[size_++] = v;
        return;
      }
      if (spill_.empty()) spill_.assign(inline_.begin(), inline_.end());
      spill_.push_back(v);
      ++size_;
    }
    T* begin() { return spill_.empty() ? inline_.data() : spill_.data(); }
    T* end() { return begin() + size_; }
    const T* begin() const {
      return spill_.empty() ? inline_.data() : spill_.data();
    }
    const T* end() const { return begin() + size_; }
    T* data() { return begin(); }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// Drops elements past `n` (used after std::unique).
    void truncate(std::size_t n) {
      size_ = n;
      if (!spill_.empty()) spill_.resize(n);
    }

   private:
    std::array<T, N> inline_{};
    std::vector<T> spill_;
    std::size_t size_ = 0;
  };

  using ShardVec = SmallVec<MethodState*, 8>;

  /// Ordered multi-lock over a caller-owned span of method shards: locks
  /// ascending by MethodId (the caller sorts), unlocks in reverse.
  /// Non-owning: the span must outlive the LockSet.
  class LockSet {
   public:
    LockSet(MethodState* const* states, std::size_t n)
        : states_(states), n_(n) {
      lock();
    }
    ~LockSet() {
      if (locked_) unlock();
    }
    LockSet(const LockSet&) = delete;
    LockSet& operator=(const LockSet&) = delete;

    void lock() {
      for (std::size_t i = 0; i < n_; ++i) states_[i]->mu.lock();
      locked_ = true;
    }
    void unlock() {
      for (std::size_t i = n_; i-- > 0;) states_[i]->mu.unlock();
      locked_ = false;
    }

   private:
    MethodState* const* states_;
    std::size_t n_;
    bool locked_ = false;
  };

  /// Everything one invocation of a method needs, precomputed: the chain,
  /// the shard set evaluation must lock (the lock group, self included,
  /// sorted by id) and the shard set completion must lock (group ∪ plan
  /// targets, or every shard when no plan is set). Immutable once cached;
  /// rebuilt when the bank's composition epoch moves, a plan changes, or —
  /// for the no-plan completion set — a new method shard appears. Keeps
  /// the hot path at one registry read-lock plus the shard locks.
  struct Moderation {
    std::uint64_t epoch = 0;       // bank_.version() this was built at
    std::uint64_t shard_rev = 0;   // shard_rev_ this was built at
    std::uint64_t plan_rev = 0;    // plan_rev_ this was built at
    // The bank's compiled execution plan (same publish as the lock group
    // below): the chain itself plus a flat op array and per-phase presence
    // bits; what every hot loop iterates.
    CompiledChain compiled;
    MethodState* self = nullptr;
    std::vector<MethodState*> eval_shards;        // sorted by id
    std::vector<MethodState*> completion_shards;  // sorted by id
    std::vector<std::uint8_t> completion_wake;    // parallel: notify it?
    bool has_plan = false;
    // Optimistic-admission eligibility (DESIGN.md §11): the bank classed
    // the chain non-blocking AND the method neither owns a notification
    // plan nor appears as a wake target in any plan. Guarded by plan_rev:
    // a later plan change invalidates the record wholesale.
    bool fast_eligible = false;
  };

  // The cached (or freshly built) Moderation of `method` for the current
  // composition epoch. Never call while holding a shard mutex (the
  // registry precedes shards in the lock hierarchy).
  std::shared_ptr<const Moderation> moderation_for(runtime::MethodId method);

  // Whether `mod` still describes the current composition and shard map.
  bool moderation_valid(const Moderation& mod) const {
    return mod.epoch == bank_.version() &&
           (mod.has_plan ||
            mod.shard_rev == shard_rev_.load(std::memory_order_acquire));
  }

  // Requires the evaluating shard locks — or, on the optimistic fast
  // path, an open fast window whose validation excludes every locked
  // section covering this shard (the guards themselves are pure). First
  // non-Resume verdict of the compiled chain, with the vetoing/blocking
  // aspect recorded in the context notes. A throwing (or injected-fault)
  // precondition yields kAbort with a kAspectFault error already set on
  // the context. Guard-free chains return kResume without touching an op
  // (unless a fault injector is armed — injection points still fire).
  Decision evaluate_chain_under_locks(const CompiledChainData& cc,
                                      InvocationContext& ctx);

  using ArrivedVec = SmallVec<const Aspect*, 8>;

  // Fires on_arrive for every op of `cc` not yet in `arrived` (dedup by
  // aspect address, so aspects new to a recomposed chain get a retroactive
  // arrival exactly once). Same locking requirement as evaluation.
  void arrive_once(const CompiledChainData& cc, InvocationContext& ctx,
                   ArrivedVec& arrived);
  // Stamps enqueued_at and draws an arrival_seq, each only if still unset.
  void stamp_arrival(InvocationContext& ctx);
  // Books a refused admission: on_cancel for the chain, a kAborted "vetoed
  // by" error unless one is already set, then stats + terminal event by
  // error code (kTimeout → timeout, kCancelled → cancelled, else abort).
  void book_refusal(const CompiledChainData& cc, MethodState& ms,
                    InvocationContext& ctx);
  // The commit of every admission, under the evaluating locks (or a
  // validated fast window): entry hooks, admitted chain, moderation hint,
  // the thread-local half of the span (the caller already counted spans_;
  // parity -1 is an exclusive-phase admission, which opens no span), stats
  // and the `admitted` event.
  void commit_admission(const Moderation& mod, InvocationContext& ctx,
                        runtime::TimePoint admitted_at, int parity);

  // The one load of the phase flag that every pre- and post-activation
  // pays. Inside a phase it aborts unless the caller owns the phase;
  // `where` names the entry point in the message.
  bool exclusive_call(const char* where) const {
    if (!excl_.on.load(std::memory_order_acquire)) return false;
    if (excl_.owner.load(std::memory_order_relaxed) !=
        std::this_thread::get_id()) {
      exclusive_abort("call from a thread that does not own the phase",
                      where);
    }
    return true;
  }
  [[noreturn]] static void exclusive_abort(const char* what,
                                           const char* where);

  // --- optimistic fast path (DESIGN.md §11) -----------------------------

  // One lock-free admission attempt. Returns true when it fully handled
  // the invocation (*decision is kResume or kAbort); false means "take
  // the locked slow path" (not eligible, validation failed, or a guard
  // said kBlock — the slow path parks and wakes correctly). on_arrive
  // hooks that already fired are recorded in `arrived` either way.
  bool try_fast_admission(InvocationContext& ctx, ArrivedVec& arrived,
                          Decision* decision);

  // One lock-free completion attempt for an invocation admitted under the
  // fast-eligible record `mod`. Runs the admitted compiled chain's
  // postactions with no mutex, NO burst registration (the span opened at
  // admission already stakes the recomposition barrier — a drain of our
  // parity cannot complete under us) and NO signal: validated
  // sleepers_ == 0 means no call is parked anywhere in the moderator.
  bool try_fast_completion(const Moderation& mod, InvocationContext& ctx);

  // Thread-local Moderation lookup for the fast path: avoids the shared
  // registry lock on cache hits. Entries are keyed by (instance nonce,
  // method) so a reused moderator address can never resurrect a record.
  //
  // Returns a reference to the cache's OWNING slot — valid until this
  // thread's next cached_moderation call (nested moderated calls included).
  // The fast path borrows the record raw through it; records displaced
  // from a slot are parked in a thread-local graveyard that is only
  // reclaimed when the thread holds no open span, so a borrow stowed in a
  // context at admission stays valid through postactivation even if the
  // composition (and therefore the slot) changes mid-call.
  const std::shared_ptr<const Moderation>& cached_moderation(
      runtime::MethodId method);

  // Slow-side half of the Dekker handshake (see MethodState::lockers).
  static void lockers_add(MethodState* const* shards, std::size_t n);
  static void lockers_sub(MethodState* const* shards, std::size_t n);
  // Requires the shards' mutexes AND an elevated lockers count on each:
  // spins until every open fast window has closed. New windows cannot
  // validate once lockers is raised, so the wait is bounded by the
  // (non-blocking, short) hook chains already in flight.
  static void drain_fast_windows(MethodState* const* shards, std::size_t n);

  // The null check is inline so the common no-log configuration pays one
  // predicted branch per site instead of a function call.
  void log_event(std::string_view message, const InvocationContext& ctx) {
    if (log_ != nullptr) log_event_slow(message, ctx);
  }
  void log_event_slow(std::string_view message, const InvocationContext& ctx);

  // --- exception firewall ----------------------------------------------

  // Books a fault against `aspect` (metrics, event log, per-object count)
  // and, when its FaultPolicy threshold trips, schedules quarantine. Safe
  // under shard locks (fault_mu_ is a leaf); the actual bank mutation is
  // deferred to drain_quarantine().
  void record_fault(const AspectPtr& aspect, std::string_view phase,
                    InvocationContext& ctx);

  // Applies pending quarantines. Must be called OUTSIDE bursts (it runs
  // the recomposition barrier); preactivation/postactivation call it at
  // their exits.
  void drain_quarantine();

  // Contained hook invocations: a throw is recorded and swallowed. Null
  // hook slots skip the call; entry/postaction still run their injection
  // point (an injected fault after a no-op hook is indistinguishable from
  // one after a skipped hook, and the chaos schedule stays deterministic).
  void guarded_on_arrive(const CompiledOp& op, InvocationContext& ctx);
  void guarded_on_cancel(const CompiledChainData& cc, InvocationContext& ctx);
  void guarded_entry(const CompiledOp& op, InvocationContext& ctx);
  void guarded_postaction(const CompiledOp& op, InvocationContext& ctx);

  // --- recomposition barrier (DESIGN.md §10) ----------------------------
  //
  // Two-parity draining. gen_ even = gate open; odd = a barrier is
  // draining the OLD parity. A "burst" is one lock-holding moderation
  // section (one admission attempt, or one postactivation); a "span" runs
  // from admission to the end of postactivation (covers the body). The
  // barrier — run after every bank mutation — closes the gate, transfers
  // every parked call (its retry re-enters through the gate and
  // recomposes), waits until old-parity bursts and spans drain, then
  // reopens. Threads holding an open span of THIS moderator bypass the
  // closed gate (nested moderated calls, postactivation, and
  // the self-mutation case where the barrier-running thread is inside its
  // own span — its spans are exempted via a thread-local count).

  // Registers a burst and returns the gen it was registered under (its
  // parity derives from it; a later gen change tells an attempt to
  // recompose). Blocks at the gate while a barrier is draining unless this
  // thread holds an open span.
  std::uint64_t enter_burst();
  void exit_burst(int parity);
  // Span bookkeeping; parity is stowed in the context at admission.
  // adopt_span is the thread-local half only: it adopts a spans_ increment
  // the caller already performed (fast admission registers the span
  // provisionally as its barrier stake before validating).
  void adopt_span(InvocationContext& ctx, int parity);
  void close_span(InvocationContext& ctx);
  // The barrier itself (bank recompose hook; also run on plan changes).
  void recompose_barrier();
  // Wakes a draining barrier / gate waiters if one is active.
  void signal_barrier();
  // This thread's open spans of this moderator (total / per parity).
  bool holds_open_span() const;
  std::int64_t own_spans(int parity) const;

  // --- stall watchdog ---------------------------------------------------

  struct StallRecord {
    std::uint64_t invocation_id = 0;
    runtime::MethodId method;
    runtime::TimePoint blocked_since{};
    std::optional<runtime::TimePoint> deadline;
    std::string chain;       // "a < b < c" at block time
    std::string blocked_by;  // guard that refused, at block time
    MethodState* shard = nullptr;
    // The parked call this record watches while it is on shard's list.
    // Guarded by shard->mu — set at park, cleared at transfer — so an
    // eviction that still observes it non-null owns a live node linked on
    // that list.
    ParkedCall* parked = nullptr;
    // Set by the watchdog; the waiter aborts with kDeadlineExceeded.
    std::atomic<bool> evicted{false};
    // Guards against double-reporting one stalled episode.
    std::atomic<bool> reported{false};
  };

  // Builds and registers the record of a call that just blocked on `ms`.
  std::shared_ptr<StallRecord> make_stall_record(const InvocationContext& ctx,
                                                 const CompiledChainData& cc,
                                                 MethodState& ms);
  void unregister_stall_record(std::uint64_t invocation_id);

  // --- parked calls (DESIGN.md §18) --------------------------------------

  // A ParkedCall's std::stop_callback: hands the node to its persona if it
  // is parked, so the retry settles kCancelled with no other signal.
  struct StopHook {
    ParkedCall* call;
    void operator()() const noexcept;
  };

 public:
  /// One admission that may block, embedded in its caller's frame (stack
  /// or slab) — at a couple of cache lines instead of a thread. Every
  /// blocked call is one: preactivation() keeps one on its stack and waits
  /// for it to settle; async callers set `ctx`, optionally `persona`
  /// (defaults to the submitting thread's), arm `settle`, and hand the
  /// node to preactivation_async(). The node, the context and the settle
  /// captures must outlive the settle fire, and every submitted call must
  /// settle before the moderator dies: shutdown() transfers all parked
  /// nodes, and a progress() drain on each involved persona then settles
  /// the stragglers with kCancelled.
  struct ParkedCall : concurrency::ProgressNode {
    enum class State : std::uint8_t {
      kIdle,      // not linked anywhere: evaluating, or settled
      kParked,    // on its shard's parked list, sleepers_ stake held
      kSignaled,  // transferred to the persona queue; a retry is scheduled
    };

    InvocationContext* ctx = nullptr;
    /// Ready-queue target for parked retries. Persona affinity: the retry
    /// — and therefore the settle continuation, the admitted body and the
    /// postactivation — runs wherever this persona is progressed, so all
    /// span bookkeeping stays thread-local exactly as in the sync path.
    concurrency::Persona* persona = nullptr;
    /// Fire-once verdict continuation with inline storage (no heap per
    /// park for captures ≤ kCompletionInline bytes): kResume = admitted,
    /// kAbort = refused with ctx->abort_error() set.
    concurrency::InlineCallback<concurrency::kCompletionInline, Decision>
        settle;

    // Internal — owned by the moderator from submit to settle.
    std::atomic<State> state{State::kIdle};
    ParkedCall* plink = nullptr;  // shard parked-list link (guarded by mu)
    AspectModerator* owner = nullptr;
    // The method's shard, the only list this node ever parks on. Written
    // once, before the first park and before stop_hook exists.
    MethodState* shard = nullptr;
    std::shared_ptr<const Moderation> mod;  // pins the parked-under record
    ArrivedVec arrived;  // on_arrive exactly-once dedup, across epochs
    std::shared_ptr<StallRecord> stall_rec;
    // Registered before the first locked attempt when ctx->stop() is set;
    // destroyed (waiting out a running hook) before `settle` fires.
    std::optional<std::stop_callback<StopHook>> stop_hook;
    bool announced_block = false;  // one block_event per admission
  };

 private:
  // The locked admission loop for `call` (the §11 fast attempt is the
  // caller's): each attempt is one burst under the eval shard locks, and
  // a kBlock verdict parks the node. Runs on the submitting thread (first
  // attempt) or on the thread draining the call's persona (retries).
  // `exclusive` (the caller's exclusive_call()) runs it without burst,
  // span, Dekker traffic or shard lock, and turns a kBlock into kTimeout.
  void async_attempt(ParkedCall& call, bool exclusive);
  // ProgressNode::fire of a transferred node: re-runs async_attempt.
  static void async_retry(concurrency::ProgressNode* node);
  // Terminal: unregisters the watchdog record, destroys the stop hook,
  // drops the parked-record pin and fires `settle`. No shard lock held.
  void settle_async(ParkedCall& call, Decision verdict);
  // node.shard->mu held: if `node` is still parked, unlinks it and hands it
  // to its persona's ready queue, where its retry re-evaluates. The one
  // unpark routine: signals, watchdog eviction, stop hooks and a sync
  // waiter's own deadline all go through it.
  void unpark_under_lock(ParkedCall& node);
  // s.mu held: unparks every node on `s`'s list. Once a node is
  // transferred it is already scheduled to re-evaluate, so later signals
  // it "misses" are harmless.
  void transfer_parked_under_lock(MethodState& s);

  // Calls currently parked on shard lists (see async_parked()).
  std::atomic<std::int64_t> parked_{0};

  AspectBank bank_;
  const runtime::Clock* clock_;
  // Whether clock_ is the process RealClock — admission/completion stamps
  // then read steady_clock directly instead of a virtual call.
  const bool clock_real_;
  runtime::TimePoint now_fast() const {
    return clock_real_ ? std::chrono::steady_clock::now() : clock_->now();
  }
  runtime::EventLog* log_;
  runtime::FaultInjector* fault_;
  const std::optional<WatchdogOptions> watchdog_;
  runtime::HealthRegistry* health_ = nullptr;
  // Outlives-check token for health-registry probes: a probe that fires
  // after this moderator is gone locks the weak copy, fails, and reports
  // the resource healthy (nothing left to restore).
  std::shared_ptr<int> health_alive_ = std::make_shared<int>(0);
  // Resolved once at construction; null without a metrics registry.
  runtime::Counter* fault_counter_ = nullptr;
  runtime::Counter* quarantine_counter_ = nullptr;
  runtime::Counter* stall_counter_ = nullptr;
  // 1-in-16-sampled admission→completion latency (see ModeratorOptions).
  runtime::Histogram* latency_hist_ = nullptr;
  // Records the sampled completion latency; called at both completion
  // paths. The sample gate is the invocation id's low bits, so the cost
  // (a second clock read) is paid by one call in sixteen.
  void sample_latency(const InvocationContext& ctx) {
    if (latency_hist_ != nullptr && (ctx.id() & 0xF) == 0 &&
        ctx.admitted_at() != runtime::TimePoint{}) {
      latency_hist_->record(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now_fast() - ctx.admitted_at())
              .count());
    }
  }

  // Firewall bookkeeping. fault_mu_ is a LEAF lock (taken under shard
  // locks); bank mutations never run under it.
  mutable std::mutex fault_mu_;
  std::unordered_map<const Aspect*, std::uint64_t> fault_counts_;
  std::vector<AspectPtr> pending_quarantine_;
  std::atomic<bool> quarantine_pending_{false};

  // Recomposition barrier state (see comment block above).
  std::atomic<std::uint64_t> gen_{0};
  std::array<std::atomic<std::int64_t>, 2> bursts_{};
  std::array<std::atomic<std::int64_t>, 2> spans_{};
  std::mutex bar_mu_;
  std::condition_variable bar_cv_;
  std::mutex barrier_serial_mu_;  // one barrier at a time

  // Exclusive phase (see begin_exclusive). Its own cache line: every call
  // loads `on`, and no hot counter may share the line it reads.
  struct alignas(64) ExclusiveState {
    std::atomic<bool> on{false};
    std::atomic<std::thread::id> owner{};  // stored before `on` is set
    // Owner-only: calls admitted inside the phase and not yet completed.
    std::int64_t admitted = 0;
  };
  ExclusiveState excl_;
  // Other threads' barriers wait here, under barrier_serial_mu_, for the
  // phase to end.
  std::condition_variable excl_cv_;

  // Watchdog registry of currently blocked waiters (only populated when
  // the watchdog is enabled). stalls_mu_ is a leaf like fault_mu_.
  mutable std::mutex stalls_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<StallRecord>> stalls_;
  // Scanner-thread sleep channel (stop-token aware, so destruction is
  // prompt). Declared last: the jthread joins before members are torn down.
  std::mutex wd_mu_;
  std::condition_variable_any wd_cv_;
  std::jthread watchdog_thread_;

  // Lock hierarchy: registry_mu_ (shard map + plans) may be held while
  // acquiring shard mutexes; never the reverse.
  mutable std::shared_mutex registry_mu_;
  std::unordered_map<runtime::MethodId, std::unique_ptr<MethodState>>
      methods_;
  // Bumps when methods_ gains a shard. Written under the exclusive
  // registry lock; atomic so hint revalidation can read it lock-free.
  std::atomic<std::uint64_t> shard_rev_{1};
  std::unordered_map<runtime::MethodId, std::vector<runtime::MethodId>>
      notification_plan_;
  // Bumps on every set_notification_plan. Plans change both completion
  // shard sets and fast-path eligibility (wake targets), but move neither
  // the bank epoch nor shard_rev — this is the version that catches them.
  // Written under the exclusive registry lock; atomic for lock-free reads.
  std::atomic<std::uint64_t> plan_rev_{1};
  std::unordered_map<runtime::MethodId, std::shared_ptr<const Moderation>>
      moderation_cache_;
  std::atomic<std::uint64_t> arrival_counter_{0};
  std::atomic<bool> shutdown_{false};
  // Fast-path introspection (relaxed; see fast_admissions()).
  std::atomic<std::uint64_t> fast_admissions_{0};
  std::atomic<std::uint64_t> fast_completions_{0};
  // Calls currently blocked anywhere in this moderator: parked nodes,
  // raised before the parking attempt's final guard re-check and lowered
  // at transfer. The no-plan completion contract is a broadcast to EVERY
  // method, so a fast completion validates sleepers_ == 0 (seq_cst) and
  // defers to the locked, signalling slow path whenever any call is
  // blocked — even on an unrelated shard.
  std::atomic<std::int64_t> sleepers_{0};
  // Two-stage, sticky arming of the Dekker handshake, so compositions with
  // no fast-capable aspect pay NOTHING for the fast path's existence:
  //   arming — set (before the recompose barrier) the first time the bank
  //            classifies any registered chain as fully non-blocking. Slow
  //            sections read it after enter_burst (seq_cst: the gen flip
  //            orders post-barrier sections after the store) and skip the
  //            lockers/window traffic while false.
  //   armed  — set after that barrier completes, i.e. once every section
  //            that skipped the handshake has drained. Only then may
  //            moderation_for mark hook-bearing records fast-eligible.
  // Empty chains run no hooks, so their fast ops need neither stage.
  std::atomic<bool> dekker_arming_{false};
  std::atomic<bool> dekker_armed_{false};
  // Process-unique identity of this instance; thread-local moderation
  // caches key on it so address reuse cannot alias two moderators.
  const std::uint64_t nonce_;
};

}  // namespace amf::core
