// AspectBank: the paper's two-dimensional composition structure
// (methods × aspect kinds → aspect objects, Figs. 1 and 9).
//
// The paper stores aspects in a literal 2-D array indexed by hard-coded
// constants; we keep the same hierarchical model but make both dimensions
// open: methods and kinds are interned ids created at run time, and the
// *kind order* — which the §5.3 extension relies on (authentication wraps
// synchronization) — is explicit and queryable.
//
// Reads on the moderation hot path are epoch-versioned RCU: every mutation
// publishes a fresh immutable Composition snapshot (one record per method:
// its chain, compiled plan, lock group, notification plan and
// classification bits) and bumps `version()`. A batch of registrations —
// cells and plans together — is one mutation, so wiring a whole component
// costs one publish, not one per cell. Readers pay one pointer copy under
// a leaf mutex plus a binary search — and callers that cached a chain at
// epoch E skip even that while `version()` (lock-free) still reads E,
// which is what keeps re-evaluations of blocked callers cheap.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/aspect.hpp"
#include "runtime/ids.hpp"

namespace amf::runtime {
class HealthRegistry;
}  // namespace amf::runtime

namespace amf::core {

/// Context note key stamped on every admitted invocation that ran under a
/// fallback composition (value "1"): callers and postactions can tell full
/// service from degraded service without consulting the bank (PROTOCOL.md).
inline constexpr std::string_view kFallbackActiveNote = "fallback.active";

/// One (kind, aspect) cell of the bank.
struct BankEntry {
  runtime::AspectKind kind;
  AspectPtr aspect;
};

/// Immutable snapshot of a method's ordered aspect chain.
using AspectChain = std::shared_ptr<const std::vector<BankEntry>>;

/// One cell to register: the aspect for (method, kind).
struct Binding {
  runtime::MethodId method;
  runtime::AspectKind kind;
  AspectPtr aspect;
};

/// One position of a compiled chain: the aspect, its publish-time-resolved
/// hook table, and a pointer back to the owning cell (the fault firewall
/// books faults against the shared_ptr; it points into `entries` below, so
/// it stays valid as long as the compiled chain does).
struct CompiledOp {
  Aspect* aspect = nullptr;
  const AspectPtr* owner = nullptr;
  CompiledHooks hooks;
};

/// Flat execution plan of one method's chain, built once per publish
/// (compose-time, not per dispatch): a contiguous op array in kind order
/// plus per-phase presence bits, so the moderation hot path iterates a
/// plain array of function pointers — no shared_ptr chasing, no virtual
/// dispatch for aspects that compiled devirtualized thunks, and whole
/// phases skipped when no composed aspect implements them.
struct CompiledChainData {
  std::vector<BankEntry> entries;  // the chain; `owner` points into it
  std::vector<CompiledOp> ops;     // kind order; postactions run in reverse
  bool any_guard = false;
  bool any_arrive = false;
  bool any_entry = false;
  bool any_post = false;
  bool any_cancel = false;
  // True when this plan is the method's declared FALLBACK composition
  // (published because a primary member was quarantined or its resource
  // impaired, DESIGN.md §17). The moderator stamps kFallbackActiveNote on
  // invocations admitted under such a plan.
  bool fallback = false;
};

/// Immutable, shareable compiled chain (same publish lifetime as the
/// AspectChain it was built from).
using CompiledChain = std::shared_ptr<const CompiledChainData>;

/// Immutable, sorted-by-id set of methods whose guard chains share at least
/// one aspect OBJECT with the keyed method (the keyed method included).
/// Evaluating one method's chain atomically requires exactly these methods'
/// locks: a shared aspect instance (e.g. one MutualExclusionAspect forming
/// an exclusion group) is the only bank-visible channel through which one
/// method's entry/postaction can change another method's guard verdict.
///
/// A multi-method group is what makes a write-side admission pay for
/// several shard locks; single-method groups (nullptr here) pay one.
using LockGroup = std::shared_ptr<const std::vector<runtime::MethodId>>;

/// Immutable, sorted-by-id list of the methods a notification plan wakes,
/// shared by the bank and every snapshot that publishes the plan.
using WakeList = std::shared_ptr<const std::vector<runtime::MethodId>>;

/// A notification plan (DESIGN.md §9.1, repair D5): completing `completed`
/// wakes the parked calls of every method in `wake`, and declares that
/// `completed`'s hooks may change those methods' guard verdicts through
/// state the bank cannot see, so both sides' locked sections synchronize.
/// An empty `wake` is still a plan: its completions wake nobody. A method
/// without a plan wakes, and synchronizes with, every composed method.
struct NotificationPlan {
  runtime::MethodId completed;
  std::vector<runtime::MethodId> wake;
};

/// Everything a hot-path reader needs about one method in one published
/// composition, derived at publish from its effective chain and the plans.
struct MethodRecord {
  runtime::MethodId method{};
  // The flat execution plan (hook thunks resolved at publish, per-phase
  // presence bits, the fallback bit); chain() aliases its entries.
  CompiledChain compiled{};
  LockGroup group{};  // nullptr: the method's own lock suffices
  // Every surviving aspect declares Aspect::nonblocking(method).
  bool nonblocking = true;
  // `method`'s notification plan: the methods its completion wakes, or
  // nullptr when it has no plan (an empty list is still a plan).
  WakeList wake{};
  // Whether some plan names `method` as a wake target.
  bool woken = false;
};

/// The unit of publication: one record per method that holds a cell or
/// appears in a plan, sorted by method, rebuilt wholesale on every
/// mutation and swapped in atomically. A method a plan names but no cell
/// holds gets the empty chain.
struct Composition {
  std::uint64_t epoch = 1;  // the AspectBank::version() it published at
  std::vector<MethodRecord> methods;
  // Some method that holds a cell has a non-blocking chain.
  bool any_nonblocking = false;
  /// `method`'s record, or the shared empty-chain record (no plan, method
  /// left default) when the composition does not name it.
  const MethodRecord& find(runtime::MethodId method) const;
};

/// Thread-safe registry of aspects per (method, kind).
class AspectBank {
 public:
  /// Fixes the evaluation order of kinds: the given kinds first, then every
  /// kind of the current order the list leaves out, in its current
  /// relative order — so no registered kind ever drops out of a chain.
  /// Kinds registered later are appended in first-registration order.
  /// Preconditions and entries run in this order; postactions run in
  /// reverse (Fig. 14: auth-pre, sync-pre, body, sync-post, auth-post).
  void set_kind_order(std::vector<runtime::AspectKind> order);

  /// Current kind order (explicit + appended).
  std::vector<runtime::AspectKind> kind_order() const;

  /// Registers (or replaces) the aspect in cell (method, kind) — the
  /// paper's `registerAspect`. Replacing is what makes the system adaptable
  /// at run time. The one-cell case of register_aspects().
  void register_aspect(runtime::MethodId method, runtime::AspectKind kind,
                       AspectPtr aspect);

  /// Registers (or replaces) every cell of `bindings` and every plan of
  /// `plans` as ONE mutation: one publish, one `version()` bump and one
  /// recomposition barrier, so no caller observes a half-wired
  /// composition. Bindings apply in order — a cell given twice ends with
  /// the later aspect, and new kinds append to the kind order in
  /// first-binding order, as the same calls to register_aspect() would;
  /// a plan replaces its method's earlier plan. No state between two
  /// bindings is ever published: a quarantined aspect that leaves its last
  /// cell and comes back within the batch stays quarantined. An empty
  /// batch publishes nothing.
  void register_aspects(std::vector<Binding> bindings,
                        std::vector<NotificationPlan> plans = {});

  /// Sets (or replaces) `completed`'s notification plan; the one-plan case
  /// of register_aspects().
  void set_notification_plan(runtime::MethodId completed,
                             std::vector<runtime::MethodId> wake);

  /// Removes a cell; returns false if it was empty.
  bool remove_aspect(runtime::MethodId method, runtime::AspectKind kind);

  // --- quarantine (DESIGN.md §10) ---------------------------------------
  // A quarantined aspect OBJECT keeps its cells (the composition intent is
  // preserved) but is excluded from published chains and lock groups, so
  // from the moderator's point of view it stops existing: blocked callers
  // re-evaluate without it at the next epoch. The moderator triggers this
  // for aspects whose FaultPolicy threshold is exceeded; operators can also
  // call it directly, and un-quarantine restores the aspect wholesale.

  /// Excludes `aspect` from all published chains. Returns false if the
  /// object holds no cell or is already quarantined.
  bool quarantine(const Aspect* aspect);

  /// Restores a quarantined aspect into every cell it still occupies.
  /// Returns false if it was not quarantined.
  bool unquarantine(const Aspect* aspect);

  /// Whether `aspect` is currently quarantined.
  bool is_quarantined(const Aspect* aspect) const;

  // --- degraded-mode fallback compositions (DESIGN.md §17) ---------------
  // A composition may declare a FALLBACK chain: an ordered set of
  // (kind, aspect) entries published INSTEAD of the primary chain while any
  // primary member is impaired — quarantined, or declaring (via
  // Aspect::resource) a resource the HealthRegistry reports fenced. The
  // swap is a normal publish: epoch bump + recomposition barrier, so no
  // caller ever observes a half-swapped chain, and recovery swaps back
  // automatically through the registry's transition listener.

  /// Declares (or replaces) `method`'s fallback chain. Entries are
  /// published in the given order; quarantined fallback members are
  /// excluded individually (no second-level fallback).
  void set_fallback(runtime::MethodId method, std::vector<BankEntry> entries);

  /// Removes `method`'s fallback declaration; the primary chain (minus
  /// quarantined members) publishes again. Returns false if none declared.
  bool clear_fallback(runtime::MethodId method);

  /// Whether the currently published composition of `method` is its
  /// fallback chain.
  bool fallback_active(runtime::MethodId method) const;

  /// Connects the bank to a health registry (wiring time, before traffic;
  /// the registry must outlive the bank). Publishes consult
  /// `health->impaired()` for every declared Aspect::resource, and the bank
  /// subscribes a transition listener that republishes — the listener is
  /// delivered from the registry's pump()/tick(), never from inside a
  /// report, so it can safely run the recomposition barrier.
  void set_health(runtime::HealthRegistry* health);

  /// Re-derives and publishes the composition from current health state
  /// (what the health listener calls; also useful in tests).
  void republish();

  /// Names of currently quarantined aspects (sorted; diagnostics).
  std::vector<std::string> quarantined() const;

  /// The aspect in cell (method, kind), or nullptr.
  AspectPtr find(runtime::MethodId method, runtime::AspectKind kind) const;

  /// Snapshot of `method`'s chain in kind order (possibly empty).
  AspectChain chain(runtime::MethodId method) const;

  /// The compiled execution plan of `method`'s published chain (possibly
  /// the shared empty plan). Built at publish time; same epoch as chain().
  CompiledChain compiled_chain(runtime::MethodId method) const;

  /// Composition epoch: bumps once per mutation (a register_aspects batch
  /// of cells and plans, a remove, a set_kind_order, ...). The only
  /// revision of what the bank publishes: a caller holding anything
  /// obtained at epoch E may keep using it without re-reading while
  /// `version() == E`.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// The lock group of `method` (see LockGroup). Returns nullptr when the
  /// method shares no aspect with any other method — callers then need only
  /// the method's own lock.
  LockGroup lock_group(runtime::MethodId method) const;

  /// The current published composition (a single pointer copy): every
  /// record, and the epoch they all belong to. What the moderator builds
  /// its per-method records from.
  std::shared_ptr<const Composition> composition() const;

  /// Whether `method`'s currently published chain is classified
  /// *non-blocking*: every composed aspect (after quarantine exclusion)
  /// declares Aspect::nonblocking(method), so the whole guard chain is safe
  /// to evaluate without shard locks. An empty chain is trivially
  /// non-blocking. Recomputed on every publish — quarantining the one
  /// blocking aspect of a chain can flip the method to non-blocking at the
  /// next epoch, and vice versa.
  ///
  /// For the moderator's §11 Dekker handshake, every locked section over
  /// this method's shards (an admission attempt, a parked call's retry, a
  /// completion) raises the shards' lockers count before touching shared
  /// guard state, so fast-path callers of a non-blocking sibling method
  /// serialize with it exactly as they would with any single locked caller.
  bool nonblocking(runtime::MethodId method) const;

  /// True when the current composition classifies at least one REGISTERED
  /// method's chain as fully non-blocking. The moderator arms its Dekker
  /// handshake on this transition; methods with no registered aspects
  /// (trivially non-blocking, but hook-free), plan-only ones included, do
  /// not count.
  bool any_nonblocking() const;

  /// All methods that have at least one registered aspect.
  std::vector<runtime::MethodId> methods() const;

  /// Total number of occupied cells (plans hold none).
  std::size_t size() const;

  /// Human-readable dump of the two-dimensional composition (Fig. 1's
  /// aspect bank): one line per method listing its chain in kind order.
  /// The operator's view of "what concerns guard what".
  std::string describe() const;

  /// Installs a hook invoked after every mutation publishes (all bank locks
  /// released). The moderator uses it as a recomposition barrier: the hook
  /// wakes blocked waiters and quiesces in-flight evaluations of the OLD
  /// composition before the mutator returns, which closes the
  /// aspect-migration window (two rapid mutations can otherwise race an
  /// evaluation still holding the old lock group). Set once at wiring time,
  /// before traffic.
  void set_recompose_barrier(std::function<void()> barrier) {
    barrier_ = std::move(barrier);
  }

 private:
  // Requires mu_. Rebuilds the snapshot from cells_/order_/plans_ and
  // publishes it.
  void publish_locked();

  // Requires mu_. Whether `aspect` holds a cell or a fallback slot.
  bool occupies_locked(const Aspect* aspect) const;

  // Runs `barrier_` (when set) after the calling mutation released mu_.
  void run_barrier() const {
    if (barrier_) barrier_();
  }

  mutable std::mutex mu_;
  std::vector<runtime::AspectKind> order_;
  // Every occupied cell, sorted by (method, kind).
  std::vector<Binding> cells_;
  // Every plan as (completed method, its targets), sorted by method.
  std::vector<std::pair<runtime::MethodId, WakeList>> plans_;
  // Aspect objects excluded from published snapshots. Guarded by mu_;
  // entries whose last cell disappears are pruned by publish_locked().
  std::unordered_set<const Aspect*> quarantined_;
  // Declared fallback chains per method (guarded by mu_).
  std::unordered_map<runtime::MethodId, std::vector<BankEntry>> fallbacks_;
  // Health registry consulted at publish time (guarded by mu_ for writes;
  // publish_locked reads it under mu_). May be null.
  runtime::HealthRegistry* health_ = nullptr;
  // Keeps the registry's republish listener from touching a destroyed
  // bank: the subscription captures a weak_ptr of this token.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
  std::function<void()> barrier_;
  // Leaf lock guarding only the snapshot pointer swap/copy (never held
  // together with mu_ by readers; writers take mu_ then snapshot_mu_).
  // version_ is stored under it too, so a reader that copied a snapshot
  // never reads a version() older than the snapshot's epoch.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Composition> snapshot_ =
      std::make_shared<const Composition>();
  std::atomic<std::uint64_t> version_{1};
};

}  // namespace amf::core
