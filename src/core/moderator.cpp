#include "core/moderator.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "runtime/health.hpp"

namespace amf::core {

namespace {
using runtime::ErrorCode;
using runtime::FaultPoint;

// Polling quantum for deadline waits under simulated clocks.
constexpr std::chrono::microseconds kManualClockPoll{200};

// Parity a burst registers under at gen `g`: even gens map to their own
// half; odd gens (a barrier is draining) map to the NEXT half, so gate
// bypassers never inflate the side being drained.
constexpr int burst_parity(std::uint64_t g) {
  return static_cast<int>(((g + 1) >> 1) & 1);
}

// Per-thread open-span counts, per moderator, per parity. Spans must open
// and close on the same thread (the proxy runs the whole invocation on the
// caller's thread). Keyed by address; entries are pruned at zero so
// short-lived moderators don't accumulate.
struct TlSpanCount {
  const void* moderator;
  std::int64_t count[2];
};

std::vector<TlSpanCount>& tl_span_counts() {
  static thread_local std::vector<TlSpanCount> counts;
  return counts;
}

TlSpanCount* tl_find(const void* moderator) {
  for (auto& e : tl_span_counts()) {
    if (e.moderator == moderator) return &e;
  }
  return nullptr;
}

std::string join_chain_names(const CompiledChainData& cc) {
  std::string out;
  for (const CompiledOp& op : cc.ops) {
    if (!out.empty()) out += " < ";
    out += op.aspect->name();
  }
  return out;
}

// Deferred reclamation for displaced Moderation records. The fast path
// stows RAW borrows of the thread-local cache's records in the invocation
// context (admission → postactivation, always on one thread). A nested
// moderated call from the body may displace the borrowed record from its
// cache slot mid-flight; destroying it there would dangle the outer
// invocation's borrow. Displaced records are therefore parked here and
// only reclaimed when this thread holds no open span of ANY moderator —
// an open span is exactly the signature of a live borrow.
std::vector<std::shared_ptr<const void>>& tl_graveyard() {
  static thread_local std::vector<std::shared_ptr<const void>> graveyard;
  return graveyard;
}

// Exclusive phases this thread owns, across moderators. A phase admission
// opens no span, so an open phase stands in for one: its calls borrow
// records exactly like spanned calls do.
int& tl_exclusive_phases() {
  static thread_local int phases = 0;
  return phases;
}

// Parks (or, when no borrow can exist, destroys) a record displaced from
// this thread's moderation cache. tl_span_counts() entries are pruned at
// zero, so an empty vector and no exclusive phase mean no live borrow on
// this thread: nothing can be borrowing parked records, and the whole
// graveyard drains.
void tl_park(std::shared_ptr<const void> displaced) {
  if (tl_span_counts().empty() && tl_exclusive_phases() == 0) {
    tl_graveyard().clear();
    return;  // `displaced` dies here — no span, no live borrow
  }
  tl_graveyard().push_back(std::move(displaced));
}

// Process-unique moderator identity (thread-local cache key): a destroyed
// moderator's address may be reused, its nonce never is.
std::uint64_t next_instance_nonce() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// The wake target of this thread's synchronous waits: a persona only sync
// parked calls are ever enqueued on, so no unrelated async continuation
// runs inside a sync wait (where a nested sync call could deadlock on the
// outer one). One per thread serves every sync call on it: a waiter only
// ever finds its own node queued, because a node is enqueued only while
// its caller waits for it. Thread-lifetime, so a signaller may still ring
// it after the call it woke has returned.
concurrency::Persona& tl_sync_persona() {
  static thread_local concurrency::Persona persona;
  return persona;
}

// Thread-local Moderation cache capacity; small and scanned linearly —
// a process rarely touches more than a handful of (moderator, method)
// pairs per thread, and eviction only costs a rebuild.
constexpr std::size_t kTlModerationCap = 32;
}  // namespace

AspectModerator::AspectModerator(ModeratorOptions options)
    : clock_(options.clock),
      clock_real_(options.clock == &runtime::RealClock::instance()),
      log_(options.log),
      fault_(options.fault),
      watchdog_(options.watchdog),
      health_(options.health),
      nonce_(next_instance_nonce()) {
  if (options.metrics != nullptr) {
    fault_counter_ = &options.metrics->counter("moderator.aspect_faults");
    quarantine_counter_ = &options.metrics->counter("moderator.quarantines");
    stall_counter_ = &options.metrics->counter("moderator.stalls");
    latency_hist_ = &options.metrics->histogram("moderator.invocation_ns");
  }
  // Every bank mutation quiesces in-flight moderation of the old
  // composition before returning to the mutator (closes the
  // aspect-migration window, DESIGN.md §10). The same hook performs the
  // two-stage Dekker arming: `arming` turns on before the barrier so every
  // post-barrier slow section elevates lockers, and `armed` (which permits
  // hook-bearing fast records) only after the barrier has drained every
  // section that skipped the handshake.
  bank_.set_recompose_barrier([this] {
    const bool arming = !dekker_arming_.load(std::memory_order_relaxed) &&
                        bank_.any_nonblocking();
    if (arming) dekker_arming_.store(true, std::memory_order_seq_cst);
    recompose_barrier();
    if (arming) dekker_armed_.store(true, std::memory_order_seq_cst);
  });
  // Wired after the barrier hook so the initial publish already quiesces
  // correctly; the bank republishes (fallback swaps) on every health
  // transition delivered by the registry's pump()/tick().
  if (health_ != nullptr) bank_.set_health(health_);
  if (watchdog_ && watchdog_->poll.count() > 0) {
    watchdog_thread_ = std::jthread([this](std::stop_token st) {
      std::unique_lock lk(wd_mu_);
      while (!st.stop_requested()) {
        if (wd_cv_.wait_for(lk, st, watchdog_->poll, [] { return false; })) {
          break;  // stop requested
        }
        lk.unlock();
        scan_stalls();
        lk.lock();
      }
    });
  }
}

AspectModerator::~AspectModerator() = default;

Decision AspectModerator::preactivation(InvocationContext& ctx) {
  // The enqueue stamp is LAZY: hook-free fast admissions skip the clock
  // read entirely (no aspect exists to observe the timestamp, and the
  // fast path's wait_time is zero by construction) unless this call is
  // one of the 1-in-16 the latency sample keeps honest. Hook-bearing and
  // slow-path admissions always stamp — TimingAspect and the overload
  // family read enqueued_at/admitted_at.
  //
  // An exclusive phase (owner thread only; anyone else aborts here) skips
  // step 1: its admissions all take the stripped locked loop.
  const bool exclusive = exclusive_call("preactivation");
  log_event("preactivation", ctx);

  // Aspects that already received on_arrive for this invocation — persists
  // across composition epochs so retroactive arrivals fire exactly once.
  ArrivedVec arrived;

  // 1. Optimistic fast path: one lock-free attempt before any mutex. Falls
  // through on ineligibility, validation failure, or a kBlock verdict
  // (on_arrive hooks that fired carry over via `arrived`).
  if (!exclusive) {
    Decision fast{};
    if (try_fast_admission(ctx, arrived, &fast)) return fast;
  }

  // 2. Everything else is an async admission of a ParkedCall on this
  // stack, bound to this thread's sync persona (see tl_sync_persona).
  concurrency::Persona& bell = tl_sync_persona();
  ParkedCall call;
  call.ctx = &ctx;
  call.persona = &bell;
  call.owner = this;
  call.fire = &AspectModerator::async_retry;
  call.arrived = arrived;
  Decision verdict = Decision::kBlock;  // settle never reports kBlock
  call.settle.emplace([&verdict](Decision d) { verdict = d; });
  async_attempt(call, exclusive);
  if (verdict != Decision::kBlock) return verdict;  // never parked

  // 3. Wait until the call settles. Every signal (completion, barrier,
  // shutdown, eviction, stop hook) arrives as an enqueue on `bell`; only
  // the deadline is ours to watch. When it passes, the waiter unparks its
  // own node, and the retry evaluates once more (PROTOCOL §3.2) before
  // its deadline check settles kTimeout.
  // `call` may die on return: a signaller stops touching a node once its
  // enqueue has linked it, and the retry that settled it took the shard
  // locks that signaller held.
  const std::optional<runtime::TimePoint>& deadline = ctx.deadline();
  while (verdict == Decision::kBlock) {
    if (bell.progress() != 0) continue;
    if (!deadline) {
      bell.wait();
    } else if (clock_->now() >= *deadline) {
      std::scoped_lock lk(call.shard->mu);
      unpark_under_lock(call);
    } else if (clock_->is_steady_compatible()) {
      bell.wait(*deadline);
    } else {
      // Simulated clock: an advance cannot ring the bell, so poll it.
      bell.wait(std::chrono::steady_clock::now() + kManualClockPoll);
    }
  }
  return verdict;
}

void AspectModerator::postactivation(InvocationContext& ctx) {
  // Inside an exclusive phase (owner thread only; anyone else aborts here)
  // the completion takes no burst, Dekker stake or shard lock, and has
  // nothing parked to transfer.
  const bool exclusive = exclusive_call("postactivation");
  // Defensive: postactivation without a matching admission is a driver
  // bug (the proxy never does this). Running postactions for entries
  // that never happened would corrupt aspect state, so refuse and log.
  // Every admission (fast or locked) stows the moderation borrow, so its
  // absence identifies the spurious call; admitted_at can't serve here —
  // hook-free fast admissions legitimately skip the stamp.
  if (ctx.moderation_hint() == nullptr) {
    log_event("spurious-postactivation", ctx);
    return;
  }
  // Preactivation stowed a raw borrow of the admission's Moderation record
  // (kept alive through the open span: the thread-local record cache parks
  // displaced records in a graveyard until this thread's spans all close).
  const Moderation* admitted =
      static_cast<const Moderation*>(ctx.moderation_hint());

  // Optimistic fast path: an invocation admitted under a fast-eligible
  // record tries to complete lock-free. Validation failure (a waiter
  // appeared, the composition or a plan moved, a barrier is draining)
  // falls through to the locked completion below, pinning included.
  if (!exclusive && admitted != nullptr && admitted->fast_eligible &&
      try_fast_completion(*admitted, ctx)) {
    return;
  }

  // Postactions run for the chain the invocation was ADMITTED under
  // (strict G4 pairing), via its compiled plan. Without a hint (a context
  // driven through postactivation outside the normal admission flow) fall
  // back to the bank's current compiled chain.
  CompiledChain fallback;
  if (admitted == nullptr) fallback = bank_.compiled_chain(ctx.method());
  const CompiledChainData& cc =
      admitted != nullptr ? *admitted->compiled : *fallback;

  // If the record still describes the current composition we use it as-is;
  // if the bank recomposed mid-call we PIN it — the completion locks cover
  // the admitted chain's group (strict G4 pairing) UNIONED with the current
  // composition's completion set, so postactions of the admitted chain stay
  // atomic against both old sharing (what the entries synchronized with)
  // and new sharing (what concurrent evaluations lock now).
  const Moderation* hinted = admitted;
  const Moderation* pinned = nullptr;
  if (hinted != nullptr && !moderation_valid(*hinted)) {
    pinned = hinted;
    hinted = nullptr;
  }

  // Postactivation always proceeds (an open span bypasses a draining
  // barrier's gate, so completions can never deadlock against it).
  const int parity = exclusive ? -1 : burst_parity(enter_burst());
  // Same gating as preactivation: the Dekker traffic is pure overhead while
  // no fast-capable composition exists (load ordered after enter_burst).
  const bool dekker =
      !exclusive && dekker_arming_.load(std::memory_order_seq_cst);

  for (;;) {
    // Owning copy when re-resolving: postactions may re-enter the
    // moderator (nested calls) and displace the cache slot under us.
    std::shared_ptr<const Moderation> fresh;
    const Moderation* mod = hinted;
    if (mod == nullptr) {
      fresh = cached_moderation(ctx.method());
      mod = fresh.get();
    }
    hinted = nullptr;  // a recompose loop must re-resolve

    if (mod->has_plan || (pinned && pinned->has_plan)) {
      // Sharded completion: hold the completed method, its lock group (the
      // postactions may touch aspects shared with those methods) and the
      // plan's wake targets (the plan declares whose guards this completion
      // can enable). When the composition moved mid-call, the pinned
      // record's set is merged in. Ordered acquisition, then signal.
      ShardVec shards;
      SmallVec<std::uint8_t, 8> wake;
      auto append = [&](const Moderation& m) {
        for (std::size_t i = 0; i < m.completion_shards.size(); ++i) {
          shards.push_back(m.completion_shards[i]);
          wake.push_back(m.completion_wake[i]);
        }
      };
      const Moderation* stats_owner = mod;
      if (pinned) {
        append(*pinned);
        stats_owner = pinned;
      }
      append(*mod);
      if (pinned) {
        // Merge by shard id: sort, OR the wake flags of duplicates, unique.
        std::vector<std::pair<MethodState*, std::uint8_t>> merged;
        merged.reserve(shards.size());
        for (std::size_t i = 0; i < shards.size(); ++i) {
          merged.emplace_back(shards.begin()[i], wake.begin()[i]);
        }
        std::sort(merged.begin(), merged.end(),
                  [](const auto& a, const auto& b) {
                    return a.first->id < b.first->id;
                  });
        ShardVec uniq_shards;
        SmallVec<std::uint8_t, 8> uniq_wake;
        for (std::size_t i = 0; i < merged.size(); ++i) {
          if (!uniq_shards.empty() &&
              uniq_shards.begin()[uniq_shards.size() - 1] ==
                  merged[i].first) {
            auto* flags = uniq_wake.begin();
            flags[uniq_wake.size() - 1] =
                static_cast<std::uint8_t>(flags[uniq_wake.size() - 1] |
                                          merged[i].second);
            continue;
          }
          uniq_shards.push_back(merged[i].first);
          uniq_wake.push_back(merged[i].second);
        }
        shards = uniq_shards;
        wake = uniq_wake;
      }
      if (dekker) lockers_add(shards.data(), shards.size());
      {
        LockSet locks(shards.data(), exclusive ? 0 : shards.size());
        if (dekker) drain_fast_windows(shards.data(), shards.size());
        if (cc.any_post || fault_ != nullptr) {
          for (std::size_t i = cc.ops.size(); i-- > 0;) {
            guarded_postaction(cc.ops[i], ctx);
          }
        }
        stats_owner->self->stats.completed.fetch_add(
            1, std::memory_order_relaxed);
        log_event("postactivation", ctx);
        // Calls park under the shard mutex (held here), so this transfer
        // serializes with — and cannot miss — any park that saw
        // pre-completion guard state. A phase has nothing parked.
        if (!exclusive) {
          for (std::size_t i = 0; i < shards.size(); ++i) {
            if (wake.begin()[i]) {
              transfer_parked_under_lock(*shards.begin()[i]);
            }
          }
        }
      }
      if (dekker) lockers_sub(shards.data(), shards.size());
      break;
    }

    // No plan: the always-safe fallback. Holding EVERY shard makes these
    // postactions atomic against every guard evaluation — cross-method
    // state coupling that bypasses the bank (shared captures) stays
    // race-free, exactly as under the old global mutex. The shared
    // registry lock freezes the shard map so no method can appear (and
    // start evaluating on an unheld shard) mid-completion; a shard created
    // since this Moderation was built forces a rebuild. The all-shards set
    // is a superset of any pinned record's set, so stale hints need no
    // merging here.
    std::shared_lock registry(registry_mu_);
    if (mod->shard_rev != shard_rev_.load(std::memory_order_relaxed)) {
      continue;  // a shard appeared since this record was built
    }
    if (dekker) {
      lockers_add(mod->completion_shards.data(),
                  mod->completion_shards.size());
    }
    {
      LockSet locks(mod->completion_shards.data(),
                    exclusive ? 0 : mod->completion_shards.size());
      if (dekker) {
        drain_fast_windows(mod->completion_shards.data(),
                           mod->completion_shards.size());
      }
      if (cc.any_post || fault_ != nullptr) {
        for (std::size_t i = cc.ops.size(); i-- > 0;) {
          guarded_postaction(cc.ops[i], ctx);
        }
      }
      (pinned ? pinned->self : mod->self)
          ->stats.completed.fetch_add(1, std::memory_order_relaxed);
      log_event("postactivation", ctx);
      if (!exclusive) {
        for (auto* s : mod->completion_shards) transfer_parked_under_lock(*s);
      }
    }
    if (dekker) {
      lockers_sub(mod->completion_shards.data(),
                  mod->completion_shards.size());
    }
    break;
  }

  sample_latency(ctx);
  if (exclusive) {
    excl_.admitted -= 1;
  } else {
    exit_burst(parity);
  }
  close_span(ctx);
  drain_quarantine();
}

void AspectModerator::set_notification_plan(
    runtime::MethodId completed, std::vector<runtime::MethodId> wake) {
  {
    std::unique_lock registry(registry_mu_);
    notification_plan_[completed] = std::move(wake);
    // A plan changes the completer's completion set AND the wake-target
    // side of fast-path eligibility for arbitrary other methods, so every
    // cached record (shared and thread-local) must be rebuilt: bump the
    // plan revision and drop the shared cache wholesale.
    plan_rev_.fetch_add(1, std::memory_order_release);
    moderation_cache_.clear();
  }
  // Plan changes alter completion semantics; quiesce like a bank mutation
  // so in-flight waiters pick up records with the new plan.
  recompose_barrier();
}

void AspectModerator::shutdown() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::shared_lock registry(registry_mu_);
    for (auto& [_, state] : methods_) {
      // Taking the shard lock orders this transfer after any in-flight
      // attempt that missed the flag, so no call can park through
      // shutdown. The retries observe the flag and settle kCancelled.
      std::scoped_lock shard(state->mu);
      transfer_parked_under_lock(*state);
    }
  }
  // Gate-parked arrivals check the shutdown flag in their wait predicate.
  signal_barrier();
}

MethodStats AspectModerator::stats(runtime::MethodId method) const {
  std::shared_lock registry(registry_mu_);
  auto it = methods_.find(method);
  if (it == methods_.end()) return MethodStats{};
  // Atomic cells: no shard lock needed (and none would make the snapshot
  // more consistent — the fast path updates outside it anyway).
  return it->second->stats.snapshot();
}

std::uint64_t AspectModerator::blocked_waiters() const {
  // Parked calls, sync waiters and async frames alike; never negative. It
  // dips transiently while a node is between a transfer and its retry's
  // re-park; racy diagnostics.
  return static_cast<std::uint64_t>(parked_.load(std::memory_order_relaxed));
}

std::string AspectModerator::report() const {
  std::string out = bank_.describe();
  std::shared_lock registry(registry_mu_);
  // Stable order for diff-friendly output.
  std::vector<MethodState*> states;
  states.reserve(methods_.size());
  for (const auto& [_, state] : methods_) states.push_back(state.get());
  std::sort(states.begin(), states.end(),
            [](const MethodState* a, const MethodState* b) {
              return a->id.name() < b->id.name();
            });
  for (auto* state : states) {
    const MethodStats s = state->stats.snapshot();
    out += std::string(state->id.name()) + ": admitted=" +
           std::to_string(s.admitted) +
           " completed=" + std::to_string(s.completed) +
           " aborted=" + std::to_string(s.aborted) +
           " timed_out=" + std::to_string(s.timed_out) +
           " cancelled=" + std::to_string(s.cancelled) +
           " block_events=" + std::to_string(s.block_events) + '\n';
  }
  return out;
}

// --- failure containment ---------------------------------------------------

std::uint64_t AspectModerator::fault_count(const Aspect* aspect) const {
  std::scoped_lock lock(fault_mu_);
  auto it = fault_counts_.find(aspect);
  return it == fault_counts_.end() ? 0 : it->second;
}

bool AspectModerator::unquarantine(const Aspect* aspect) {
  {
    std::scoped_lock lock(fault_mu_);
    fault_counts_.erase(aspect);
    // A still-pending entry would re-quarantine on the next drain.
    std::erase_if(pending_quarantine_,
                  [&](const AspectPtr& p) { return p.get() == aspect; });
  }
  if (!bank_.unquarantine(aspect)) return false;
  if (log_ != nullptr) {
    log_->append("bank", std::string("unquarantine:") +
                             std::string(aspect->name()));
  }
  return true;
}

void AspectModerator::record_fault(const AspectPtr& aspect,
                                   std::string_view phase,
                                   InvocationContext& ctx) {
  if (fault_counter_ != nullptr) fault_counter_->add();
  ctx.set_note("faulted.by", aspect->name());
  ctx.set_note("faulted.phase", phase);
  log_event("aspect-fault", ctx);
  const FaultPolicy policy = aspect->fault_policy();
  std::scoped_lock lock(fault_mu_);
  const std::uint64_t count = ++fault_counts_[aspect.get()];
  if (policy.mode == FaultPolicy::Mode::kQuarantine &&
      count >= policy.threshold) {
    const bool pending =
        std::find_if(pending_quarantine_.begin(), pending_quarantine_.end(),
                     [&](const AspectPtr& p) {
                       return p.get() == aspect.get();
                     }) != pending_quarantine_.end();
    if (!pending) {
      pending_quarantine_.push_back(aspect);
      quarantine_pending_.store(true, std::memory_order_release);
    }
  }
}

void AspectModerator::drain_quarantine() {
  // Every completion passes here: read before the exchange, so the common
  // nothing-pending case costs a load, not a locked RMW.
  if (!quarantine_pending_.load(std::memory_order_acquire) ||
      !quarantine_pending_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  std::vector<AspectPtr> batch;
  {
    std::scoped_lock lock(fault_mu_);
    batch.swap(pending_quarantine_);
  }
  for (const AspectPtr& aspect : batch) {
    // quarantine() publishes a new composition and runs the recomposition
    // barrier, so blocked callers re-evaluate without the aspect.
    if (bank_.quarantine(aspect.get())) {
      if (quarantine_counter_ != nullptr) quarantine_counter_->add();
      if (log_ != nullptr) {
        log_->append("bank", std::string("quarantine:") +
                                 std::string(aspect->name()));
      }
      if (health_ != nullptr) {
        // Quarantine as a health-registry client (DESIGN.md §17): the
        // aspect becomes a fenced "aspect/<name>" resource whose probe
        // restores it (resetting its fault count) after the hysteresis
        // window. We run outside bursts here, but the probe itself fires
        // from the registry's tick — also outside any burst — so the
        // unquarantine republish + barrier is safe in both places.
        std::string resource = "aspect/" + std::string(aspect->name());
        health_->track(
            resource,
            [this, alive = std::weak_ptr<int>(health_alive_),
             weak = std::weak_ptr<Aspect>(aspect)] {
              const auto token = alive.lock();
              if (!token) return true;  // moderator gone: nothing to do
              const auto a = weak.lock();
              if (!a) return true;  // aspect gone: report recovered
              if (!bank_.is_quarantined(a.get())) return true;
              return unquarantine(a.get());
            });
        health_->report_fenced(resource, "quarantined");
      }
    }
  }
}

void AspectModerator::guarded_on_arrive(const CompiledOp& op,
                                        InvocationContext& ctx) {
  if (op.hooks.on_arrive == nullptr) return;
  try {
    op.hooks.on_arrive(*op.aspect, ctx);
  } catch (...) {
    record_fault(*op.owner, "on_arrive", ctx);
  }
}

void AspectModerator::guarded_on_cancel(const CompiledChainData& cc,
                                        InvocationContext& ctx) {
  if (!cc.any_cancel) return;
  for (const CompiledOp& op : cc.ops) {
    if (op.hooks.on_cancel == nullptr) continue;
    try {
      op.hooks.on_cancel(*op.aspect, ctx);
    } catch (...) {
      record_fault(*op.owner, "on_cancel", ctx);
    }
  }
}

void AspectModerator::guarded_entry(const CompiledOp& op,
                                    InvocationContext& ctx) {
  if (op.hooks.entry != nullptr) {
    try {
      op.hooks.entry(*op.aspect, ctx);
    } catch (...) {
      record_fault(*op.owner, "entry", ctx);
    }
  }
  // Injected entry faults fire AFTER the real hook (a throw at its end):
  // the aspect's phase bookkeeping stays consistent either way, and the
  // admission stands so entry ≺ postaction pairing is preserved. The
  // injection point fires per op even when the hook slot is null, keeping
  // the chaos schedule independent of which hooks a chain compiles.
  if (AMF_FAULT_FIRE(fault_, FaultPoint::kEntry)) {
    record_fault(*op.owner, "entry", ctx);
  }
}

void AspectModerator::guarded_postaction(const CompiledOp& op,
                                         InvocationContext& ctx) {
  if (op.hooks.postaction != nullptr) {
    try {
      op.hooks.postaction(*op.aspect, ctx);
    } catch (...) {
      record_fault(*op.owner, "postaction", ctx);
    }
  }
  if (AMF_FAULT_FIRE(fault_, FaultPoint::kPostaction)) {
    record_fault(*op.owner, "postaction", ctx);
  }
}

// --- recomposition barrier -------------------------------------------------

std::uint64_t AspectModerator::enter_burst() {
  for (;;) {
    const std::uint64_t g = gen_.load(std::memory_order_seq_cst);
    if ((g & 1) != 0 && !holds_open_span()) {
      // A barrier is draining and this thread has no stake in the old
      // composition: park until the gate reopens.
      std::unique_lock lk(bar_mu_);
      bar_cv_.wait(lk, [&] {
        return (gen_.load(std::memory_order_seq_cst) & 1) == 0 ||
               shutdown_.load(std::memory_order_acquire);
      });
      continue;
    }
    const int p = burst_parity(g);
    bursts_[static_cast<std::size_t>(p)].fetch_add(
        1, std::memory_order_seq_cst);
    const std::uint64_t g2 = gen_.load(std::memory_order_seq_cst);
    if (burst_parity(g2) == p) return g2;
    // The world flipped parity between the load and the increment: this
    // registration may have been missed by the draining barrier. Undo
    // (waking the barrier if it saw the transient count) and retry.
    exit_burst(p);
  }
}

void AspectModerator::exit_burst(int parity) {
  bursts_[static_cast<std::size_t>(parity)].fetch_sub(
      1, std::memory_order_seq_cst);
  if ((gen_.load(std::memory_order_seq_cst) & 1) != 0) signal_barrier();
}

void AspectModerator::adopt_span(InvocationContext& ctx, int parity) {
  TlSpanCount* e = tl_find(this);
  if (e == nullptr) {
    tl_span_counts().push_back(TlSpanCount{this, {0, 0}});
    e = &tl_span_counts().back();
  }
  e->count[parity] += 1;
  ctx.set_span_parity(parity);
}

void AspectModerator::close_span(InvocationContext& ctx) {
  const int parity = ctx.span_parity();
  if (parity < 0) return;
  ctx.set_span_parity(-1);
  if (TlSpanCount* e = tl_find(this)) {
    e->count[parity] -= 1;
    if (e->count[0] == 0 && e->count[1] == 0) {
      auto& v = tl_span_counts();
      v.erase(v.begin() + (e - v.data()));
    }
  }
  spans_[static_cast<std::size_t>(parity)].fetch_sub(
      1, std::memory_order_seq_cst);
  if ((gen_.load(std::memory_order_seq_cst) & 1) != 0) signal_barrier();
}

bool AspectModerator::holds_open_span() const {
  const TlSpanCount* e = tl_find(this);
  return e != nullptr && (e->count[0] > 0 || e->count[1] > 0);
}

std::int64_t AspectModerator::own_spans(int parity) const {
  const TlSpanCount* e = tl_find(this);
  return e == nullptr ? 0 : e->count[parity];
}

void AspectModerator::signal_barrier() {
  std::scoped_lock lk(bar_mu_);
  bar_cv_.notify_all();
}

void AspectModerator::recompose_barrier() {
  std::unique_lock serial(barrier_serial_mu_);
  // Another thread's exclusive phase runs with no burst or span to drain
  // against: wait for it to end. The owner's own barriers (quarantine
  // drains, recompositions between its calls) run at once.
  excl_cv_.wait(serial, [&] {
    return !excl_.on.load(std::memory_order_acquire) ||
           excl_.owner.load(std::memory_order_relaxed) ==
               std::this_thread::get_id();
  });
  // Close the gate. Bursts registered before this flip belong to the old
  // parity; new arrivals park (or, holding an open span, register on the
  // new side).
  const std::uint64_t g = gen_.fetch_add(1, std::memory_order_seq_cst);
  const auto old_parity = static_cast<std::size_t>(burst_parity(g));
  // Transfer every parked call. Parked nodes hold no burst and no span,
  // so the drain below never waits on them — but their pinned Moderation
  // records are stale after this flip; the retries re-enter through the
  // gate and recompose. The shard lock orders the transfer after any
  // attempt that evaluated before the flip, so none parks through it.
  {
    std::shared_lock registry(registry_mu_);
    for (auto& [_, state] : methods_) {
      std::scoped_lock shard(state->mu);
      transfer_parked_under_lock(*state);
    }
  }
  // Drain: no old-parity burst may still be evaluating, and every old
  // admission must have completed its postactivation — except this
  // thread's own spans (an aspect-migration barrier triggered from within
  // a body, e.g. a self-reconfiguring component, must not wait on itself).
  {
    std::unique_lock lk(bar_mu_);
    bar_cv_.wait(lk, [&] {
      return bursts_[old_parity].load(std::memory_order_seq_cst) == 0 &&
             spans_[old_parity].load(std::memory_order_seq_cst) ==
                 own_spans(static_cast<int>(old_parity));
    });
  }
  // Reopen the gate and release parked arrivals.
  gen_.fetch_add(1, std::memory_order_seq_cst);
  signal_barrier();
}

// --- exclusive phase -------------------------------------------------------

void AspectModerator::exclusive_abort(const char* what, const char* where) {
  std::fprintf(stderr, "amf: exclusive phase violated: %s (%s)\n", what,
               where);
  std::abort();
}

void AspectModerator::begin_exclusive() {
  // Checked before the serial lock: a barrier run now would wait on this
  // very thread's span and never let begin proceed.
  if (holds_open_span()) {
    exclusive_abort("the calling thread has an admitted call open",
                    "begin_exclusive");
  }
  // Serialized with barriers: none is mid-drain while the phase starts.
  std::scoped_lock serial(barrier_serial_mu_);
  // Acquire: the hooks of every call that already closed its burst or
  // span (fast windows included) happen-before the phase's unlocked hooks.
  const auto live = [](const std::array<std::atomic<std::int64_t>, 2>& c) {
    return c[0].load(std::memory_order_acquire) +
           c[1].load(std::memory_order_acquire);
  };
  const char* refusal = nullptr;
  if (excl_.on.load(std::memory_order_relaxed)) {
    refusal = "a phase is already active";
  } else if (shutdown_.load(std::memory_order_acquire)) {
    refusal = "the moderator is shut down";
  } else if (live(bursts_) != 0) {
    refusal = "a moderation burst is in flight";
  } else if (live(spans_) != 0) {
    refusal = "an admitted call has not completed";
  } else if (parked_.load(std::memory_order_relaxed) != 0) {
    refusal = "a call is parked";
  }
  if (refusal != nullptr) exclusive_abort(refusal, "begin_exclusive");
  // Lock each shard once: every earlier locked section happens-before the
  // phase's unlocked hooks, and the parked lists are confirmed empty.
  {
    std::shared_lock registry(registry_mu_);
    for (auto& [_, state] : methods_) {
      std::scoped_lock shard(state->mu);
      if (state->park_head != nullptr) {
        exclusive_abort("a call is parked", "begin_exclusive");
      }
    }
  }
  excl_.owner.store(std::this_thread::get_id(), std::memory_order_relaxed);
  excl_.on.store(true, std::memory_order_release);
  tl_exclusive_phases() += 1;
}

void AspectModerator::end_exclusive() {
  if (!excl_.on.load(std::memory_order_acquire) ||
      excl_.owner.load(std::memory_order_relaxed) !=
          std::this_thread::get_id()) {
    exclusive_abort("no phase owned by the calling thread", "end_exclusive");
  }
  if (excl_.admitted != 0) {
    exclusive_abort("a call admitted in the phase has not completed",
                    "end_exclusive");
  }
  {
    std::scoped_lock serial(barrier_serial_mu_);
    excl_.on.store(false, std::memory_order_release);
  }
  excl_cv_.notify_all();
  tl_exclusive_phases() -= 1;
}

// --- stall watchdog --------------------------------------------------------

std::shared_ptr<AspectModerator::StallRecord>
AspectModerator::make_stall_record(const InvocationContext& ctx,
                                   const CompiledChainData& cc,
                                   MethodState& ms) {
  auto rec = std::make_shared<StallRecord>();
  rec->invocation_id = ctx.id();
  rec->method = ctx.method();
  rec->blocked_since = clock_->now();
  rec->deadline = ctx.deadline();
  rec->chain = join_chain_names(cc);
  rec->blocked_by = std::string(ctx.note_view("blocked.by").value_or("?"));
  rec->shard = &ms;
  std::scoped_lock lock(stalls_mu_);
  stalls_[rec->invocation_id] = rec;
  return rec;
}

void AspectModerator::unregister_stall_record(std::uint64_t invocation_id) {
  std::scoped_lock lock(stalls_mu_);
  stalls_.erase(invocation_id);
}

std::size_t AspectModerator::scan_stalls() {
  if (!watchdog_) return 0;
  const runtime::TimePoint now = clock_->now();
  // Two-phase to respect the lock hierarchy: collect candidates under the
  // leaf stalls_mu_, then (lock-free of it) dump and evict. Records are
  // shared_ptrs, so a waiter unregistering concurrently is harmless.
  std::vector<std::shared_ptr<StallRecord>> stalled;
  {
    std::scoped_lock lock(stalls_mu_);
    for (const auto& [_, rec] : stalls_) {
      if (rec->evicted.load(std::memory_order_acquire)) continue;
      const bool is_stalled =
          rec->deadline
              ? now > *rec->deadline + watchdog_->grace
              : (watchdog_->stall_after.count() > 0 &&
                 now - rec->blocked_since > watchdog_->stall_after);
      if (is_stalled) stalled.push_back(rec);
    }
  }
  std::size_t fresh = 0;
  for (const auto& rec : stalled) {
    if (!rec->reported.exchange(true, std::memory_order_acq_rel)) {
      fresh += 1;
      if (stall_counter_ != nullptr) stall_counter_->add();
      if (log_ != nullptr) {
        const auto waited = now - rec->blocked_since;
        std::string msg = "stall:";
        msg += rec->method.name();
        msg += " blocked_by=";
        msg += rec->blocked_by;
        msg += " chain=[";
        msg += rec->chain;
        msg += "] waited_ns=";
        msg += std::to_string(
            std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
                .count());
        log_->append("watchdog", msg, rec->invocation_id);
      }
    }
    if (watchdog_->abort_stalled) {
      // The retry of the unparked node aborts with kDeadlineExceeded.
      rec->evicted.store(true, std::memory_order_release);
      std::scoped_lock shard(rec->shard->mu);
      if (rec->parked != nullptr) unpark_under_lock(*rec->parked);
    }
  }
  return fresh;
}

// --- asynchronous moderation (DESIGN.md §18) -------------------------------

void AspectModerator::preactivation_async(ParkedCall& call) {
  call.owner = this;
  call.fire = &AspectModerator::async_retry;
  if (call.persona == nullptr) {
    call.persona = &concurrency::Persona::current();
  }
  InvocationContext& ctx = *call.ctx;
  const bool exclusive = exclusive_call("preactivation_async");
  log_event("preactivation", ctx);
  // One lock-free attempt first, exactly like the synchronous entry.
  Decision fast{};
  if (!exclusive && try_fast_admission(ctx, call.arrived, &fast)) {
    settle_async(call, fast);
    return;
  }
  async_attempt(call, exclusive);
}

void AspectModerator::async_retry(concurrency::ProgressNode* node) {
  auto* call = static_cast<ParkedCall*>(node);
  call->state.store(ParkedCall::State::kIdle, std::memory_order_relaxed);
  AspectModerator& owner = *call->owner;
  owner.async_attempt(*call, owner.exclusive_call("a parked call's retry"));
}

void AspectModerator::StopHook::operator()() const noexcept {
  // Runs on the requesting thread, or inline at registration when the stop
  // already fired. The shard lock orders it against the call's attempts:
  // a parked node is handed to its persona, whose retry settles
  // kCancelled; an attempt in flight checks the token itself.
  std::scoped_lock lk(call->shard->mu);
  call->owner->unpark_under_lock(*call);
}

void AspectModerator::settle_async(ParkedCall& call, Decision verdict) {
  if (call.stall_rec) {
    unregister_stall_record(call.ctx->id());
    call.stall_rec.reset();
  }
  // Before `settle` may destroy the frame: waits out a hook running on
  // another thread (it finds the node unparked and does nothing).
  call.stop_hook.reset();
  // Drop the parked-record pin outside every lock: releasing the last
  // reference may destroy a whole retired composition (aspect dtors run).
  call.mod.reset();
  call.settle.fire(verdict);
}

void AspectModerator::async_attempt(ParkedCall& call, bool exclusive) {
  InvocationContext& ctx = *call.ctx;
  stamp_arrival(ctx);

  // Each attempt (initial submit or signalled retry) is one burst; a
  // PARKED node holds neither burst, span nor lockers stake — that is what
  // makes it a cheap, sheddable queue entry the recomposition barrier can
  // drain past (the barrier transfers parked nodes, and their retries
  // re-enter through the gate like any fresh arrival). An exclusive-phase
  // attempt registers no burst and admits with parity -1 (no span): a
  // barrier can only run from the owner itself, between calls, because
  // other threads' barriers wait for the phase to end.
  for (;;) {
    const std::uint64_t burst_gen =
        exclusive ? gen_.load(std::memory_order_relaxed) : enter_burst();
    const int parity = exclusive ? -1 : burst_parity(burst_gen);
    // Borrowed from this thread's cache slot, as on the fast path: hooks
    // may not call back into the moderator, so nothing in this attempt
    // displaces it. Only a call that parks pins a copy (call.mod).
    const std::shared_ptr<const Moderation>& mod =
        cached_moderation(ctx.method());
    const CompiledChainData& cc = *mod->compiled;
    MethodState& ms = *mod->self;
    if (call.shard == nullptr) {
      call.shard = &ms;
      // Outside every lock: a stop that already fired runs the hook here.
      if (ctx.stop()) call.stop_hook.emplace(*ctx.stop(), StopHook{&call});
    }

    enum class Att { kSettled, kParked, kRecompose };
    Decision verdict = Decision::kBlock;

    // Runs with the WHOLE eval shard set locked. Only the guard re-check
    // after the sleepers_ raise needs care: every other wake source
    // (shutdown, eviction, stop, barrier, locked completions) takes this
    // shard's mutex to unpark, so it serializes with the park itself.
    auto attempt = [&]() -> Att {
      // G1/G5: every refusal below runs on_cancel, so arrive first.
      arrive_once(cc, ctx, call.arrived);
      if (shutdown_.load(std::memory_order_acquire)) {
        verdict = Decision::kAbort;
        ctx.set_abort_error(runtime::make_error(ErrorCode::kCancelled,
                                                "moderator shut down"));
      } else if (call.stall_rec &&
                 call.stall_rec->evicted.load(std::memory_order_acquire)) {
        verdict = Decision::kAbort;
        ctx.set_abort_error(runtime::make_error(
            ErrorCode::kDeadlineExceeded,
            "evicted by stall watchdog while blocked"));
      } else {
        // Deterministic chaos point under the eval-shard locks: a seeded
        // kDelay stretches the critical section before the guards run,
        // widening the windows in which waiters time out, stop requests
        // land and barriers flip the gate (batch_chaos_test).
        if (AMF_FAULT_FIRE(fault_, FaultPoint::kDelay)) {
          std::this_thread::sleep_for(fault_->delay(FaultPoint::kDelay));
        }
        // A gen move means a recomposition barrier is (or was) draining
        // this burst's side; fall out so the barrier can complete.
        if (gen_.load(std::memory_order_seq_cst) != burst_gen ||
            bank_.version() != mod->epoch) {
          return Att::kRecompose;
        }
        verdict = evaluate_chain_under_locks(cc, ctx);
      }

      if (verdict == Decision::kBlock) {
        ctx.note_blocked();
        // Timed escapes, checked after this (re-)evaluation: a chain that
        // passes at its deadline still admits (PROTOCOL §3.2). A waiter
        // whose deadline or stop fires unparks its node to get here. In an
        // exclusive phase no other thread runs, so nothing could ever
        // release the call: it times out at once.
        if (exclusive) {
          verdict = Decision::kAbort;
          ctx.set_abort_error(runtime::make_error(
              ErrorCode::kTimeout,
              "blocked in an exclusive phase: nothing can release it"));
        } else if (ctx.deadline() && now_fast() >= *ctx.deadline()) {
          verdict = Decision::kAbort;
          ctx.set_abort_error(runtime::make_error(
              ErrorCode::kTimeout, "deadline expired during preactivation"));
        } else if (ctx.stop() && ctx.stop()->stop_requested()) {
          verdict = Decision::kAbort;
          ctx.set_abort_error(runtime::make_error(
              ErrorCode::kCancelled, "stop requested while blocked"));
        } else {
          if (!call.announced_block) {
            call.announced_block = true;
            ms.stats.block_events.fetch_add(1, std::memory_order_relaxed);
            log_event("blocked", ctx);
          }
          // Raise the sleeper stake BEFORE the final guard re-check: a
          // fast completion that validates sleepers_ == 0 afterwards is
          // ordered before this seq_cst RMW, so the re-check observes its
          // effects; one that validated earlier defers to the locked slow
          // path, which signals under this very mutex.
          sleepers_.fetch_add(1, std::memory_order_seq_cst);
          verdict = evaluate_chain_under_locks(cc, ctx);
          if (verdict == Decision::kBlock) {
            if (watchdog_) {
              if (!call.stall_rec) {
                call.stall_rec = make_stall_record(ctx, cc, ms);
              }
              call.stall_rec->parked = &call;
            }
            // Pin the record: the parked node's `arrived` dedup compares
            // aspect addresses at the next retry, so the chain (and its
            // aspects) must stay alive while parked.
            call.mod = mod;
            call.plink = nullptr;
            if (ms.park_tail != nullptr) {
              ms.park_tail->plink = &call;
            } else {
              ms.park_head = &call;
            }
            ms.park_tail = &call;
            call.state.store(ParkedCall::State::kParked,
                             std::memory_order_release);
            parked_.fetch_add(1, std::memory_order_relaxed);
            // The node may be transferred (and retried on another persona)
            // the moment the shard unlocks — it must not be touched again
            // on this code path.
            return Att::kParked;
          }
          sleepers_.fetch_sub(1, std::memory_order_seq_cst);
        }
      }

      if (verdict == Decision::kAbort) {
        book_refusal(cc, ms, ctx);
        return Att::kSettled;
      }
      if (exclusive) {
        // Nothing waited, so the arrival stamp is the admission stamp.
        commit_admission(*mod, ctx, ctx.enqueued_at(), parity);
        return Att::kSettled;
      }
      spans_[static_cast<std::size_t>(parity)].fetch_add(
          1, std::memory_order_seq_cst);
      commit_admission(*mod, ctx, now_fast(), parity);
      return Att::kSettled;
    };

    // Dekker handshake with the fast path: raise `lockers` on the whole
    // shard set BEFORE locking, then drain open fast windows under the
    // locks before any hook runs. Skipped entirely while no fast-capable
    // aspect exists (dekker: loaded AFTER enter_burst, so the arming
    // barrier's gen flip orders this section after the store). An
    // exclusive phase locks zero shards and skips the handshake.
    Att att;
    const std::size_t nshards = exclusive ? 0 : mod->eval_shards.size();
    const bool dekker =
        !exclusive && dekker_arming_.load(std::memory_order_seq_cst);
    if (dekker) lockers_add(mod->eval_shards.data(), nshards);
    if (nshards == 1) {
      std::scoped_lock lk(ms.mu);
      if (dekker) drain_fast_windows(mod->eval_shards.data(), nshards);
      att = attempt();
    } else {
      LockSet locks(mod->eval_shards.data(), nshards);
      if (dekker) drain_fast_windows(mod->eval_shards.data(), nshards);
      att = attempt();
    }
    if (dekker) lockers_sub(mod->eval_shards.data(), nshards);
    if (!exclusive) exit_burst(parity);
    if (att == Att::kRecompose) continue;
    if (att == Att::kParked) return;
    // Safe point: no burst, no span. Admitted callers defer their drain
    // to the end of postactivation.
    if (verdict == Decision::kAbort) drain_quarantine();
    settle_async(call, verdict);
    return;
  }
}

void AspectModerator::unpark_under_lock(ParkedCall& node) {
  if (node.state.load(std::memory_order_relaxed) !=
      ParkedCall::State::kParked) {
    return;  // being evaluated, already transferred, or settled
  }
  MethodState& s = *node.shard;
  ParkedCall** link = &s.park_head;
  ParkedCall* prev = nullptr;
  while (*link != &node) {
    prev = *link;
    link = &prev->plink;
  }
  *link = node.plink;
  if (s.park_tail == &node) s.park_tail = prev;
  node.plink = nullptr;
  if (node.stall_rec) node.stall_rec->parked = nullptr;
  node.state.store(ParkedCall::State::kSignaled, std::memory_order_release);
  parked_.fetch_sub(1, std::memory_order_relaxed);
  sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  // After enqueue the persona's owner may run (and even destroy) the node
  // immediately — nothing below may touch it.
  node.persona->enqueue(&node);
}

void AspectModerator::transfer_parked_under_lock(MethodState& s) {
  while (s.park_head != nullptr) unpark_under_lock(*s.park_head);
}

// ---------------------------------------------------------------------------

std::shared_ptr<const AspectModerator::Moderation>
AspectModerator::moderation_for(runtime::MethodId method) {
  const std::uint64_t epoch = bank_.version();
  {
    std::shared_lock registry(registry_mu_);
    auto it = moderation_cache_.find(method);
    if (it != moderation_cache_.end() && it->second->epoch == epoch &&
        it->second->plan_rev ==
            plan_rev_.load(std::memory_order_relaxed) &&
        (it->second->has_plan ||
         it->second->shard_rev ==
             shard_rev_.load(std::memory_order_relaxed))) {
      return it->second;
    }
  }

  // (Re)build. Chain, lock group and the non-blocking classification come
  // from ONE bank snapshot, so the group always covers exactly the
  // sharing this chain has.
  CompiledChain compiled;
  LockGroup group;
  bool chain_nonblocking = false;
  bank_.snapshot_for(method, &compiled, &group, &chain_nonblocking);

  auto mod = std::make_shared<Moderation>();
  mod->epoch = epoch;  // conservative: if the bank already moved past
                       // `epoch`, the next lookup simply rebuilds
  mod->compiled = std::move(compiled);

  std::unique_lock registry(registry_mu_);
  auto ensure = [&](runtime::MethodId id) -> MethodState* {
    auto [it, inserted] = methods_.try_emplace(id, nullptr);
    if (inserted) {
      it->second = std::make_unique<MethodState>(id);
      shard_rev_.fetch_add(1, std::memory_order_release);
    }
    return it->second.get();
  };

  if (group) {
    mod->eval_shards.reserve(group->size());
    for (const auto id : *group) mod->eval_shards.push_back(ensure(id));
  } else {
    mod->eval_shards.push_back(ensure(method));
  }
  for (auto* s : mod->eval_shards) {
    if (s->id == method) mod->self = s;
  }

  auto plan_it = notification_plan_.find(method);
  mod->has_plan = plan_it != notification_plan_.end();
  if (mod->has_plan) {
    const std::vector<runtime::MethodId>& targets = plan_it->second;
    SmallVec<runtime::MethodId, 8> ids;
    ids.push_back(method);
    if (group) {
      for (const auto id : *group) ids.push_back(id);
    }
    for (const auto id : targets) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    ids.truncate(static_cast<std::size_t>(
        std::unique(ids.begin(), ids.end()) - ids.begin()));
    mod->completion_shards.reserve(ids.size());
    mod->completion_wake.reserve(ids.size());
    for (const auto id : ids) {
      mod->completion_shards.push_back(ensure(id));
      mod->completion_wake.push_back(
          std::find(targets.begin(), targets.end(), id) != targets.end() ? 1
                                                                         : 0);
    }
  } else {
    mod->completion_shards.reserve(methods_.size());
    for (auto& [_, state] : methods_) {
      mod->completion_shards.push_back(state.get());
    }
    std::sort(mod->completion_shards.begin(), mod->completion_shards.end(),
              [](const MethodState* a, const MethodState* b) {
                return a->id < b->id;
              });
    mod->completion_wake.assign(mod->completion_shards.size(), 1);
  }
  // G6: admission holds the SAME shard set as completion. Entries commit
  // state the plan (or the no-plan lock-everything default) declares other
  // methods' guards may read — holding only the lock group would let a
  // plan-coupled guard evaluation race an entry() on shared captures the
  // bank cannot see. completion_shards is a superset of the group, so
  // nothing is lost; self-plans keep single-shard admission.
  mod->eval_shards = mod->completion_shards;
  mod->shard_rev = shard_rev_.load(std::memory_order_relaxed);
  mod->plan_rev = plan_rev_.load(std::memory_order_relaxed);
  // Fast-path eligibility (DESIGN.md §11): non-blocking chain, no plan as
  // completer, and not a wake target in ANY plan (being named a target
  // declares that other methods' completions influence this guard — keep
  // such methods on the locked path). Scanned here, once per rebuild.
  bool wake_target = false;
  for (const auto& [_, targets] : notification_plan_) {
    if (std::find(targets.begin(), targets.end(), method) !=
        targets.end()) {
      wake_target = true;
      break;
    }
  }
  // Hook-bearing records additionally require the Dekker handshake to be
  // ARMED (second stage): only after the arming barrier drained every slow
  // section that skipped the lockers elevation may a fast op run hooks
  // outside the locks. Empty chains run no hooks, so they stay eligible
  // regardless — their fast ops skip the handshake entirely.
  mod->fast_eligible =
      chain_nonblocking && !mod->has_plan && !wake_target &&
      (mod->compiled->entries.empty() ||
       dekker_armed_.load(std::memory_order_seq_cst));
  moderation_cache_[method] = mod;
  return mod;
}

// --- optimistic fast path (DESIGN.md §11) ----------------------------------

const std::shared_ptr<const AspectModerator::Moderation>&
AspectModerator::cached_moderation(runtime::MethodId method) {
  struct TlEntry {
    std::uint64_t nonce;
    runtime::MethodId method;
    std::shared_ptr<const Moderation> mod;
  };
  static thread_local std::vector<TlEntry> cache;

  for (auto& e : cache) {
    if (e.nonce != nonce_ || !(e.method == method)) continue;
    const Moderation& m = *e.mod;
    if (m.epoch == bank_.version() &&
        m.plan_rev == plan_rev_.load(std::memory_order_acquire) &&
        (m.has_plan ||
         m.shard_rev == shard_rev_.load(std::memory_order_acquire))) {
      return e.mod;
    }
    // Refresh in place; the stale record may still be borrowed raw by an
    // in-flight invocation on this thread (nested call), so park it.
    std::shared_ptr<const Moderation> rebuilt = moderation_for(method);
    tl_park(std::move(e.mod));
    e.mod = std::move(rebuilt);
    return e.mod;
  }
  auto mod = moderation_for(method);
  if (cache.size() >= kTlModerationCap) {
    tl_park(std::move(cache.front().mod));
    cache.erase(cache.begin());
  }
  cache.push_back(TlEntry{nonce_, method, std::move(mod)});
  return cache.back().mod;
}

void AspectModerator::lockers_add(MethodState* const* shards,
                                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    shards[i]->lockers.fetch_add(1, std::memory_order_seq_cst);
  }
}

void AspectModerator::lockers_sub(MethodState* const* shards,
                                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    shards[i]->lockers.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void AspectModerator::drain_fast_windows(MethodState* const* shards,
                                         std::size_t n) {
  // One pass suffices: any window that VALIDATED (and so may be running
  // hooks) opened before our lockers increment and is caught here; a
  // window opened after it fails validation and closes without hooks.
  // Reading 0 through the seq_cst release sequence of the closing
  // fetch_subs makes every fast hook's writes visible to the locked
  // section that follows.
  for (std::size_t i = 0; i < n; ++i) {
    while (shards[i]->fast_windows.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }
}

bool AspectModerator::try_fast_admission(InvocationContext& ctx,
                                         ArrivedVec& arrived,
                                         Decision* decision) {
  // Cheap pre-checks outside the window: shutdown and drain bookkeeping
  // belong to the slow path; a raised lockers count or a draining barrier
  // would fail validation anyway, so don't even open a window.
  if (shutdown_.load(std::memory_order_acquire)) return false;
  // Borrowed from the cache's owning slot: nothing below displaces it
  // (the hooks contract forbids calling back into the moderator), and the
  // graveyard keeps the record alive once it is stowed in the context.
  const std::shared_ptr<const Moderation>& mod =
      cached_moderation(ctx.method());
  if (!mod->fast_eligible) return false;
  MethodState* self = mod->self;
  const CompiledChainData& cc = *mod->compiled;
  // Hook-free ops (empty chain) skip the whole Dekker handshake: they read
  // and write nothing an elevated slow section could be protecting, so
  // neither the lockers check nor a fast window is needed for them.
  const bool hooked = !cc.ops.empty();
  if (hooked && self->lockers.load(std::memory_order_seq_cst) != 0) {
    return false;
  }
  const std::uint64_t g = gen_.load(std::memory_order_seq_cst);
  if ((g & 1) != 0) return false;

  // Register the SPAN directly as this invocation's stake in the
  // recomposition barrier — no separate burst. The seq_cst RMW totally
  // orders us against a concurrent gen flip: either the draining barrier
  // observes this span and waits, or the flip precedes the RMW and the
  // gen re-read below fails validation (gen never returns to g), in which
  // case the registration is undone. On admission the same increment
  // simply BECOMES the invocation's span (adopt_span adds only the
  // thread-local bookkeeping), so the whole admission costs one spans_
  // RMW instead of burst-in, span-open, burst-out.
  const int parity = burst_parity(g);
  spans_[static_cast<std::size_t>(parity)].fetch_add(
      1, std::memory_order_seq_cst);
  const auto undo_span = [&] {
    spans_[static_cast<std::size_t>(parity)].fetch_sub(
        1, std::memory_order_seq_cst);
    if ((gen_.load(std::memory_order_seq_cst) & 1) != 0) signal_barrier();
  };
  if (hooked) self->fast_windows.fetch_add(1, std::memory_order_seq_cst);
  const bool valid =
      (!hooked ||
       self->lockers.load(std::memory_order_seq_cst) == 0) &&
      gen_.load(std::memory_order_seq_cst) == g &&
      bank_.version() == mod->epoch &&
      plan_rev_.load(std::memory_order_acquire) == mod->plan_rev &&
      !shutdown_.load(std::memory_order_acquire);
  if (!valid) {
    if (hooked) self->fast_windows.fetch_sub(1, std::memory_order_seq_cst);
    undo_span();
    return false;
  }

  // Hook-bearing admissions draw a real arrival_seq (their hooks may
  // observe ordering among invocations); hook-free ones skip the shared
  // counter entirely — see InvocationContext::arrival_seq.
  if (hooked && ctx.arrival_seq() == 0) {
    ctx.set_arrival_seq(
        arrival_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  // Lazy enqueue stamp (see preactivation): hooks may read the
  // timestamps, and 1 in 16 hook-free calls stamps anyway so the latency
  // sample stays honest. The remaining 15/16 skip the clock read.
  if ((hooked || (ctx.id() & 0xF) == 0) &&
      ctx.enqueued_at() == runtime::TimePoint{}) {
    ctx.set_enqueued_at(now_fast());
  }

  arrive_once(cc, ctx, arrived);
  const Decision verdict = evaluate_chain_under_locks(cc, ctx);
  if (verdict == Decision::kBlock) {
    // Non-blocking classifies the chain's NORMAL operation; a guard may
    // still refuse (RW read side under an active writer). Parking and
    // waking is the slow path's job.
    if (hooked) self->fast_windows.fetch_sub(1, std::memory_order_seq_cst);
    undo_span();
    return false;
  }
  if (verdict == Decision::kAbort) {
    book_refusal(cc, *self, ctx);
    if (hooked) self->fast_windows.fetch_sub(1, std::memory_order_seq_cst);
    undo_span();
    drain_quarantine();
    *decision = Decision::kAbort;
    return true;
  }

  // Admission. The fast path never waited, so admitted_at == enqueued_at
  // by construction (and one clock read is saved). The provisional spans_
  // increment becomes the invocation's span without another RMW.
  fast_admissions_.fetch_add(1, std::memory_order_relaxed);
  commit_admission(*mod, ctx, ctx.enqueued_at(), parity);
  if (hooked) self->fast_windows.fetch_sub(1, std::memory_order_seq_cst);
  *decision = Decision::kResume;
  return true;
}

bool AspectModerator::try_fast_completion(const Moderation& mod,
                                          InvocationContext& ctx) {
  MethodState* self = mod.self;
  const CompiledChainData& cc = *mod.compiled;
  // Same hook-free shortcut as admission. The sleepers_ checks stay
  // UNCONDITIONAL: the no-signal argument below needs them even for empty
  // chains (skipping the broadcast is about waiters, not hooks).
  const bool hooked = !cc.ops.empty();
  if (hooked && self->lockers.load(std::memory_order_seq_cst) != 0) {
    return false;
  }
  if (sleepers_.load(std::memory_order_seq_cst) != 0) return false;

  // NO burst registration: the admission span (still open, at the parity
  // the invocation was admitted under) is itself the barrier stake. A
  // barrier drains exactly one parity — ours — before gen can move twice,
  // so while the span is open, gen is at most admission-gen + 1. Reading
  // an EVEN gen here therefore proves no barrier has started draining us
  // (odd = drain in progress → let the locked path complete); the bank
  // epoch and plan-rev checks inside the window catch everything a
  // completed barrier could have changed.
  if ((gen_.load(std::memory_order_seq_cst) & 1) != 0) return false;
  if (hooked) self->fast_windows.fetch_add(1, std::memory_order_seq_cst);
  const bool valid =
      (!hooked ||
       self->lockers.load(std::memory_order_seq_cst) == 0) &&
      sleepers_.load(std::memory_order_seq_cst) == 0 &&
      (gen_.load(std::memory_order_seq_cst) & 1) == 0 &&
      moderation_valid(mod) &&
      plan_rev_.load(std::memory_order_acquire) == mod.plan_rev;
  if (!valid) {
    if (hooked) self->fast_windows.fetch_sub(1, std::memory_order_seq_cst);
    return false;
  }

  if (cc.any_post || fault_ != nullptr) {
    for (std::size_t i = cc.ops.size(); i-- > 0;) {
      guarded_postaction(cc.ops[i], ctx);
    }
  }
  self->stats.completed.fetch_add(1, std::memory_order_relaxed);
  fast_completions_.fetch_add(1, std::memory_order_relaxed);
  log_event("postactivation", ctx);
  sample_latency(ctx);
  // No signal: sleepers_ == 0 was validated inside the window, so no call
  // is parked anywhere in the moderator (the no-plan default is a
  // broadcast to ALL methods, whose guards may read state outside any
  // aspect hook). A call parking after our check re-evaluates its guards
  // past the full fence of its seq_cst increment, so it sees our
  // postactions. Nobody needs the wakeup.
  if (hooked) self->fast_windows.fetch_sub(1, std::memory_order_seq_cst);
  close_span(ctx);
  drain_quarantine();
  return true;
}

void AspectModerator::arrive_once(const CompiledChainData& cc,
                                  InvocationContext& ctx,
                                  ArrivedVec& arrived) {
  if (!cc.any_arrive) return;
  for (const CompiledOp& op : cc.ops) {
    if (std::find(arrived.begin(), arrived.end(), op.aspect) ==
        arrived.end()) {
      guarded_on_arrive(op, ctx);
      arrived.push_back(op.aspect);
    }
  }
}

void AspectModerator::stamp_arrival(InvocationContext& ctx) {
  if (ctx.enqueued_at() == runtime::TimePoint{}) {
    ctx.set_enqueued_at(now_fast());
  }
  if (ctx.arrival_seq() == 0) {
    ctx.set_arrival_seq(
        arrival_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
}

void AspectModerator::book_refusal(const CompiledChainData& cc,
                                   MethodState& ms, InvocationContext& ctx) {
  guarded_on_cancel(cc, ctx);
  if (!ctx.abort_error()) {
    std::string by(ctx.note_view("vetoed.by").value_or("unknown aspect"));
    ctx.set_abort_error(
        runtime::make_error(ErrorCode::kAborted, "vetoed by " + by));
  }
  switch (ctx.abort_error()->code) {
    case ErrorCode::kTimeout:
      ms.stats.timed_out.fetch_add(1, std::memory_order_relaxed);
      log_event("timeout", ctx);
      break;
    case ErrorCode::kCancelled:
      // Stop, shutdown or a cancellation-flavored veto — not a concern's
      // own decision.
      ms.stats.cancelled.fetch_add(1, std::memory_order_relaxed);
      log_event("cancelled", ctx);
      break;
    default:
      ms.stats.aborted.fetch_add(1, std::memory_order_relaxed);
      log_event("abort", ctx);
  }
}

void AspectModerator::commit_admission(const Moderation& mod,
                                       InvocationContext& ctx,
                                       runtime::TimePoint admitted_at,
                                       int parity) {
  // Entries commit every aspect's state atomically with the guards — the
  // held shard set is exactly the set of methods whose guards can observe
  // them (repair D2 under sharding). admitted_at is stamped first so
  // entry() hooks (e.g. timing) can read it. Entry throws are contained:
  // the admission stands, so entry and postaction stay paired.
  const CompiledChainData& cc = *mod.compiled;
  ctx.set_admitted_at(admitted_at);
  if (cc.any_entry || fault_ != nullptr) {
    for (const CompiledOp& op : cc.ops) guarded_entry(op, ctx);
  }
  if (cc.fallback) ctx.set_note(kFallbackActiveNote, "1");
  ctx.set_admitted_chain(&cc.entries);
  ctx.set_moderation_hint(&mod);
  if (parity >= 0) {
    adopt_span(ctx, parity);
  } else {
    excl_.admitted += 1;  // an exclusive-phase admission opens no span
  }
  mod.self->stats.admitted.fetch_add(1, std::memory_order_relaxed);
  log_event("admitted", ctx);
}

Decision AspectModerator::evaluate_chain_under_locks(
    const CompiledChainData& cc, InvocationContext& ctx) {
  // Guard-free chains admit without touching an op — unless a fault
  // injector is armed: its kPrecondition schedule must see every position
  // of every evaluated chain, exactly as before compilation.
  if (!cc.any_guard && fault_ == nullptr) return Decision::kResume;
  for (const CompiledOp& op : cc.ops) {
    Decision d = Decision::kResume;
    if (AMF_FAULT_FIRE(fault_, FaultPoint::kPrecondition)) {
      // Injected guard faults fire INSTEAD of the hook (preconditions are
      // pure, so skipping one is indistinguishable from it throwing on
      // entry). Structured abort, exactly like the catch path below.
      record_fault(*op.owner, "precondition", ctx);
      ctx.set_note("vetoed.by", op.aspect->name());
      ctx.set_abort_error(runtime::make_error(
          ErrorCode::kAspectFault,
          "injected fault in precondition of '" +
              std::string(op.aspect->name()) + "'"));
      return Decision::kAbort;
    }
    if (op.hooks.guard == nullptr) continue;  // no guard ⇒ always kResume
    try {
      d = op.hooks.guard(*op.aspect, ctx);
    } catch (const std::exception& ex) {
      record_fault(*op.owner, "precondition", ctx);
      ctx.set_note("vetoed.by", op.aspect->name());
      ctx.set_abort_error(runtime::make_error(
          ErrorCode::kAspectFault,
          "precondition of '" + std::string(op.aspect->name()) +
              "' threw: " + ex.what()));
      return Decision::kAbort;
    } catch (...) {
      record_fault(*op.owner, "precondition", ctx);
      ctx.set_note("vetoed.by", op.aspect->name());
      ctx.set_abort_error(runtime::make_error(
          ErrorCode::kAspectFault,
          "precondition of '" + std::string(op.aspect->name()) +
              "' threw a non-exception"));
      return Decision::kAbort;
    }
    if (d == Decision::kBlock) {
      ctx.set_note("blocked.by", op.aspect->name());
      return d;
    }
    if (d == Decision::kAbort) {
      ctx.set_note("vetoed.by", op.aspect->name());
      return d;
    }
  }
  return Decision::kResume;
}

void AspectModerator::log_event_slow(std::string_view message,
                                     const InvocationContext& ctx) {
  std::string msg(message);
  msg += ':';
  msg += ctx.method().name();
  log_->append("moderator", msg, ctx.id());
}

}  // namespace amf::core
