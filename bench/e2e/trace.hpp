// Outside-in tracing for the end-to-end benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around the calls into
// each layer, never from inside the library:
//   gen.request            the whole request, as the generator sees it
//   core.pre / core.post   AspectModerator::preactivation / postactivation,
//                          driven by the benchmark the way
//                          ComponentProxy::execute drives them
//   core.pre_async         AspectModerator::preactivation_async (submission)
//   core.parked            submission return → settle fire (async only)
//   apps.body              the functional body
//   aspects.<name>.<hook>  every hook of every registered aspect, through
//                          one TracedAspect decorator per aspect object
//   storage.append[_sync]  Storage::append through TimedStorage; the _sync
//                          variant is an append that advanced last_synced()
// One request in Tracer::kSampleEvery (by invocation id) is recorded.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/aspect.hpp"
#include "core/moderator.hpp"
#include "measure.hpp"
#include "storage/storage.hpp"

namespace e2e {

namespace core = amf::core;
namespace runtime = amf::runtime;
namespace storage = amf::storage;

// Trivially constructible: the span buffer stays untouched (and out of
// the resident set) until spans land in it.
struct Span {
  std::uint32_t name;
  std::uint32_t thread;
  std::uint64_t request;
  std::int64_t start;
  std::int64_t end;
};

/// Small dense index of the calling thread (span attribution).
std::uint32_t thread_index();

/// Request id of the sampled invocation whose aspect hook runs on this
/// thread right now (0 = none); lets TimedStorage attribute its appends.
inline thread_local std::uint64_t tl_request = 0;

class Tracer {
 public:
  static constexpr std::uint64_t kSampleEvery = 64;

  // Fixed span names (interned first, in this order).
  enum : std::uint32_t {
    kRequest,
    kPre,
    kPreAsync,
    kParked,
    kBody,
    kPost,
    kAppend,
    kAppendSync,
  };

  explicit Tracer(std::size_t capacity);

  /// Wiring time only (not thread-safe against record()).
  std::uint32_t intern(std::string name);
  const std::string& name(std::uint32_t id) const { return names_[id]; }
  std::uint32_t name_count() const {
    return static_cast<std::uint32_t>(names_.size());
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Whether the request with this invocation id is traced. New requests
  /// stop being sampled once the buffer is 90% full, so requests already
  /// in flight can still record all of their spans.
  bool sampled(std::uint64_t request) const {
    return request % kSampleEvery == 0 && enabled() &&
           size_.load(std::memory_order_relaxed) < stop_sampling_at_;
  }

  void record(std::uint32_t name, std::uint64_t request, std::int64_t start,
              std::int64_t end) {
    const std::size_t i = size_.fetch_add(1, std::memory_order_relaxed);
    if (i >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    spans_[i] = Span{name, thread_index(), request, start, end};
  }

  /// Guard evaluations of sampled requests (wasted-work ratio).
  void count_guard() { guard_evals_.fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t guard_evals() const {
    return guard_evals_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Recorded spans; call only after every recording thread has stopped.
  std::vector<Span> spans() const;

 private:
  std::vector<std::string> names_;
  const std::size_t capacity_;
  const std::size_t stop_sampling_at_;
  std::unique_ptr<Span[]> spans_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> guard_evals_{0};
  std::atomic<bool> enabled_{false};
};

/// Forwarding decorator that times every hook of one aspect object. It
/// forwards nonblocking(), fault_policy() and resource(), and compiles only
/// the hook slots the inner aspect compiles, so composition, lock groups
/// and fast-path eligibility are those of the undecorated bank.
class TracedAspect final : public core::Aspect {
 public:
  TracedAspect(core::AspectPtr inner, Tracer& tracer);

  std::string_view name() const override { return inner_->name(); }
  void on_arrive(core::InvocationContext& ctx) override;
  core::Decision precondition(core::InvocationContext& ctx) override;
  void entry(core::InvocationContext& ctx) override;
  void postaction(core::InvocationContext& ctx) override;
  void on_cancel(core::InvocationContext& ctx) override;
  std::string_view resource() const override { return inner_->resource(); }
  core::FaultPolicy fault_policy() const override {
    return inner_->fault_policy();
  }
  bool nonblocking(runtime::MethodId method) const override {
    return inner_->nonblocking(method);
  }
  core::CompiledHooks compile() const override;

 private:
  enum Hook { kArriveHook, kGuardHook, kEntryHook, kPostHook, kCancelHook };

  template <typename Fn>
  auto timed(Hook hook, core::InvocationContext& ctx, Fn&& fn) {
    if (!tracer_.sampled(ctx.id())) return fn();
    const std::uint64_t outer = tl_request;
    tl_request = ctx.id();
    const std::int64_t t0 = now_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      tracer_.record(span_[hook], ctx.id(), t0, now_ns());
      tl_request = outer;
    } else {
      auto verdict = fn();
      tracer_.record(span_[hook], ctx.id(), t0, now_ns());
      tl_request = outer;
      if (hook == kGuardHook) tracer_.count_guard();
      return verdict;
    }
  }

  core::AspectPtr inner_;
  core::CompiledHooks inner_hooks_;
  Tracer& tracer_;
  std::uint32_t span_[5];
};

/// Replaces every aspect object registered in `moderator`'s bank with one
/// TracedAspect, registered in every cell the object occupied. Wiring time
/// only: the bank must not carry traffic while cells are swapped, because
/// the lock groups are split until the last cell of an object moves.
void decorate_all(core::AspectModerator& moderator, Tracer& tracer);

/// Storage decorator that times appends of sampled requests and, while the
/// tracer is enabled, counts appends, payload bytes and group commits.
class TimedStorage final : public storage::Storage {
 public:
  TimedStorage(storage::Storage& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  runtime::Result<storage::Lsn> append(std::uint8_t type,
                                       std::string_view payload) override;
  runtime::Result<void> sync() override { return inner_.sync(); }
  storage::Lsn last_appended() const override {
    return inner_.last_appended();
  }
  storage::Lsn last_synced() const override { return inner_.last_synced(); }
  bool healthy() const override { return inner_.healthy(); }
  bool accepting() const override { return inner_.accepting(); }
  runtime::Result<void> write_snapshot(storage::Lsn lsn,
                                       std::string_view payload) override {
    return inner_.write_snapshot(lsn, payload);
  }
  runtime::Result<std::optional<storage::Snapshot>> latest_snapshot()
      const override {
    return inner_.latest_snapshot();
  }
  runtime::Result<void> replay(
      storage::Lsn after,
      const std::function<runtime::Result<void>(const storage::WalRecord&)>&
          fn) const override {
    return inner_.replay(after, fn);
  }

  std::uint64_t appends() const { return appends_.load(); }
  std::uint64_t bytes() const { return bytes_.load(); }
  std::uint64_t syncs() const { return syncs_.load(); }

 private:
  storage::Storage& inner_;
  Tracer& tracer_;
  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> syncs_{0};
};

/// Outcome of one benchmark-driven moderated call.
template <typename V>
struct CallOutcome {
  bool ok = false;
  std::optional<V> value;
  std::int64_t wait_ns = -1;  // admitted_at − enqueued_at; -1 if refused
};

template <typename R>
using ValueOf = std::conditional_t<std::is_void_v<R>, bool, R>;

/// preactivation → body → postactivation, as ComponentProxy::execute runs
/// them (no invariant is set on the benchmark's proxies), with spans. The
/// request span starts at `request_start`, when the generator began the
/// request (before building its context).
template <typename C, typename F>
auto traced_call(Tracer& tracer, core::AspectModerator& moderator,
                 C& component, core::InvocationContext& ctx,
                 std::int64_t request_start, F&& body) {
  using R = std::invoke_result_t<F, C&>;
  CallOutcome<ValueOf<R>> out;
  const std::uint64_t id = ctx.id();
  const bool sampled = tracer.sampled(id);
  const std::int64_t t0 = now_ns();
  const core::Decision verdict = moderator.preactivation(ctx);
  const std::int64_t t1 = now_ns();
  if (sampled) tracer.record(Tracer::kPre, id, t0, t1);
  if (verdict != core::Decision::kResume) {
    if (sampled) tracer.record(Tracer::kRequest, id, request_start, t1);
    return out;
  }
  out.wait_ns = (ctx.admitted_at() - ctx.enqueued_at()).count();
  try {
    if constexpr (std::is_void_v<R>) {
      body(component);
      out.value = true;
    } else {
      out.value.emplace(body(component));
    }
    ctx.set_body_succeeded(true);
    out.ok = true;
  } catch (...) {
    ctx.set_body_succeeded(false);
    out.value.reset();
  }
  const std::int64_t t2 = now_ns();
  moderator.postactivation(ctx);
  const std::int64_t t3 = now_ns();
  if (sampled) {
    tracer.record(Tracer::kBody, id, t1, t2);
    tracer.record(Tracer::kPost, id, t2, t3);
    tracer.record(Tracer::kRequest, id, request_start, t3);
  }
  return out;
}

/// Benchmark-driven asynchronous call frame: ComponentProxy::AsyncCall's
/// protocol (preactivation_async, then body + postactivation from the
/// settle callback) with spans. `Notify` runs once the outcome is final,
/// on the thread that settled the call. The frame must stay pinned until
/// then.
template <typename C, typename F, typename Notify>
class TracedAsync {
 public:
  using R = std::invoke_result_t<F, C&>;

  TracedAsync(Tracer& tracer, core::AspectModerator& moderator, C& component,
              runtime::MethodId method, F body, Notify notify)
      : tracer_(tracer),
        moderator_(moderator),
        component_(component),
        ctx_(method),
        body_(std::move(body)),
        notify_(notify) {}
  TracedAsync(const TracedAsync&) = delete;
  TracedAsync& operator=(const TracedAsync&) = delete;

  core::InvocationContext& context() { return ctx_; }
  const CallOutcome<ValueOf<R>>& outcome() const { return out_; }

  /// Submits the call; the request span starts at `request_start`.
  void start(std::int64_t request_start) {
    sampled_ = tracer_.sampled(ctx_.id());
    park_.ctx = &ctx_;
    park_.settle.emplace([this](core::Decision d) { finish(d); });
    t_start_ = request_start;
    submitting_ = true;
    const std::int64_t t0 = now_ns();
    moderator_.preactivation_async(park_);
    submitting_ = false;
    t_submitted_ = now_ns();
    if (sampled_) {
      tracer_.record(Tracer::kPreAsync, ctx_.id(), t0, t_submitted_);
    }
    if (settled_) done();
  }

 private:
  void finish(core::Decision verdict) {
    const std::int64_t t1 = now_ns();
    if (sampled_ && !submitting_) {
      tracer_.record(Tracer::kParked, ctx_.id(), t_submitted_, t1);
    }
    if (verdict == core::Decision::kResume) {
      out_.wait_ns = (ctx_.admitted_at() - ctx_.enqueued_at()).count();
      try {
        if constexpr (std::is_void_v<R>) {
          body_(component_);
          out_.value = true;
        } else {
          out_.value.emplace(body_(component_));
        }
        ctx_.set_body_succeeded(true);
        out_.ok = true;
      } catch (...) {
        ctx_.set_body_succeeded(false);
        out_.value.reset();
      }
      const std::int64_t t2 = now_ns();
      moderator_.postactivation(ctx_);
      t_end_ = now_ns();
      if (sampled_) {
        tracer_.record(Tracer::kBody, ctx_.id(), t1, t2);
        tracer_.record(Tracer::kPost, ctx_.id(), t2, t_end_);
      }
    } else {
      t_end_ = t1;
    }
    settled_ = true;
    // An inline verdict is reported from start(), after the submission
    // span closes, so the request span always contains it.
    if (!submitting_) done();
  }

  void done() {
    if (sampled_) {
      tracer_.record(Tracer::kRequest, ctx_.id(), t_start_,
                     std::max(t_end_, t_submitted_));
    }
    notify_();
  }

  Tracer& tracer_;
  core::AspectModerator& moderator_;
  C& component_;
  core::InvocationContext ctx_;
  F body_;
  Notify notify_;
  core::AspectModerator::ParkedCall park_;
  CallOutcome<ValueOf<R>> out_;
  bool sampled_ = false;
  bool submitting_ = false;
  bool settled_ = false;
  std::int64_t t_start_ = 0;
  std::int64_t t_submitted_ = 0;
  std::int64_t t_end_ = 0;
};

/// Self-time breakdown of the sampled requests.
struct LayerSummary {
  std::uint64_t requests = 0;   // complete sampled requests
  std::uint64_t admitted = 0;   // ... of which ran a body
  double request_ns_total = 0;  // Σ request span durations
  std::map<std::string, double> module_self_ns;             // Σ self time
  std::map<std::string, std::vector<double>> self_by_name;  // per span name
  std::uint64_t spans = 0;
};

/// Builds the per-request span trees (parent = innermost enclosing span of
/// the same request), computes self times, and — when `out_path` is not
/// empty — writes the spans of the first 1024 complete requests as TSV.
LayerSummary analyze(const Tracer& tracer, const std::string& out_path);

}  // namespace e2e
