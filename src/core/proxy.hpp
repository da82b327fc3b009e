// ComponentProxy<C>: the paper's per-class proxy boilerplate (Fig. 10 /
// Fig. 14) as one reusable template.
//
// The functional component `C` stays a plain sequential object; the proxy
// owns it together with a moderator, and every participating call goes
//
//   preactivation → body(component) → postactivation
//
// with the outcome reported as a typed `InvocationResult` (design repair
// D4: the paper printed "ABORT" and dropped the result).
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "concurrency/future.hpp"
#include "core/context.hpp"
#include "core/decision.hpp"
#include "core/moderator.hpp"
#include "runtime/clock.hpp"
#include "runtime/identity.hpp"
#include "runtime/ids.hpp"
#include "runtime/result.hpp"

namespace amf::core {

/// Outcome of one moderated invocation.
template <typename R>
struct InvocationResult {
  InvocationStatus status = InvocationStatus::kAborted;
  std::optional<R> value;       // set iff status == kCompleted
  runtime::Error error;         // set iff status != kCompleted
  std::uint64_t invocation_id = 0;
  // Time spent blocked in preactivation. Exactly zero when the moderator
  // admitted the call on its optimistic fast path (which by construction
  // never waits — see DESIGN.md §11).
  runtime::Duration wait_time{0};

  bool ok() const { return status == InvocationStatus::kCompleted; }
  explicit operator bool() const { return ok(); }
};

/// void-returning bodies carry no value.
template <>
struct InvocationResult<void> {
  InvocationStatus status = InvocationStatus::kAborted;
  runtime::Error error;
  std::uint64_t invocation_id = 0;
  runtime::Duration wait_time{0};

  bool ok() const { return status == InvocationStatus::kCompleted; }
  explicit operator bool() const { return ok(); }
};

/// Owns a functional component plus the moderator that guards it.
template <typename C>
class ComponentProxy {
 public:
  /// Wraps `component`; creates a fresh moderator unless one is supplied
  /// (sharing a moderator lets several components coordinate).
  explicit ComponentProxy(C component,
                          std::shared_ptr<AspectModerator> moderator = nullptr)
      : component_(std::move(component)),
        moderator_(moderator ? std::move(moderator)
                             : std::make_shared<AspectModerator>()) {}

  ComponentProxy(C component, ModeratorOptions options)
      : component_(std::move(component)),
        moderator_(std::make_shared<AspectModerator>(options)) {}

  /// The guarded functional component. Direct access bypasses moderation —
  /// intended for wiring and tests only.
  C& component() { return component_; }
  const C& component() const { return component_; }

  /// Design-by-contract hook: `inv(component)` is checked after every
  /// successfully executed body, before postactivation, while the
  /// invocation still owns whatever exclusivity its aspects granted. A
  /// false return downgrades the invocation to kFailed (the body's effect
  /// is NOT rolled back — the framework surfaces, it does not undo).
  using Invariant = std::function<bool(const C&)>;
  void set_invariant(Invariant inv) { invariant_ = std::move(inv); }

  AspectModerator& moderator() { return *moderator_; }
  const AspectModerator& moderator() const { return *moderator_; }
  std::shared_ptr<AspectModerator> moderator_ptr() { return moderator_; }

  /// Fluent per-call configuration. Obtain via `call(method)`, chain
  /// `.as()/.priority()/.deadline()/...`, finish with `.run(body)` where
  /// `body` is callable as `body(C&)`.
  class CallBuilder {
   public:
    CallBuilder(ComponentProxy& proxy, runtime::MethodId method)
        : proxy_(proxy), ctx_(method) {}

    /// Sets the caller identity.
    CallBuilder& as(runtime::Principal p) {
      ctx_.set_principal(std::move(p));
      return *this;
    }
    /// Sets the caller identity to a bare name (no roles, no token).
    CallBuilder& as(std::string_view name) {
      ctx_.set_principal_name(name);
      return *this;
    }
    /// Sets the scheduling priority (higher = more urgent).
    CallBuilder& priority(int p) {
      ctx_.set_priority(p);
      return *this;
    }
    /// Absolute admission deadline.
    CallBuilder& deadline(runtime::TimePoint d) {
      ctx_.set_deadline(d);
      return *this;
    }
    /// Relative admission deadline, resolved against the moderator's
    /// clock — so simulated-clock moderators time out on simulated time,
    /// not wall time.
    CallBuilder& within(runtime::Duration d) {
      ctx_.set_deadline(proxy_.moderator().clock().now() + d);
      return *this;
    }
    /// Cooperative cancellation token.
    CallBuilder& stoppable(std::stop_token t) {
      ctx_.set_stop(std::move(t));
      return *this;
    }
    /// Attaches a note visible to aspects.
    CallBuilder& note(std::string_view key, std::string_view value) {
      ctx_.set_note(key, value);
      return *this;
    }

    /// Executes the moderated call.
    template <typename F>
    auto run(F&& body) -> InvocationResult<std::invoke_result_t<F, C&>> {
      return proxy_.execute(ctx_, std::forward<F>(body));
    }

   private:
    ComponentProxy& proxy_;
    InvocationContext ctx_;
  };

  /// Starts building a call to `method`.
  CallBuilder call(runtime::MethodId method) {
    return CallBuilder(*this, method);
  }

  /// Shorthand for `call(method).run(body)`.
  template <typename F>
  auto invoke(runtime::MethodId method, F&& body)
      -> InvocationResult<std::invoke_result_t<F, C&>> {
    InvocationContext ctx(method);
    return execute(ctx, std::forward<F>(body));
  }

  /// One future-returning moderated invocation (DESIGN.md §18), embedded
  /// in a caller-owned frame: while the moderator has the call parked on a
  /// wait channel, this object IS the entire cost of the in-flight call —
  /// no thread, no stack, no heap. Construct it (stack or slab), configure
  /// `context()` (deadline, principal, notes), grab `future()`, then
  /// `start()`. The frame must stay pinned (neither moved nor destroyed)
  /// until the future is ready; drive completions by progressing the
  /// submitting thread's persona (or the one bound via `bind()`).
  template <typename F>
  class AsyncCall {
   public:
    using R = std::invoke_result_t<F, C&>;
    using Result = InvocationResult<R>;

    AsyncCall(ComponentProxy& proxy, runtime::MethodId method, F body)
        : proxy_(proxy), ctx_(method), body_(std::move(body)) {}
    AsyncCall(const AsyncCall&) = delete;
    AsyncCall& operator=(const AsyncCall&) = delete;

    /// Pre-start configuration of the invocation context.
    InvocationContext& context() { return ctx_; }

    /// Targets a persona other than the submitting thread's for parked
    /// retries (body + postactivation then run where it is progressed).
    void bind(concurrency::Persona* p) { park_.persona = p; }

    /// Handle onto the embedded result state; valid for the frame's life.
    concurrency::Future<Result> future() {
      return concurrency::Future<Result>(state_);
    }

    /// Submits the call. The future settles inline (immediate verdict) or
    /// from a later persona progress() drain (parked). Call exactly once.
    void start() {
      park_.ctx = &ctx_;
      park_.settle.emplace(
          [this](Decision verdict) { this->finish(verdict); });
      proxy_.moderator().preactivation_async(park_);
    }

   private:
    void finish(Decision verdict) {
      Result result;
      result.invocation_id = ctx_.id();
      if (verdict != Decision::kResume) {
        classify_refusal(ctx_, result);
      } else {
        result.wait_time = ctx_.admitted_at() - ctx_.enqueued_at();
        proxy_.run_admitted_body(ctx_, body_, result);
      }
      concurrency::Promise<Result>(state_).fulfill(std::move(result));
    }

    ComponentProxy& proxy_;
    InvocationContext ctx_;
    F body_;
    AspectModerator::ParkedCall park_;
    concurrency::FutureState<Result> state_;
  };

  /// Convenience: heap-allocates one AsyncCall frame (configure, then
  /// start()). Storm-scale callers should embed AsyncCall in a slab —
  /// e.g. a std::deque, which never relocates — instead.
  template <typename F>
  auto invoke_async(runtime::MethodId method, F&& body) {
    return std::make_unique<AsyncCall<std::decay_t<F>>>(
        *this, method, std::forward<F>(body));
  }

 private:
  // Maps a refused preactivation's abort error onto the result status;
  // shared by the synchronous and asynchronous paths.
  template <typename R>
  static void classify_refusal(const InvocationContext& ctx,
                               InvocationResult<R>& result) {
    result.error = ctx.abort_error().value_or(runtime::make_error(
        runtime::ErrorCode::kAborted, "preactivation refused"));
    switch (result.error.code) {
      case runtime::ErrorCode::kTimeout:
      case runtime::ErrorCode::kDeadlineExceeded:
        result.status = InvocationStatus::kTimedOut;
        break;
      case runtime::ErrorCode::kCancelled:
        result.status = InvocationStatus::kCancelled;
        break;
      default:
        result.status = InvocationStatus::kAborted;
    }
  }

  // Admitted-call tail, shared by both paths: body, invariant check,
  // postactivation. Postactivation MUST run now that entries have
  // committed, even when the body throws — otherwise aspect state (e.g. a
  // held slot) leaks.
  template <typename F, typename R>
  void run_admitted_body(InvocationContext& ctx, F& body,
                         InvocationResult<R>& result) {
    try {
      if constexpr (std::is_void_v<R>) {
        body(component_);
      } else {
        result.value.emplace(body(component_));
      }
      if (invariant_ && !invariant_(component_)) {
        ctx.set_body_succeeded(false);
        result.status = InvocationStatus::kFailed;
        result.error = runtime::make_error(
            runtime::ErrorCode::kInternal,
            "component invariant violated after body");
        if constexpr (!std::is_void_v<R>) result.value.reset();
      } else {
        ctx.set_body_succeeded(true);
        result.status = InvocationStatus::kCompleted;
      }
    } catch (const std::exception& e) {
      ctx.set_body_succeeded(false);
      result.status = InvocationStatus::kFailed;
      result.error = runtime::make_error(runtime::ErrorCode::kInternal,
                                         e.what());
    } catch (...) {
      ctx.set_body_succeeded(false);
      result.status = InvocationStatus::kFailed;
      result.error = runtime::make_error(runtime::ErrorCode::kInternal,
                                         "non-standard exception from body");
    }
    moderator_->postactivation(ctx);
  }

  template <typename F>
  auto execute(InvocationContext& ctx, F&& body)
      -> InvocationResult<std::invoke_result_t<F, C&>> {
    using R = std::invoke_result_t<F, C&>;
    InvocationResult<R> result;
    result.invocation_id = ctx.id();

    if (moderator_->preactivation(ctx) != Decision::kResume) {
      classify_refusal(ctx, result);
      return result;
    }
    result.wait_time = ctx.admitted_at() - ctx.enqueued_at();
    run_admitted_body(ctx, body, result);
    return result;
  }

  C component_;
  std::shared_ptr<AspectModerator> moderator_;
  Invariant invariant_;
};

}  // namespace amf::core
