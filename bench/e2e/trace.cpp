#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace e2e {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity),
      stop_sampling_at_(capacity / 10 * 9),
      spans_(new Span[capacity]) {
  for (const char* n : {"gen.request", "core.pre", "core.pre_async",
                        "core.parked", "apps.body", "core.post",
                        "storage.append", "storage.append_sync"}) {
    intern(n);
  }
}

std::uint32_t Tracer::intern(std::string name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(std::move(name));
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  const std::size_t n =
      std::min(size_.load(std::memory_order_acquire), capacity_);
  return std::vector<Span>(spans_.get(), spans_.get() + n);
}

TracedAspect::TracedAspect(core::AspectPtr inner, Tracer& tracer)
    : inner_(std::move(inner)), inner_hooks_(inner_->compile()), tracer_(tracer) {
  const std::string base = "aspects." + std::string(inner_->name()) + ".";
  span_[kArriveHook] = tracer_.intern(base + "arrive");
  span_[kGuardHook] = tracer_.intern(base + "guard");
  span_[kEntryHook] = tracer_.intern(base + "entry");
  span_[kPostHook] = tracer_.intern(base + "post");
  span_[kCancelHook] = tracer_.intern(base + "cancel");
}

void TracedAspect::on_arrive(core::InvocationContext& ctx) {
  timed(kArriveHook, ctx, [&] { inner_->on_arrive(ctx); });
}
core::Decision TracedAspect::precondition(core::InvocationContext& ctx) {
  return timed(kGuardHook, ctx, [&] { return inner_->precondition(ctx); });
}
void TracedAspect::entry(core::InvocationContext& ctx) {
  timed(kEntryHook, ctx, [&] { inner_->entry(ctx); });
}
void TracedAspect::postaction(core::InvocationContext& ctx) {
  timed(kPostHook, ctx, [&] { inner_->postaction(ctx); });
}
void TracedAspect::on_cancel(core::InvocationContext& ctx) {
  timed(kCancelHook, ctx, [&] { inner_->on_cancel(ctx); });
}

core::CompiledHooks TracedAspect::compile() const {
  // Mirror the inner table slot by slot: a hook the inner aspect does not
  // implement stays null, so the moderator still skips it entirely.
  core::CompiledHooks h;
  if (inner_hooks_.guard) {
    h.guard = [](core::Aspect& a, core::InvocationContext& ctx) {
      auto& self = static_cast<TracedAspect&>(a);
      return self.timed(kGuardHook, ctx, [&] {
        return self.inner_hooks_.guard(*self.inner_, ctx);
      });
    };
  }
  if (inner_hooks_.on_arrive) {
    h.on_arrive = [](core::Aspect& a, core::InvocationContext& ctx) {
      auto& self = static_cast<TracedAspect&>(a);
      self.timed(kArriveHook, ctx,
                 [&] { self.inner_hooks_.on_arrive(*self.inner_, ctx); });
    };
  }
  if (inner_hooks_.entry) {
    h.entry = [](core::Aspect& a, core::InvocationContext& ctx) {
      auto& self = static_cast<TracedAspect&>(a);
      self.timed(kEntryHook, ctx,
                 [&] { self.inner_hooks_.entry(*self.inner_, ctx); });
    };
  }
  if (inner_hooks_.postaction) {
    h.postaction = [](core::Aspect& a, core::InvocationContext& ctx) {
      auto& self = static_cast<TracedAspect&>(a);
      self.timed(kPostHook, ctx,
                 [&] { self.inner_hooks_.postaction(*self.inner_, ctx); });
    };
  }
  if (inner_hooks_.on_cancel) {
    h.on_cancel = [](core::Aspect& a, core::InvocationContext& ctx) {
      auto& self = static_cast<TracedAspect&>(a);
      self.timed(kCancelHook, ctx,
                 [&] { self.inner_hooks_.on_cancel(*self.inner_, ctx); });
    };
  }
  return h;
}

void decorate_all(core::AspectModerator& moderator, Tracer& tracer) {
  struct Cells {
    core::AspectPtr inner;
    std::vector<std::pair<runtime::MethodId, runtime::AspectKind>> cells;
  };
  auto& bank = moderator.bank();
  std::vector<Cells> objects;
  std::unordered_map<const core::Aspect*, std::size_t> index;
  for (const auto method : bank.methods()) {
    for (const auto kind : bank.kind_order()) {
      core::AspectPtr a = bank.find(method, kind);
      if (!a) continue;
      auto [it, fresh] = index.emplace(a.get(), objects.size());
      if (fresh) objects.push_back(Cells{a, {}});
      objects[it->second].cells.emplace_back(method, kind);
    }
  }
  for (const Cells& o : objects) {
    auto decorator = std::make_shared<TracedAspect>(o.inner, tracer);
    for (const auto& [method, kind] : o.cells) {
      moderator.register_aspect(method, kind, decorator);
    }
  }
}

runtime::Result<storage::Lsn> TimedStorage::append(std::uint8_t type,
                                                   std::string_view payload) {
  const std::uint64_t request = tl_request;
  const std::int64_t t0 = request != 0 ? now_ns() : 0;
  auto lsn = inner_.append(type, payload);
  if (!tracer_.enabled()) return lsn;
  // An append that leaves its own record synced ran the group commit.
  const bool synced = lsn.ok() && inner_.last_synced() >= lsn.value();
  appends_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(payload.size(), std::memory_order_relaxed);
  if (synced) syncs_.fetch_add(1, std::memory_order_relaxed);
  if (request != 0) {
    tracer_.record(synced ? Tracer::kAppendSync : Tracer::kAppend, request, t0,
                   now_ns());
  }
  return lsn;
}

namespace {

// The span file keeps the first requests only; the analysis uses all.
constexpr std::uint64_t kWrittenRequests = 1024;

std::string module_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

// Outer layers first when two spans cover the same interval.
int depth_rank(const std::string& module) {
  if (module == "gen") return 0;
  if (module == "core" || module == "apps") return 1;
  if (module == "aspects") return 2;
  return 3;
}

}  // namespace

LayerSummary analyze(const Tracer& tracer, const std::string& out_path) {
  std::vector<Span> spans = tracer.spans();
  std::vector<std::string> modules;
  std::vector<int> ranks;
  for (std::uint32_t i = 0; i < tracer.name_count(); ++i) {
    modules.push_back(module_of(tracer.name(i)));
    ranks.push_back(depth_rank(modules.back()));
  }
  std::sort(spans.begin(), spans.end(), [&](const Span& a, const Span& b) {
    if (a.request != b.request) return a.request < b.request;
    if (a.start != b.start) return a.start < b.start;
    if (a.end != b.end) return a.end > b.end;
    return ranks[a.name] < ranks[b.name];
  });

  LayerSummary out;
  std::FILE* file = nullptr;
  if (!out_path.empty()) {
    file = std::fopen(out_path.c_str(), "w");
    if (file != nullptr) {
      std::fputs("request\tspan\tparent\tthread\tstart_ns\tend_ns\tname\n", file);
    }
  }
  std::uint64_t written = 0;
  std::vector<double> child_ns;
  std::vector<long> parent;
  std::vector<std::size_t> stack;
  for (std::size_t lo = 0; lo < spans.size();) {
    std::size_t hi = lo;
    while (hi < spans.size() && spans[hi].request == spans[lo].request) ++hi;
    // A request is complete when its first span is the root that contains
    // every other span (requests still in flight at the end lack it).
    const Span& root = spans[lo];
    const bool complete =
        root.name == Tracer::kRequest &&
        std::all_of(spans.begin() + lo, spans.begin() + hi, [&](const Span& s) {
          return s.start >= root.start && s.end <= root.end;
        });
    if (!complete) {
      lo = hi;
      continue;
    }
    const std::size_t n = hi - lo;
    child_ns.assign(n, 0.0);
    parent.assign(n, -1);
    stack.clear();
    for (std::size_t k = 0; k < n; ++k) {
      const Span& s = spans[lo + k];
      while (!stack.empty()) {
        const Span& top = spans[lo + stack.back()];
        if (top.start <= s.start && s.end <= top.end) break;
        stack.pop_back();
      }
      if (!stack.empty()) {
        parent[k] = static_cast<long>(stack.back());
        child_ns[stack.back()] += static_cast<double>(s.end - s.start);
      }
      stack.push_back(k);
    }
    bool has_body = false;
    for (std::size_t k = 0; k < n; ++k) {
      const Span& s = spans[lo + k];
      const double self = static_cast<double>(s.end - s.start) - child_ns[k];
      out.self_by_name[tracer.name(s.name)].push_back(self);
      if (k != 0) out.module_self_ns[modules[s.name]] += self;
      has_body = has_body || s.name == Tracer::kBody;
      if (file != nullptr && out.requests < kWrittenRequests) {
        std::fprintf(file, "%llu\t%llu\t%lld\t%u\t%lld\t%lld\t%s\n",
                     static_cast<unsigned long long>(s.request),
                     static_cast<unsigned long long>(written + k),
                     parent[k] < 0 ? -1LL
                                   : static_cast<long long>(written) + parent[k],
                     s.thread, static_cast<long long>(s.start),
                     static_cast<long long>(s.end), tracer.name(s.name).c_str());
      }
    }
    written += n;
    out.spans += n;
    out.requests += 1;
    out.admitted += has_body ? 1 : 0;
    out.request_ns_total += static_cast<double>(root.end - root.start);
    lo = hi;
  }
  if (file != nullptr) std::fclose(file);
  return out;
}

}  // namespace e2e
