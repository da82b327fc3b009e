#include "core/bank.hpp"

#include <algorithm>

#include "runtime/health.hpp"

namespace amf::core {

namespace {
// Flattens a published chain into its compiled execution plan. Each
// aspect's hook table comes from its compile() override (devirtualized
// thunks for final classes, generic virtual thunks otherwise); the
// presence bits let the moderator skip whole phases no aspect implements.
CompiledChain compile_chain(std::vector<BankEntry> chain,
                            bool fallback = false) {
  auto cc = std::make_shared<CompiledChainData>();
  cc->entries = std::move(chain);
  cc->fallback = fallback;
  cc->ops.reserve(cc->entries.size());
  for (const BankEntry& e : cc->entries) {
    CompiledOp op;
    op.aspect = e.aspect.get();
    op.owner = &e.aspect;
    op.hooks = e.aspect->compile();
    cc->any_guard |= op.hooks.guard != nullptr;
    cc->any_arrive |= op.hooks.on_arrive != nullptr;
    cc->any_entry |= op.hooks.entry != nullptr;
    cc->any_post |= op.hooks.postaction != nullptr;
    cc->any_cancel |= op.hooks.on_cancel != nullptr;
    cc->ops.push_back(op);
  }
  return cc;
}

bool before(const Binding& a, const Binding& b) {
  return a.method < b.method || (a.method == b.method && a.kind < b.kind);
}

bool same_cell(const Binding& a, const Binding& b) {
  return a.method == b.method && a.kind == b.kind;
}

// Where cell (method, kind) is in the sorted cells, or would go.
template <typename Cells>
auto cell_at(Cells& cells, runtime::MethodId method,
             runtime::AspectKind kind) {
  const Binding key{method, kind, nullptr};
  const auto it = std::lower_bound(cells.begin(), cells.end(), key, before);
  return it != cells.end() && same_cell(*it, key) ? it : cells.end();
}

void append_kind(std::vector<runtime::AspectKind>& order,
                 runtime::AspectKind kind) {
  if (std::find(order.begin(), order.end(), kind) == order.end()) {
    order.push_back(kind);
  }
}

template <typename T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// The record of a method the composition does not name: no chain, so
// trivially non-blocking (nothing can block or be raced), and no plan.
const MethodRecord& unregistered() {
  static const MethodRecord record{.compiled = compile_chain({})};
  return record;
}
}  // namespace

void AspectBank::set_kind_order(std::vector<runtime::AspectKind> order) {
  {
    std::scoped_lock lock(mu_);
    for (const auto kind : order_) append_kind(order, kind);
    order_ = std::move(order);
    publish_locked();
  }
  run_barrier();
}

std::vector<runtime::AspectKind> AspectBank::kind_order() const {
  std::scoped_lock lock(mu_);
  return order_;
}

void AspectBank::register_aspect(runtime::MethodId method,
                                 runtime::AspectKind kind, AspectPtr aspect) {
  std::vector<Binding> one;
  one.push_back(Binding{method, kind, std::move(aspect)});
  register_aspects(std::move(one));
}

void AspectBank::register_aspects(std::vector<Binding> bindings,
                                  std::vector<NotificationPlan> plans) {
  if (bindings.empty() && plans.empty()) return;
  std::vector<std::pair<runtime::MethodId, WakeList>> lists;
  lists.reserve(plans.size());
  for (NotificationPlan& plan : plans) {
    sort_unique(plan.wake);
    lists.emplace_back(plan.completed,
                       std::make_shared<const std::vector<runtime::MethodId>>(
                           std::move(plan.wake)));
  }
  {
    std::scoped_lock lock(mu_);
    // Reserve first: after these, nothing in the loops can throw, so a
    // failed allocation cannot leave half a batch in the bank for the
    // next mutation to publish.
    order_.reserve(order_.size() + bindings.size());
    cells_.reserve(cells_.size() + bindings.size());
    plans_.reserve(plans_.size() + lists.size());
    for (Binding& b : bindings) {
      append_kind(order_, b.kind);
      const auto it =
          std::lower_bound(cells_.begin(), cells_.end(), b, before);
      if (it != cells_.end() && same_cell(*it, b)) {
        it->aspect = std::move(b.aspect);
      } else {
        cells_.insert(it, std::move(b));
      }
    }
    for (auto& list : lists) {
      const auto it = std::lower_bound(
          plans_.begin(), plans_.end(), list,
          [](const auto& a, const auto& b) { return a.first < b.first; });
      if (it != plans_.end() && it->first == list.first) {
        it->second = std::move(list.second);
      } else {
        plans_.insert(it, std::move(list));
      }
    }
    publish_locked();
  }
  run_barrier();
}

void AspectBank::set_notification_plan(runtime::MethodId completed,
                                       std::vector<runtime::MethodId> wake) {
  std::vector<NotificationPlan> one;
  one.push_back(NotificationPlan{completed, std::move(wake)});
  register_aspects({}, std::move(one));
}

bool AspectBank::remove_aspect(runtime::MethodId method,
                               runtime::AspectKind kind) {
  {
    std::scoped_lock lock(mu_);
    const auto it = cell_at(cells_, method, kind);
    if (it == cells_.end()) return false;
    cells_.erase(it);
    publish_locked();
  }
  run_barrier();
  return true;
}

bool AspectBank::occupies_locked(const Aspect* aspect) const {
  const auto holds = [&](const auto& cell) {
    return cell.aspect.get() == aspect;
  };
  return std::any_of(cells_.begin(), cells_.end(), holds) ||
         std::any_of(fallbacks_.begin(), fallbacks_.end(),
                     [&](const auto& fb) {
                       return std::any_of(fb.second.begin(), fb.second.end(),
                                          holds);
                     });
}

bool AspectBank::quarantine(const Aspect* aspect) {
  {
    std::scoped_lock lock(mu_);
    // The target must hold a cell or a fallback slot — quarantining a
    // member of a declared degraded mode is as legitimate as quarantining
    // the primary it stands in for.
    if (!occupies_locked(aspect)) return false;
    if (!quarantined_.insert(aspect).second) return false;
    publish_locked();
  }
  run_barrier();
  return true;
}

bool AspectBank::unquarantine(const Aspect* aspect) {
  {
    std::scoped_lock lock(mu_);
    if (quarantined_.erase(aspect) == 0) return false;
    publish_locked();
  }
  run_barrier();
  return true;
}

bool AspectBank::is_quarantined(const Aspect* aspect) const {
  std::scoped_lock lock(mu_);
  return quarantined_.contains(aspect);
}

void AspectBank::set_fallback(runtime::MethodId method,
                              std::vector<BankEntry> entries) {
  {
    std::scoped_lock lock(mu_);
    for (const BankEntry& e : entries) append_kind(order_, e.kind);
    fallbacks_[method] = std::move(entries);
    publish_locked();
  }
  run_barrier();
}

bool AspectBank::clear_fallback(runtime::MethodId method) {
  {
    std::scoped_lock lock(mu_);
    if (fallbacks_.erase(method) == 0) return false;
    publish_locked();
  }
  run_barrier();
  return true;
}

bool AspectBank::fallback_active(runtime::MethodId method) const {
  return composition()->find(method).compiled->fallback;
}

void AspectBank::set_health(runtime::HealthRegistry* health) {
  {
    std::scoped_lock lock(mu_);
    health_ = health;
    publish_locked();
  }
  run_barrier();
  if (health != nullptr) {
    // Any transition may flip an impaired() verdict; republishing derives
    // the consequences. The listener fires from pump()/tick() — outside
    // the registry mutex and outside any moderation burst — so running
    // the recomposition barrier here is safe. The weak token keeps a
    // longer-lived registry from calling into a destroyed bank.
    std::weak_ptr<int> alive = alive_;
    health->subscribe([this, alive](std::string_view, runtime::HealthState,
                                    runtime::HealthState) {
      if (auto token = alive.lock()) republish();
    });
  }
}

void AspectBank::republish() {
  {
    std::scoped_lock lock(mu_);
    publish_locked();
  }
  run_barrier();
}

std::vector<std::string> AspectBank::quarantined() const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(quarantined_.size());
  for (const Aspect* a : quarantined_) out.emplace_back(a->name());
  std::sort(out.begin(), out.end());
  return out;
}

AspectPtr AspectBank::find(runtime::MethodId method,
                           runtime::AspectKind kind) const {
  std::scoped_lock lock(mu_);
  const auto it = cell_at(cells_, method, kind);
  return it == cells_.end() ? nullptr : it->aspect;
}

const MethodRecord& Composition::find(runtime::MethodId method) const {
  const auto it = std::lower_bound(
      methods.begin(), methods.end(), method,
      [](const MethodRecord& r, runtime::MethodId m) { return r.method < m; });
  return it != methods.end() && it->method == method ? *it : unregistered();
}

AspectChain AspectBank::chain(runtime::MethodId method) const {
  CompiledChain compiled = composition()->find(method).compiled;
  const auto* entries = &compiled->entries;
  return AspectChain(std::move(compiled), entries);
}

CompiledChain AspectBank::compiled_chain(runtime::MethodId method) const {
  return composition()->find(method).compiled;
}

LockGroup AspectBank::lock_group(runtime::MethodId method) const {
  return composition()->find(method).group;
}

bool AspectBank::nonblocking(runtime::MethodId method) const {
  return composition()->find(method).nonblocking;
}

bool AspectBank::any_nonblocking() const {
  return composition()->any_nonblocking;
}

std::shared_ptr<const Composition> AspectBank::composition() const {
  std::scoped_lock lock(snapshot_mu_);
  return snapshot_;
}

std::vector<runtime::MethodId> AspectBank::methods() const {
  std::scoped_lock lock(mu_);
  std::vector<runtime::MethodId> out;
  for (const Binding& c : cells_) {
    if (out.empty() || out.back() != c.method) out.push_back(c.method);
  }
  return out;
}

std::size_t AspectBank::size() const {
  std::scoped_lock lock(mu_);
  return cells_.size();
}

std::string AspectBank::describe() const {
  std::scoped_lock lock(mu_);
  const auto snap = composition();
  std::string out = "kind order:";
  for (const auto kind : order_) {
    out += ' ';
    out += kind.name();
  }
  out += '\n';
  const auto line = [&](std::string_view label,
                        std::vector<std::string> names) {
    if (names.empty()) return;
    std::sort(names.begin(), names.end());
    out += label;
    for (const auto& n : names) {
      out += ' ';
      out += n;
    }
    out += '\n';
  };
  std::vector<std::string> quarantined;
  for (const Aspect* a : quarantined_) quarantined.emplace_back(a->name());
  line("quarantined:", std::move(quarantined));
  std::vector<std::string> fallback;
  for (const MethodRecord& rec : snap->methods) {
    if (rec.compiled->fallback) fallback.emplace_back(rec.method.name());
  }
  line("fallback-active:", std::move(fallback));
  // Sort methods by name for a stable, diff-friendly dump.
  std::vector<const MethodRecord*> records;
  for (const MethodRecord& rec : snap->methods) records.push_back(&rec);
  std::sort(records.begin(), records.end(),
            [](const MethodRecord* a, const MethodRecord* b) {
              return a->method.name() < b->method.name();
            });
  for (const MethodRecord* rec : records) {
    out += std::string(rec->method.name()) + ":";
    for (const auto& entry : rec->compiled->entries) {
      out += " [";
      out += entry.kind.name();
      out += '/';
      out += entry.aspect->name();
      out += ']';
    }
    out += '\n';
  }
  return out;
}

void AspectBank::publish_locked() {
  // Prune quarantine entries whose object no longer holds any cell (nor a
  // fallback slot), so a removed-then-reregistered address cannot inherit
  // a stale quarantine.
  std::erase_if(quarantined_,
                [&](const Aspect* a) { return !occupies_locked(a); });
  // A primary member is impaired when it is quarantined or when the health
  // registry reports its declared resource fenced (or probing a fence). A
  // single impaired member trips the WHOLE composition to its fallback —
  // the fallback chain is a designed degraded mode, not a subset.
  const auto impaired = [&](const AspectPtr& a) {
    if (quarantined_.contains(a.get())) return true;
    if (health_ != nullptr) {
      const std::string_view res = a->resource();
      if (!res.empty() && health_->impaired(res)) return true;
    }
    return false;
  };

  auto next = std::make_shared<Composition>();
  std::size_t method_count = 0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    method_count += i == 0 || cells_[i].method != cells_[i - 1].method;
  }
  next->methods.reserve(method_count);
  std::size_t op_count = 0;

  // Effective chains: the fallback chain (in its declared order) when the
  // method declared one and any primary member is impaired; otherwise the
  // primary chain in kind order minus quarantined members. Everything
  // downstream — classification, compiled plans, lock groups — derives
  // from the effective chain, so a swap changes ALL of them in one epoch.
  // cells_ is sorted by method, so each method's cells are one run and the
  // records come out sorted.
  for (auto run = cells_.begin(); run != cells_.end();) {
    const runtime::MethodId method = run->method;
    const auto end = std::find_if(run, cells_.end(), [&](const Binding& c) {
      return c.method != method;
    });
    const auto fb = fallbacks_.find(method);
    const bool use_fallback =
        fb != fallbacks_.end() &&
        std::any_of(run, end, [&](const Binding& c) {
          return impaired(c.aspect);
        });
    std::vector<BankEntry> chain;
    if (use_fallback) {
      chain.reserve(fb->second.size());
      for (const BankEntry& e : fb->second) {
        // Quarantine still excludes individual fallback members; there is
        // no second-level fallback.
        if (!quarantined_.contains(e.aspect.get())) chain.push_back(e);
      }
    } else {
      chain.reserve(static_cast<std::size_t>(end - run));
      for (const auto kind : order_) {
        const auto cell = std::find_if(
            run, end, [&](const Binding& c) { return c.kind == kind; });
        if (cell != end && !quarantined_.contains(cell->aspect.get())) {
          chain.push_back(BankEntry{kind, cell->aspect});
        }
      }
    }
    // Classify: the chain is non-blocking iff EVERY surviving aspect
    // declares the capability for this method (vacuously true when empty).
    // Classification happens here — not per call — so the moderation hot
    // path learns eligibility once per epoch.
    const bool nonblocking =
        std::all_of(chain.begin(), chain.end(), [&](const BankEntry& e) {
          return e.aspect->nonblocking(method);
        });
    next->any_nonblocking |= nonblocking;
    op_count += chain.size();
    // Compose-time compilation: resolve every hook thunk now so no
    // invocation ever pays for it (Pluggable-AOP's "pay at composition").
    next->methods.push_back(MethodRecord{
        .method = method,
        .compiled = compile_chain(std::move(chain), use_fallback),
        .nonblocking = nonblocking});
    run = end;
  }

  // Lock groups: a method's group is itself plus every method whose
  // EFFECTIVE chain holds one of its aspects. Sorting (aspect, method)
  // pairs makes each aspect's holders one contiguous run, found by binary
  // search; a method's group is the sorted union of its aspects' runs.
  // Methods whose aspects are all exclusively theirs keep a null group,
  // which the moderator reads as "own lock suffices". Deriving from
  // effective chains means a fallback swap recomputes sharing too: a
  // fallback aspect shared across methods creates a group, and a primary
  // group member sidelined by the swap stops costing its siblings a lock.
  using Holder = std::pair<const Aspect*, runtime::MethodId>;
  const auto by_aspect = [](const Holder& a, const Holder& b) {
    return std::less<>{}(a.first, b.first);
  };
  std::vector<Holder> holders;
  holders.reserve(op_count);
  for (const MethodRecord& rec : next->methods) {
    for (const CompiledOp& op : rec.compiled->ops) {
      holders.emplace_back(op.aspect, rec.method);
    }
  }
  std::sort(holders.begin(), holders.end(),
            [&](const Holder& a, const Holder& b) {
              return by_aspect(a, b) ||
                     (a.first == b.first && a.second < b.second);
            });
  holders.erase(std::unique(holders.begin(), holders.end()), holders.end());
  const auto run_of = [&](const CompiledOp& op) {
    return std::equal_range(holders.begin(), holders.end(),
                            Holder{op.aspect, {}}, by_aspect);
  };
  for (MethodRecord& rec : next->methods) {
    std::size_t total = 0;
    for (const CompiledOp& op : rec.compiled->ops) {
      const auto [lo, hi] = run_of(op);
      total += static_cast<std::size_t>(hi - lo);
    }
    // Every run holds the method itself; only a longer one shares.
    if (total == rec.compiled->ops.size()) continue;
    std::vector<runtime::MethodId> group;
    group.reserve(total);
    for (const CompiledOp& op : rec.compiled->ops) {
      const auto [lo, hi] = run_of(op);
      for (auto it = lo; it != hi; ++it) group.push_back(it->second);
    }
    std::sort(group.begin(), group.end());
    group.erase(std::unique(group.begin(), group.end()), group.end());
    rec.group =
        std::make_shared<const std::vector<runtime::MethodId>>(std::move(group));
  }

  // Plans: every method a plan names gets a record (the empty chain when
  // it holds no cell); then each record takes its plan and woken bit.
  if (!plans_.empty()) {
    auto& records = next->methods;
    const auto by_method = [](const MethodRecord& r, runtime::MethodId m) {
      return r.method < m;
    };
    const auto composed = static_cast<std::ptrdiff_t>(records.size());
    const auto name = [&](runtime::MethodId id) {
      const auto end = records.begin() + composed;
      const auto it = std::lower_bound(records.begin(), end, id, by_method);
      if ((it == end || it->method != id) &&
          std::none_of(end, records.end(), [&](const MethodRecord& r) {
            return r.method == id;
          })) {
        records.push_back(
            MethodRecord{.method = id, .compiled = unregistered().compiled});
      }
    };
    for (const auto& [completed, wake] : plans_) {
      name(completed);
      for (const auto id : *wake) name(id);
    }
    if (records.end() - records.begin() > composed) {
      const auto sorted = [](const MethodRecord& a, const MethodRecord& b) {
        return a.method < b.method;
      };
      std::sort(records.begin() + composed, records.end(), sorted);
      std::inplace_merge(records.begin(), records.begin() + composed,
                         records.end(), sorted);
    }
    const auto record = [&](runtime::MethodId id) -> MethodRecord& {
      return *std::lower_bound(records.begin(), records.end(), id, by_method);
    };
    for (const auto& [completed, wake] : plans_) {
      record(completed).wake = wake;
      for (const auto id : *wake) record(id).woken = true;
    }
  }

  const std::uint64_t epoch = version_.load(std::memory_order_relaxed) + 1;
  next->epoch = epoch;
  {
    std::scoped_lock lock(snapshot_mu_);
    snapshot_ = std::move(next);
    version_.store(epoch, std::memory_order_release);
  }
}

}  // namespace amf::core
