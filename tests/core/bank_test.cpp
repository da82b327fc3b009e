#include "core/bank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "runtime/random.hpp"

namespace amf::core {
namespace {

using runtime::AspectKind;
using runtime::MethodId;

AspectPtr named(std::string name) {
  return std::make_shared<LambdaAspect>(std::move(name));
}

std::vector<std::string> chain_names(const AspectBank& bank, MethodId m) {
  std::vector<std::string> out;
  for (const auto& e : *bank.chain(m)) {
    out.emplace_back(e.aspect->name());
  }
  return out;
}

TEST(AspectBankTest, EmptyBankYieldsEmptyChain) {
  AspectBank bank;
  EXPECT_TRUE(bank.chain(MethodId::of("nothing"))->empty());
  EXPECT_EQ(bank.size(), 0u);
  EXPECT_TRUE(bank.methods().empty());
}

TEST(AspectBankTest, RegisterAndFind) {
  AspectBank bank;
  const auto m = MethodId::of("open");
  const auto k = AspectKind::of("sync");
  auto aspect = named("sync");
  bank.register_aspect(m, k, aspect);
  EXPECT_EQ(bank.find(m, k), aspect);
  EXPECT_EQ(bank.find(m, AspectKind::of("other")), nullptr);
  EXPECT_EQ(bank.size(), 1u);
}

TEST(AspectBankTest, RegisterReplacesCell) {
  AspectBank bank;
  const auto m = MethodId::of("open");
  const auto k = AspectKind::of("sync");
  bank.register_aspect(m, k, named("v1"));
  auto v2 = named("v2");
  bank.register_aspect(m, k, v2);
  EXPECT_EQ(bank.find(m, k), v2);
  EXPECT_EQ(bank.size(), 1u);
}

TEST(AspectBankTest, RemoveAspect) {
  AspectBank bank;
  const auto m = MethodId::of("open");
  const auto k = AspectKind::of("sync");
  bank.register_aspect(m, k, named("a"));
  EXPECT_TRUE(bank.remove_aspect(m, k));
  EXPECT_FALSE(bank.remove_aspect(m, k));
  EXPECT_TRUE(bank.chain(m)->empty());
}

TEST(AspectBankTest, ChainFollowsRegistrationOrderByDefault) {
  AspectBank bank;
  const auto m = MethodId::of("m");
  bank.register_aspect(m, AspectKind::of("k-first"), named("first"));
  bank.register_aspect(m, AspectKind::of("k-second"), named("second"));
  EXPECT_EQ(chain_names(bank, m),
            (std::vector<std::string>{"first", "second"}));
}

TEST(AspectBankTest, SetKindOrderReordersExistingChains) {
  AspectBank bank;
  const auto m = MethodId::of("m");
  const auto sync = AspectKind::of("o-sync");
  const auto auth = AspectKind::of("o-auth");
  bank.register_aspect(m, sync, named("sync"));
  bank.register_aspect(m, auth, named("auth"));
  // Fig. 14: authentication must wrap synchronization.
  bank.set_kind_order({auth, sync});
  EXPECT_EQ(chain_names(bank, m), (std::vector<std::string>{"auth", "sync"}));
}

TEST(AspectBankTest, KindsAbsentFromExplicitOrderAppend) {
  AspectBank bank;
  const auto m = MethodId::of("m");
  const auto a = AspectKind::of("ka");
  const auto b = AspectKind::of("kb");
  const auto c = AspectKind::of("kc");
  bank.set_kind_order({b, a});
  bank.register_aspect(m, a, named("a"));
  bank.register_aspect(m, c, named("c"));  // appended after b, a
  bank.register_aspect(m, b, named("b"));
  EXPECT_EQ(chain_names(bank, m),
            (std::vector<std::string>{"b", "a", "c"}));
}

TEST(AspectBankTest, KindOrderKeepsTheKindsItLeavesOut) {
  AspectBank bank;
  const auto m = MethodId::of("m");
  const auto sync = AspectKind::of("l-sync");
  const auto audit = AspectKind::of("l-audit");
  const auto auth = AspectKind::of("l-auth");
  bank.register_aspect(m, sync, named("sync"));
  bank.register_aspect(m, audit, named("audit"));
  // The list names auth (no cell yet) and sync but not audit: audit keeps
  // its place after the listed kinds instead of leaving every chain.
  bank.set_kind_order({auth, sync});
  EXPECT_EQ(bank.kind_order(), (std::vector<AspectKind>{auth, sync, audit}));
  EXPECT_EQ(bank.size(), 2u);
  EXPECT_EQ(chain_names(bank, m), (std::vector<std::string>{"sync", "audit"}));
  bank.register_aspect(m, auth, named("auth"));
  EXPECT_EQ(chain_names(bank, m),
            (std::vector<std::string>{"auth", "sync", "audit"}));
}

TEST(AspectBankTest, ChainIsSnapshotNotLiveView) {
  AspectBank bank;
  const auto m = MethodId::of("m");
  bank.register_aspect(m, AspectKind::of("k1"), named("one"));
  const auto snapshot = bank.chain(m);
  bank.register_aspect(m, AspectKind::of("k2"), named("two"));
  EXPECT_EQ(snapshot->size(), 1u);        // old snapshot untouched
  EXPECT_EQ(bank.chain(m)->size(), 2u);   // new snapshot sees both
}

TEST(AspectBankTest, SameAspectSharedAcrossMethods) {
  AspectBank bank;
  auto shared = named("group");
  const auto k = AspectKind::of("kx");
  bank.register_aspect(MethodId::of("m1"), k, shared);
  bank.register_aspect(MethodId::of("m2"), k, shared);
  EXPECT_EQ(bank.find(MethodId::of("m1"), k), bank.find(MethodId::of("m2"), k));
  EXPECT_EQ(bank.size(), 2u);  // two cells, one object
}

TEST(AspectBankTest, DescribeShowsCompositionTable) {
  AspectBank bank;
  const auto open = MethodId::of("d-open");
  const auto assign = MethodId::of("d-assign");
  const auto sync = AspectKind::of("d-sync");
  const auto auth = AspectKind::of("d-auth");
  bank.set_kind_order({auth, sync});
  bank.register_aspect(open, sync, named("producer"));
  bank.register_aspect(open, auth, named("authenticate"));
  bank.register_aspect(assign, sync, named("consumer"));
  const auto dump = bank.describe();
  EXPECT_NE(dump.find("kind order: d-auth d-sync"), std::string::npos);
  EXPECT_NE(dump.find("d-open: [d-auth/authenticate] [d-sync/producer]"),
            std::string::npos);
  EXPECT_NE(dump.find("d-assign: [d-sync/consumer]"), std::string::npos);
  // Methods sorted by name: d-assign before d-open.
  EXPECT_LT(dump.find("d-assign:"), dump.find("d-open:"));
}

TEST(AspectBankTest, MethodsListsOnlyOccupied) {
  AspectBank bank;
  const auto m1 = MethodId::of("mm1");
  const auto m2 = MethodId::of("mm2");
  const auto k = AspectKind::of("kk");
  bank.register_aspect(m1, k, named("a"));
  bank.register_aspect(m2, k, named("b"));
  bank.remove_aspect(m2, k);
  const auto methods = bank.methods();
  ASSERT_EQ(methods.size(), 1u);
  EXPECT_EQ(methods[0], m1);
}

TEST(AspectBankTest, BatchPublishesOneEpoch) {
  AspectBank bank;
  const auto open = MethodId::of("b-open");
  const auto assign = MethodId::of("b-assign");
  const auto sync = AspectKind::of("b-sync");
  const auto audit = AspectKind::of("b-audit");
  auto shared = named("shared");
  const auto before = bank.version();
  bank.register_aspects({{open, sync, shared},
                         {open, audit, named("audit")},
                         {assign, sync, shared}});
  EXPECT_EQ(bank.version(), before + 1);
  EXPECT_EQ(chain_names(bank, open),
            (std::vector<std::string>{"shared", "audit"}));
  EXPECT_EQ(chain_names(bank, assign), (std::vector<std::string>{"shared"}));
  ASSERT_NE(bank.lock_group(open), nullptr);
  EXPECT_EQ(*bank.lock_group(open), *bank.lock_group(assign));
  bank.register_aspects({});  // an empty batch publishes nothing
  EXPECT_EQ(bank.version(), before + 1);
}

TEST(AspectBankTest, CellsAndPlansPublishInOneEpoch) {
  AspectBank bank;
  int barriers = 0;
  bank.set_recompose_barrier([&barriers] { ++barriers; });
  const auto open = MethodId::of("p-open");
  const auto assign = MethodId::of("p-assign");
  const auto sync = AspectKind::of("p-sync");
  const auto before = bank.version();
  bank.register_aspects(
      {{open, sync, named("producer")}, {assign, sync, named("consumer")}},
      {{open, {assign, open, assign}}, {assign, {open}}});
  EXPECT_EQ(bank.version(), before + 1);
  EXPECT_EQ(barriers, 1);
  const auto composition = bank.composition();
  EXPECT_EQ(composition->epoch, bank.version());
  const MethodRecord& o = composition->find(open);
  const MethodRecord& a = composition->find(assign);
  std::vector<MethodId> both{open, assign};
  std::sort(both.begin(), both.end());
  ASSERT_NE(o.wake, nullptr);
  ASSERT_NE(a.wake, nullptr);
  EXPECT_EQ(*o.wake, both);  // sorted, duplicates dropped
  EXPECT_EQ(*a.wake, std::vector<MethodId>{open});
  EXPECT_TRUE(o.woken);
  EXPECT_TRUE(a.woken);
  // A plan change is one more epoch and one more barrier; the later plan
  // replaces the earlier one.
  bank.set_notification_plan(assign, {assign});
  EXPECT_EQ(bank.version(), before + 2);
  EXPECT_EQ(barriers, 2);
  EXPECT_EQ(*bank.composition()->find(assign).wake,
            std::vector<MethodId>{assign});
  EXPECT_TRUE(bank.composition()->find(assign).woken);
  bank.register_aspects({}, {});  // an empty batch publishes nothing
  EXPECT_EQ(bank.version(), before + 2);
  EXPECT_EQ(barriers, 2);
}

TEST(AspectBankTest, MethodNamedOnlyByAPlanGetsAnEmptyRecord) {
  AspectBank bank;
  const auto src = MethodId::of("p-src");
  const auto ghost = MethodId::of("p-ghost");
  const auto k = AspectKind::of("p-k");
  auto blocking = named("blocking");  // LambdaAspect: blocking by default
  bank.register_aspect(src, k, blocking);
  bank.set_notification_plan(src, {ghost});
  const auto composition = bank.composition();
  const MethodRecord& rec = composition->find(ghost);
  EXPECT_EQ(rec.method, ghost);
  EXPECT_TRUE(rec.compiled->entries.empty());
  EXPECT_EQ(rec.wake, nullptr);
  EXPECT_TRUE(rec.woken);
  EXPECT_TRUE(bank.nonblocking(ghost));
  // Trivially non-blocking, but it holds no cell: it arms nothing and
  // counts nowhere.
  EXPECT_FALSE(bank.any_nonblocking());
  EXPECT_EQ(bank.size(), 1u);
  EXPECT_EQ(bank.methods(), std::vector<MethodId>{src});
  // An empty plan is still a plan.
  const auto quiet = MethodId::of("p-quiet");
  bank.set_notification_plan(quiet, {});
  const MethodRecord& q = bank.composition()->find(quiet);
  EXPECT_EQ(q.method, quiet);
  ASSERT_NE(q.wake, nullptr);
  EXPECT_TRUE(q.wake->empty());
  EXPECT_FALSE(bank.any_nonblocking());
  EXPECT_EQ(bank.size(), 1u);
  // A method nothing names has the shared empty record.
  EXPECT_NE(bank.composition()->find(MethodId::of("p-none")).method,
            MethodId::of("p-none"));
}

TEST(AspectBankTest, CellGivenTwiceInOneBatchKeepsTheLaterAspect) {
  const auto m = MethodId::of("b-twice");
  const auto k1 = AspectKind::of("b-k1");
  const auto k2 = AspectKind::of("b-k2");
  auto first = named("first");
  auto later = named("later");
  auto other = named("other");
  AspectBank batched;
  batched.register_aspects({{m, k2, first}, {m, k1, other}, {m, k2, later}});
  AspectBank sequential;
  sequential.register_aspect(m, k2, first);
  sequential.register_aspect(m, k1, other);
  sequential.register_aspect(m, k2, later);
  EXPECT_EQ(batched.find(m, k2), later);
  EXPECT_EQ(batched.size(), 2u);
  // New kinds append in first-binding order: k2 before k1.
  EXPECT_EQ(batched.kind_order(), (std::vector<AspectKind>{k2, k1}));
  EXPECT_EQ(batched.kind_order(), sequential.kind_order());
  EXPECT_EQ(chain_names(batched, m),
            (std::vector<std::string>{"later", "other"}));
  EXPECT_EQ(chain_names(batched, m), chain_names(sequential, m));
}

// --- the flat snapshot against a brute-force model ------------------------

// A pool aspect whose hook set and per-method non-blocking claims are fixed
// at construction, so the model can predict what a publish derives.
class ModelAspect final : public Aspect {
 public:
  enum Hook : unsigned {
    kGuard = 1,
    kArrive = 2,
    kEntry = 4,
    kPost = 8,
    kCancel = 16
  };

  ModelAspect(std::string name, unsigned hooks,
              std::vector<MethodId> nonblocking_for)
      : name_(std::move(name)),
        hooks_(hooks),
        nonblocking_for_(std::move(nonblocking_for)) {}

  std::string_view name() const override { return name_; }
  bool nonblocking(MethodId method) const override {
    return std::find(nonblocking_for_.begin(), nonblocking_for_.end(),
                     method) != nonblocking_for_.end();
  }
  CompiledHooks compile() const override {
    const auto noop = [](Aspect&, InvocationContext&) {};
    CompiledHooks h;
    if (hooks_ & kGuard) {
      h.guard = [](Aspect&, InvocationContext&) { return Decision::kResume; };
    }
    if (hooks_ & kArrive) h.on_arrive = noop;
    if (hooks_ & kEntry) h.entry = noop;
    if (hooks_ & kPost) h.postaction = noop;
    if (hooks_ & kCancel) h.on_cancel = noop;
    return h;
  }
  unsigned hooks() const { return hooks_; }

 private:
  std::string name_;
  unsigned hooks_;
  std::vector<MethodId> nonblocking_for_;
};

// The test's own model of the cells, and the derivations a publish must
// reproduce, computed the slow way. Methods, kinds and aspects are indices
// into the pools below.
struct BankModel {
  static constexpr std::size_t kMethods = 6;
  static constexpr std::size_t kKinds = 4;
  static constexpr std::size_t kAspects = 8;
  using Entry = std::pair<std::size_t, std::size_t>;  // (kind, aspect)

  explicit BankModel(runtime::Rng& rng) {
    for (std::size_t i = 0; i < kMethods; ++i) {
      methods.push_back(MethodId::of("model-m" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < kKinds; ++i) {
      kinds.push_back(AspectKind::of("model-k" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < kAspects; ++i) {
      std::vector<MethodId> nonblocking_for;
      for (const auto m : methods) {
        if (rng.bernoulli(0.7)) nonblocking_for.push_back(m);
      }
      const auto hooks = static_cast<unsigned>(rng.uniform_int(0, 31));
      pool.push_back(std::make_shared<ModelAspect>(
          "a" + std::to_string(i), hooks, std::move(nonblocking_for)));
    }
  }

  void add_kind(std::size_t k) {
    if (std::find(order.begin(), order.end(), k) == order.end()) {
      order.push_back(k);
    }
  }
  bool occupies(std::size_t a) const {
    for (const auto& [_, held] : cells) {
      if (held == a) return true;
    }
    for (const auto& [_, entries] : fallbacks) {
      for (const auto& [_k, held] : entries) {
        if (held == a) return true;
      }
    }
    return false;
  }
  // What every publish does first.
  void prune() {
    std::erase_if(quarantined, [&](std::size_t a) { return !occupies(a); });
  }
  bool holds_cell(std::size_t m) const {
    for (const auto& [cell, _] : cells) {
      if (cell.first == m) return true;
    }
    return false;
  }
  bool fallback_active(std::size_t m) const {
    const auto fb = fallbacks.find(m);
    if (fb == fallbacks.end()) return false;
    for (const auto& [cell, a] : cells) {
      if (cell.first == m && quarantined.contains(a)) return true;
    }
    return false;
  }
  std::vector<Entry> chain(std::size_t m) const {
    std::vector<Entry> out;
    if (fallback_active(m)) {
      for (const auto& [k, a] : fallbacks.at(m)) {
        if (!quarantined.contains(a)) out.emplace_back(k, a);
      }
      return out;
    }
    for (const auto k : order) {
      const auto it = cells.find({m, k});
      if (it != cells.end() && !quarantined.contains(it->second)) {
        out.emplace_back(k, it->second);
      }
    }
    return out;
  }
  bool nonblocking(std::size_t m) const {
    for (const auto& [_, a] : chain(m)) {
      if (!pool[a]->nonblocking(methods[m])) return false;
    }
    return true;
  }
  std::vector<MethodId> lock_group(std::size_t m) const {
    if (!holds_cell(m)) return {};
    std::set<MethodId> group{methods[m]};
    const auto mine = chain(m);
    for (std::size_t other = 0; other < kMethods; ++other) {
      if (!holds_cell(other)) continue;
      for (const auto& [_, a] : chain(other)) {
        for (const auto& [_k, b] : mine) {
          if (a == b) group.insert(methods[other]);
        }
      }
    }
    if (group.size() < 2) return {};
    return {group.begin(), group.end()};
  }

  // The listed kinds first, then the old order's remaining kinds.
  void set_order(std::vector<std::size_t> listed) {
    for (const auto k : order) {
      if (std::find(listed.begin(), listed.end(), k) == listed.end()) {
        listed.push_back(k);
      }
    }
    order = std::move(listed);
  }
  bool woken(std::size_t m) const {
    for (const auto& [_, targets] : plans) {
      if (targets.contains(m)) return true;
    }
    return false;
  }
  // Whether the composition holds a record of `m`.
  bool named(std::size_t m) const {
    return holds_cell(m) || plans.contains(m) || woken(m);
  }
  std::vector<MethodId> wake(std::size_t m) const {
    std::set<MethodId> out;
    if (const auto it = plans.find(m); it != plans.end()) {
      for (const auto t : it->second) out.insert(methods[t]);
    }
    return {out.begin(), out.end()};
  }

  std::vector<MethodId> methods;
  std::vector<AspectKind> kinds;
  std::vector<std::shared_ptr<ModelAspect>> pool;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> cells;
  std::vector<std::size_t> order;
  std::set<std::size_t> quarantined;
  std::map<std::size_t, std::vector<Entry>> fallbacks;
  std::map<std::size_t, std::set<std::size_t>> plans;
};

void expect_matches(const AspectBank& bank, const BankModel& model) {
  bool any_nonblocking = false;
  for (std::size_t m = 0; m < BankModel::kMethods; ++m) {
    SCOPED_TRACE("method " + std::to_string(m));
    const MethodId id = model.methods[m];
    const auto want = model.chain(m);
    const auto chain = bank.chain(id);
    ASSERT_EQ(chain->size(), want.size());
    const auto compiled = bank.compiled_chain(id);
    ASSERT_EQ(compiled->ops.size(), want.size());
    unsigned hooks = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const auto& [k, a] = want[i];
      EXPECT_EQ((*chain)[i].kind, model.kinds[k]) << "position " << i;
      EXPECT_EQ((*chain)[i].aspect, model.pool[a]) << "position " << i;
      EXPECT_EQ(compiled->ops[i].aspect, model.pool[a].get());
      hooks |= model.pool[a]->hooks();
    }
    EXPECT_EQ(compiled->any_guard, (hooks & ModelAspect::kGuard) != 0);
    EXPECT_EQ(compiled->any_arrive, (hooks & ModelAspect::kArrive) != 0);
    EXPECT_EQ(compiled->any_entry, (hooks & ModelAspect::kEntry) != 0);
    EXPECT_EQ(compiled->any_post, (hooks & ModelAspect::kPost) != 0);
    EXPECT_EQ(compiled->any_cancel, (hooks & ModelAspect::kCancel) != 0);
    EXPECT_EQ(compiled->fallback, model.fallback_active(m));
    EXPECT_EQ(bank.fallback_active(id), model.fallback_active(m));
    EXPECT_EQ(bank.nonblocking(id), model.nonblocking(m));
    if (model.holds_cell(m)) any_nonblocking |= model.nonblocking(m);

    const auto group = bank.lock_group(id);
    const auto want_group = model.lock_group(m);
    if (want_group.empty()) {
      EXPECT_EQ(group, nullptr);
    } else {
      ASSERT_NE(group, nullptr);
      EXPECT_EQ(*group, want_group);
    }

    // composition() reads the same record, plus the plan data.
    const auto composition = bank.composition();
    EXPECT_EQ(composition->epoch, bank.version());
    const MethodRecord& rec = composition->find(id);
    EXPECT_EQ(rec.method == id, model.named(m));
    EXPECT_EQ(rec.compiled, compiled);
    EXPECT_EQ(&rec.compiled->entries, chain.get());
    EXPECT_EQ(rec.group, group);
    EXPECT_EQ(rec.nonblocking, model.nonblocking(m));
    ASSERT_EQ(rec.wake != nullptr, model.plans.contains(m));
    if (rec.wake) {
      EXPECT_EQ(*rec.wake, model.wake(m));
    }
    EXPECT_EQ(rec.woken, model.woken(m));
  }
  EXPECT_EQ(bank.any_nonblocking(), any_nonblocking);
  EXPECT_EQ(bank.size(), model.cells.size());
}

class BankModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BankModelTest, FlatSnapshotMatchesBruteForce) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  runtime::Rng rng(seed);
  BankModel model(rng);
  AspectBank bank;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, n - 1));
  };
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const auto version = bank.version();
    bool published = true;
    const auto op = rng.uniform_int(0, 104);
    if (op < 25) {
      const auto m = pick(BankModel::kMethods);
      const auto k = pick(BankModel::kKinds);
      const auto a = pick(BankModel::kAspects);
      bank.register_aspect(model.methods[m], model.kinds[k], model.pool[a]);
      model.add_kind(k);
      model.cells[{m, k}] = a;
    } else if (op < 45) {
      // Cells and up to two plans (targets may repeat), one publish.
      std::vector<Binding> batch;
      const auto n = rng.uniform_int(1, 5);
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto m = pick(BankModel::kMethods);
        const auto k = pick(BankModel::kKinds);
        const auto a = pick(BankModel::kAspects);
        batch.push_back({model.methods[m], model.kinds[k], model.pool[a]});
        model.add_kind(k);
        model.cells[{m, k}] = a;
      }
      std::vector<NotificationPlan> plans;
      const auto n_plans = rng.uniform_int(0, 2);
      for (std::uint64_t i = 0; i < n_plans; ++i) {
        const auto m = pick(BankModel::kMethods);
        NotificationPlan plan{model.methods[m], {}};
        std::set<std::size_t> targets;
        const auto n_targets = rng.uniform_int(0, 3);
        for (std::uint64_t t = 0; t < n_targets; ++t) {
          const auto target = pick(BankModel::kMethods);
          plan.wake.push_back(model.methods[target]);
          targets.insert(target);
        }
        plans.push_back(std::move(plan));
        model.plans[m] = std::move(targets);
      }
      bank.register_aspects(std::move(batch), std::move(plans));
    } else if (op < 60) {
      const auto m = pick(BankModel::kMethods);
      const auto k = pick(BankModel::kKinds);
      published = model.cells.erase({m, k}) > 0;
      EXPECT_EQ(bank.remove_aspect(model.methods[m], model.kinds[k]),
                published);
    } else if (op < 70) {
      const auto a = pick(BankModel::kAspects);
      published = model.occupies(a) && model.quarantined.insert(a).second;
      EXPECT_EQ(bank.quarantine(model.pool[a].get()), published);
    } else if (op < 80) {
      const auto a = pick(BankModel::kAspects);
      published = model.quarantined.erase(a) > 0;
      EXPECT_EQ(bank.unquarantine(model.pool[a].get()), published);
    } else if (op < 87) {
      const auto m = pick(BankModel::kMethods);
      std::vector<BankEntry> entries;
      std::vector<BankModel::Entry> modelled;
      const auto n = rng.uniform_int(1, 3);
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto k = pick(BankModel::kKinds);
        const auto a = pick(BankModel::kAspects);
        entries.push_back({model.kinds[k], model.pool[a]});
        modelled.emplace_back(k, a);
        model.add_kind(k);
      }
      bank.set_fallback(model.methods[m], std::move(entries));
      model.fallbacks[m] = std::move(modelled);
    } else if (op < 92) {
      const auto m = pick(BankModel::kMethods);
      published = model.fallbacks.erase(m) > 0;
      EXPECT_EQ(bank.clear_fallback(model.methods[m]), published);
    } else if (op < 100) {
      // A shuffled subset: the listed kinds lead, and every kind left out
      // follows in its old relative order.
      std::vector<std::size_t> order;
      for (std::size_t k = 0; k < BankModel::kKinds; ++k) {
        if (rng.bernoulli(0.8)) order.push_back(k);
      }
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[pick(i)]);
      }
      std::vector<AspectKind> kinds;
      for (const auto k : order) kinds.push_back(model.kinds[k]);
      bank.set_kind_order(std::move(kinds));
      model.set_order(order);
    } else {
      const auto m = pick(BankModel::kMethods);
      std::vector<MethodId> wake;
      std::set<std::size_t> targets;
      for (std::size_t t = 0; t < BankModel::kMethods; ++t) {
        if (rng.bernoulli(0.3)) {
          wake.push_back(model.methods[t]);
          targets.insert(t);
        }
      }
      bank.set_notification_plan(model.methods[m], std::move(wake));
      model.plans[m] = std::move(targets);
    }
    if (published) model.prune();
    ASSERT_EQ(bank.version(), version + (published ? 1 : 0));
    expect_matches(bank, model);
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BankModelTest,
                         ::testing::Values(1u, 7u, 42u, 1009u, 65537u));

}  // namespace
}  // namespace amf::core
