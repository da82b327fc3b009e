#include "core/factory.hpp"

#include <gtest/gtest.h>

#include "core/moderator.hpp"

namespace amf::core {
namespace {

using runtime::AspectKind;
using runtime::MethodId;

AspectPtr named(std::string name) {
  return std::make_shared<LambdaAspect>(std::move(name));
}

TEST(RegistryAspectFactoryTest, ExactBindingWins) {
  RegistryAspectFactory factory;
  const auto m = MethodId::of("open");
  const auto k = AspectKind::of("sync");
  factory.bind_kind(k, [](MethodId, AspectKind) { return named("generic"); });
  factory.bind(m, k, [](MethodId, AspectKind) { return named("specific"); });
  EXPECT_EQ(factory.create(m, k)->name(), "specific");
  EXPECT_EQ(factory.create(MethodId::of("assign"), k)->name(), "generic");
}

TEST(RegistryAspectFactoryTest, UnknownCellReturnsNull) {
  RegistryAspectFactory factory;
  EXPECT_EQ(factory.create(MethodId::of("x"), AspectKind::of("y")), nullptr);
}

TEST(RegistryAspectFactoryTest, CreatorReceivesCell) {
  RegistryAspectFactory factory;
  const auto m = MethodId::of("open");
  const auto k = AspectKind::of("sync");
  factory.bind_kind(k, [](MethodId method, AspectKind kind) {
    return named(std::string(method.name()) + "/" + std::string(kind.name()));
  });
  EXPECT_EQ(factory.create(m, k)->name(), "open/sync");
}

TEST(ChainedAspectFactoryTest, PrimaryWinsFallbackFills) {
  // The §5.3 shape: extended factory knows AUTHENTICATE, parent knows SYNC.
  auto parent = std::make_shared<RegistryAspectFactory>();
  auto child = std::make_shared<RegistryAspectFactory>();
  const auto sync = AspectKind::of("c-sync");
  const auto auth = AspectKind::of("c-auth");
  parent->bind_kind(sync,
                    [](MethodId, AspectKind) { return named("sync"); });
  child->bind_kind(auth, [](MethodId, AspectKind) { return named("auth"); });

  ChainedAspectFactory extended(child, parent);
  const auto m = MethodId::of("open");
  EXPECT_EQ(extended.create(m, auth)->name(), "auth");
  EXPECT_EQ(extended.create(m, sync)->name(), "sync");
  EXPECT_EQ(extended.create(m, AspectKind::of("c-none")), nullptr);
}

TEST(ChainedAspectFactoryTest, ChildOverridesParent) {
  auto parent = std::make_shared<RegistryAspectFactory>();
  auto child = std::make_shared<RegistryAspectFactory>();
  const auto k = AspectKind::of("c2-sync");
  parent->bind_kind(k, [](MethodId, AspectKind) { return named("old"); });
  child->bind_kind(k, [](MethodId, AspectKind) { return named("new"); });
  ChainedAspectFactory extended(child, parent);
  EXPECT_EQ(extended.create(MethodId::of("m"), k)->name(), "new");
}

TEST(ChainedAspectFactoryTest, NullPartsTolerated) {
  ChainedAspectFactory empty(nullptr, nullptr);
  EXPECT_EQ(empty.create(MethodId::of("m"), AspectKind::of("k")), nullptr);
}

TEST(EquipFromFactoryTest, RegistersEveryAvailableCell) {
  // Reproduces Fig. 5: equip a moderator for two methods × one kind.
  AspectModerator moderator;
  RegistryAspectFactory factory;
  const auto open = MethodId::of("eq-open");
  const auto assign = MethodId::of("eq-assign");
  const auto sync = AspectKind::of("eq-sync");
  factory.bind_kind(sync, [](MethodId m, AspectKind) {
    return named(std::string(m.name()));
  });
  const MethodId methods[] = {open, assign};
  const AspectKind kinds[] = {sync};
  const auto before = moderator.bank().version();
  EXPECT_EQ(equip_from_factory(moderator, factory, methods, kinds), 2u);
  EXPECT_NE(moderator.bank().find(open, sync), nullptr);
  EXPECT_NE(moderator.bank().find(assign, sync), nullptr);
  // Both cells publish as one composition.
  EXPECT_EQ(moderator.bank().version(), before + 1);
}

TEST(EquipFromFactoryTest, SkipsCellsTheFactoryDeclines) {
  AspectModerator moderator;
  RegistryAspectFactory factory;
  const auto open = MethodId::of("eq2-open");
  const auto sync = AspectKind::of("eq2-sync");
  const auto auth = AspectKind::of("eq2-auth");
  factory.bind(open, sync, [](MethodId, AspectKind) { return named("s"); });
  const MethodId methods[] = {open};
  const AspectKind kinds[] = {sync, auth};
  EXPECT_EQ(equip_from_factory(moderator, factory, methods, kinds), 1u);
  EXPECT_EQ(moderator.bank().find(open, auth), nullptr);
  // A factory that declines every cell publishes nothing.
  const auto before = moderator.bank().version();
  const AspectKind declined[] = {auth};
  EXPECT_EQ(equip_from_factory(moderator, factory, methods, declined), 0u);
  EXPECT_EQ(moderator.bank().version(), before);
}

}  // namespace
}  // namespace amf::core
