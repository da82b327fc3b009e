#include "core/factory.hpp"

#include "core/moderator.hpp"

namespace amf::core {

void RegistryAspectFactory::bind(runtime::MethodId method,
                                 runtime::AspectKind kind, Creator creator) {
  std::scoped_lock lock(mu_);
  exact_[{method, kind}] = std::move(creator);
}

void RegistryAspectFactory::bind_kind(runtime::AspectKind kind,
                                      Creator creator) {
  std::scoped_lock lock(mu_);
  by_kind_[kind] = std::move(creator);
}

AspectPtr RegistryAspectFactory::create(runtime::MethodId method,
                                        runtime::AspectKind kind) {
  Creator creator;
  {
    std::scoped_lock lock(mu_);
    if (auto it = exact_.find({method, kind}); it != exact_.end()) {
      creator = it->second;
    } else if (auto jt = by_kind_.find(kind); jt != by_kind_.end()) {
      creator = jt->second;
    }
  }
  // Run the creator outside the lock (CP.22: it is unknown code).
  return creator ? creator(method, kind) : nullptr;
}

std::size_t equip_from_factory(AspectModerator& moderator,
                               AspectFactory& factory,
                               std::span<const runtime::MethodId> methods,
                               std::span<const runtime::AspectKind> kinds,
                               std::vector<NotificationPlan> plans) {
  // Creators run here, outside the bank lock; the cells and plans then
  // publish as one composition.
  std::vector<Binding> cells;
  for (const auto method : methods) {
    for (const auto kind : kinds) {
      if (auto aspect = factory.create(method, kind)) {
        cells.push_back(Binding{method, kind, std::move(aspect)});
      }
    }
  }
  const std::size_t registered = cells.size();
  moderator.bank().register_aspects(std::move(cells), std::move(plans));
  return registered;
}

}  // namespace amf::core
