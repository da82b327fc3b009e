// Aspect factories (the paper's Factory Method deployment, Figs. 4–6, 15).
//
// `AspectFactory` is the application-independent interface; a
// `RegistryAspectFactory` replaces the paper's if/else string dispatch with
// registered creator functions, and `ChainedAspectFactory` reproduces the
// `ExtendedAspectFactory` of §5.3: a child factory that knows the new kinds
// and falls back to its parent for everything else.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/aspect.hpp"
#include "runtime/ids.hpp"

namespace amf::core {

class AspectModerator;  // fwd (for equip_from_factory)

/// Application-independent creator interface (paper's AspectFactoryIF).
class AspectFactory {
 public:
  virtual ~AspectFactory() = default;

  /// Factory Method: creates the aspect guarding (method, kind), or nullptr
  /// when this factory has no aspect for that cell.
  virtual AspectPtr create(runtime::MethodId method,
                           runtime::AspectKind kind) = 0;
};

/// Factory driven by registered creator functions. Creators can be bound to
/// an exact (method, kind) cell or to a whole kind (any method); exact
/// bindings win.
class RegistryAspectFactory : public AspectFactory {
 public:
  using Creator =
      std::function<AspectPtr(runtime::MethodId, runtime::AspectKind)>;

  /// Binds a creator to the exact cell (method, kind).
  void bind(runtime::MethodId method, runtime::AspectKind kind,
            Creator creator);

  /// Binds a creator to every method for `kind` (kind-level default).
  void bind_kind(runtime::AspectKind kind, Creator creator);

  AspectPtr create(runtime::MethodId method,
                   runtime::AspectKind kind) override;

 private:
  mutable std::mutex mu_;
  std::map<std::pair<runtime::MethodId, runtime::AspectKind>, Creator>
      exact_;
  std::map<runtime::AspectKind, Creator> by_kind_;
};

/// The §5.3 extension shape: try the extension factory first, then the
/// original one. Chains compose (a chain can be the parent of a chain).
class ChainedAspectFactory : public AspectFactory {
 public:
  ChainedAspectFactory(std::shared_ptr<AspectFactory> primary,
                       std::shared_ptr<AspectFactory> fallback)
      : primary_(std::move(primary)), fallback_(std::move(fallback)) {}

  AspectPtr create(runtime::MethodId method,
                   runtime::AspectKind kind) override {
    if (primary_) {
      if (auto a = primary_->create(method, kind)) return a;
    }
    return fallback_ ? fallback_->create(method, kind) : nullptr;
  }

 private:
  std::shared_ptr<AspectFactory> primary_;
  std::shared_ptr<AspectFactory> fallback_;
};

/// Reproduces the Fig. 5 proxy constructor as a reusable helper: for every
/// (method, kind) combination, asks the factory for an aspect, then
/// registers whatever it returned with the moderator in one batch (one
/// publish). Returns the number of aspects registered.
std::size_t equip_from_factory(AspectModerator& moderator,
                               AspectFactory& factory,
                               std::span<const runtime::MethodId> methods,
                               std::span<const runtime::AspectKind> kinds);

}  // namespace amf::core
