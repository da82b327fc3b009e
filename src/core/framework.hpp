// Umbrella header for the Aspect Moderator Framework public API.
//
// Typical usage:
//
//   using namespace amf;
//   core::ComponentProxy<MyService> proxy(MyService{});
//   proxy.moderator().register_aspect(
//       runtime::MethodId::of("work"), runtime::kinds::synchronization(),
//       std::make_shared<aspects::MutualExclusionAspect>());
//   auto r = proxy.invoke(runtime::MethodId::of("work"),
//                         [](MyService& s) { return s.work(); });
#pragma once

#include "core/aspect.hpp"       // IWYU pragma: export
#include "core/bank.hpp"         // IWYU pragma: export
#include "core/context.hpp"      // IWYU pragma: export
#include "core/decision.hpp"     // IWYU pragma: export
#include "core/factory.hpp"      // IWYU pragma: export
#include "core/moderator.hpp"    // IWYU pragma: export
#include "core/proxy.hpp"        // IWYU pragma: export
#include "core/verify.hpp"       // IWYU pragma: export
