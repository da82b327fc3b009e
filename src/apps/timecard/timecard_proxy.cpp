#include "apps/timecard/timecard_proxy.hpp"

#include "aspects/audit.hpp"
#include "aspects/authentication.hpp"
#include "aspects/authorization.hpp"
#include "aspects/quota.hpp"
#include "aspects/synchronization.hpp"

namespace amf::apps::timecard {

// Interned once and cached: MethodId::of takes the interner lock, and
// these helpers sit on per-invocation paths.
runtime::MethodId submit_method() {
  static const runtime::MethodId id = runtime::MethodId::of("submit");
  return id;
}
runtime::MethodId approve_method() {
  static const runtime::MethodId id = runtime::MethodId::of("approve");
  return id;
}
runtime::MethodId report_method() {
  static const runtime::MethodId id = runtime::MethodId::of("report");
  return id;
}

std::shared_ptr<TimecardProxy> make_timecard_proxy(
    const runtime::CredentialStore& store, runtime::EventLog& audit_log,
    TimecardQuota quota, core::ModeratorOptions options) {
  auto proxy = std::make_shared<TimecardProxy>(TimecardSystem{}, options);
  auto& moderator = proxy->moderator();

  moderator.bank().set_kind_order(
      {runtime::kinds::authentication(), runtime::kinds::authorization(),
       runtime::kinds::quota(), runtime::kinds::synchronization(),
       runtime::kinds::audit()});

  auto auth = std::make_shared<aspects::AuthenticationAspect>(store);
  auto roles = std::make_shared<aspects::RoleAuthorizationAspect>();
  roles->require(approve_method(), "manager");
  auto limiter = std::make_shared<aspects::RateLimitAspect>(
      *options.clock,
      aspects::RateLimitAspect::Options{quota.submits_per_second, quota.burst,
                                        false});
  auto rw = std::make_shared<aspects::ReadersWriterAspect>();
  rw->add_writer(submit_method());
  rw->add_writer(approve_method());
  rw->add_reader(report_method());
  auto audit = std::make_shared<aspects::AuditAspect>(audit_log, "audit");

  std::vector<core::Binding> cells;
  for (const auto m : {submit_method(), approve_method()}) {
    cells.push_back({m, runtime::kinds::authentication(), auth});
    cells.push_back({m, runtime::kinds::synchronization(), rw});
    cells.push_back({m, runtime::kinds::audit(), audit});
  }
  cells.push_back({approve_method(), runtime::kinds::authorization(), roles});
  cells.push_back({submit_method(), runtime::kinds::quota(), limiter});
  cells.push_back({report_method(), runtime::kinds::synchronization(), rw});
  cells.push_back({report_method(), runtime::kinds::audit(), audit});
  moderator.bank().register_aspects(std::move(cells));
  return proxy;
}

}  // namespace amf::apps::timecard
