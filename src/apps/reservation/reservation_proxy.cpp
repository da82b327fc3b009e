#include "apps/reservation/reservation_proxy.hpp"

#include "aspects/scheduling.hpp"
#include "aspects/synchronization.hpp"
#include "aspects/timing.hpp"

namespace amf::apps::reservation {

// Interned once and cached: MethodId::of takes the interner lock, and
// these helpers sit on per-invocation paths.
runtime::MethodId reserve_method() {
  static const runtime::MethodId id = runtime::MethodId::of("reserve");
  return id;
}
runtime::MethodId cancel_method() {
  static const runtime::MethodId id = runtime::MethodId::of("cancel");
  return id;
}
runtime::MethodId query_method() {
  static const runtime::MethodId id = runtime::MethodId::of("query");
  return id;
}

std::shared_ptr<ReservationProxy> make_reservation_proxy(
    std::size_t rows, std::size_t cols, runtime::Registry* metrics,
    core::ModeratorOptions options) {
  auto proxy = std::make_shared<ReservationProxy>(
      ReservationSystem(rows, cols), options);
  auto& moderator = proxy->moderator();

  moderator.bank().set_kind_order({runtime::kinds::scheduling(),
                                   runtime::kinds::synchronization(),
                                   runtime::kinds::timing()});

  auto rw = std::make_shared<aspects::ReadersWriterAspect>();
  rw->add_writer(reserve_method());
  rw->add_writer(cancel_method());
  rw->add_reader(query_method());

  auto sched = std::make_shared<aspects::PrioritySchedulingAspect>();

  std::vector<core::Binding> cells;
  for (const auto m : {reserve_method(), cancel_method()}) {
    cells.push_back({m, runtime::kinds::scheduling(), sched});
    cells.push_back({m, runtime::kinds::synchronization(), rw});
  }
  cells.push_back({query_method(), runtime::kinds::synchronization(), rw});

  if (metrics != nullptr) {
    auto timing = std::make_shared<aspects::TimingAspect>(
        *metrics, *options.clock, "reservation");
    for (const auto m :
         {reserve_method(), cancel_method(), query_method()}) {
      cells.push_back({m, runtime::kinds::timing(), timing});
    }
  }
  moderator.bank().register_aspects(std::move(cells));
  return proxy;
}

}  // namespace amf::apps::reservation
