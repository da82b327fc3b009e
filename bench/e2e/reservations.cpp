// reservations-browse: three closed-loop clients over the moderated seat
// grid, 90% query / 5% reserve / 5% cancel on uniformly drawn seats.
//
// Every client keeps its own ledger of the seats it holds; a client
// cancels one of its own seats (a uniform one when it holds none), so a
// cancel of a ledger seat must succeed. At the end each ledger must match
// the grid and the free-seat count must match the ledgers.
#include <algorithm>
#include <array>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/reservation/reservation_proxy.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace amf;
using apps::reservation::ReservationProxy;
using apps::reservation::ReservationSystem;
using apps::reservation::Seat;

constexpr int kClients = 3;
constexpr std::size_t kRows = 256;
constexpr std::size_t kCols = 256;

struct Service {
  runtime::Registry registry;  // outlives the timing aspect in the bank
  std::shared_ptr<ReservationProxy> proxy;
};

struct WindowStats {
  Histogram latency;  // call → return, all operations
  Histogram by_op[3];
  Histogram wait;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
};

struct ClientResult {
  explicit ClientResult(double window_s) : slices(window_s) {}

  WindowStats w[kWindows];
  Slices slices;  // window 1
  std::vector<Seat> held;
  std::string violation;
};

enum Op { kQuery, kReserve, kCancel };
const char* const kOpNames[] = {"query", "reserve", "cancel"};

void client_loop(const Config& cfg, Control& ctl, Tracer& tracer,
                 ReservationProxy& proxy, int index, ClientResult& res) {
  const std::string who = "guest" + std::to_string(index);
  std::mt19937_64 rng(cfg.seed * 7919u + std::uint64_t(index));
  std::uniform_int_distribution<std::size_t> row(0, kRows - 1);
  std::uniform_int_distribution<std::size_t> col(0, kCols - 1);
  std::uniform_int_distribution<int> pct(0, 99);
  bool reported = false;
  while (!ctl.stop_openers.load(std::memory_order_acquire)) {
    const int roll = pct(rng);
    const Op op = roll < 90 ? kQuery : roll < 95 ? kReserve : kCancel;
    Seat seat{row(rng), col(rng)};
    std::size_t held_at = res.held.size();
    if (op == kCancel && !res.held.empty()) {
      held_at = std::uniform_int_distribution<std::size_t>(
          0, res.held.size() - 1)(rng);
      seat = res.held[held_at];
    }
    const int w = ctl.window.load(std::memory_order_acquire);
    const runtime::MethodId method =
        op == kQuery ? apps::reservation::query_method()
        : op == kReserve ? apps::reservation::reserve_method()
                         : apps::reservation::cancel_method();
    auto query = [seat](ReservationSystem& s) { return s.holder(seat); };
    auto reserve = [seat, &who](ReservationSystem& s) {
      return s.reserve(seat, who);
    };
    auto cancel = [seat, &who](ReservationSystem& s) {
      return s.cancel(seat, who);
    };
    const std::int64_t t0 = now_ns();
    bool ok = false;
    bool changed = false;  // reserve/cancel took effect
    std::int64_t wait_ns = -1;
    if (ctl.tracing.load(std::memory_order_relaxed)) {
      core::InvocationContext ctx(method);
      auto& m = proxy.moderator();
      auto& c = proxy.component();
      if (op == kQuery) {
        auto out = traced_call(tracer, m, c, ctx, t0, query);
        ok = out.ok;
        wait_ns = out.wait_ns;
      } else {
        auto out = op == kReserve ? traced_call(tracer, m, c, ctx, t0, reserve)
                                  : traced_call(tracer, m, c, ctx, t0, cancel);
        ok = out.ok;
        changed = ok && *out.value;
        wait_ns = out.wait_ns;
      }
    } else if (op == kQuery) {
      ok = proxy.invoke(method, query).ok();
    } else {
      auto r = op == kReserve ? proxy.invoke(method, reserve)
                              : proxy.invoke(method, cancel);
      ok = r.ok();
      changed = ok && *r.value;
    }
    const std::int64_t t1 = now_ns();
    if (changed && op == kReserve) res.held.push_back(seat);
    if (op == kCancel && held_at < res.held.size()) {
      if (!changed && ok && res.violation.empty()) {
        res.violation = who + " could not cancel a seat its ledger holds";
      }
      if (changed) {
        res.held[held_at] = res.held.back();
        res.held.pop_back();
      }
    }
    if (w != 0) {
      WindowStats& ws = res.w[w];
      ++ws.sent;
      if (wait_ns >= 0) ws.wait.record(wait_ns);
      // In memory, the return is the acknowledgement.
      const std::int64_t since = t0 - ctl.start[w];
      if (ok) {
        ++ws.ok;
        ws.latency.record(t1 - t0);
        ws.by_op[op].record(t1 - t0);
        if (w == 1) {
          res.slices.count(since);
          res.slices.record(Slices::kLatency, since, t1 - t0);
          res.slices.record(Slices::kAck, since, t1 - t0);
        }
      } else {
        ws.latency.record_failure();
        ws.by_op[op].record_failure();
        if (w == 1) {
          res.slices.record_failure(Slices::kLatency, since);
          res.slices.record_failure(Slices::kAck, since);
        }
      }
    }
    if (!reported && ctl.tail.load(std::memory_order_acquire)) {
      reported = true;
      ctl.done.fetch_add(1);
    }
  }
}

}  // namespace

Report run_reservations_browse(const Config& cfg) {
  Report report;
  Tracer tracer(std::size_t(1) << 21);
  Histogram setup_ns;
  auto make = [&] {
    auto svc = std::make_unique<Service>();
    svc->proxy = apps::reservation::make_reservation_proxy(kRows, kCols,
                                                           &svc->registry);
    if (cfg.trace) decorate_all(svc->proxy->moderator(), tracer);
    return svc;
  };
  std::unique_ptr<Service> svc = spread_setups(make, 50, setup_ns);
  ReservationProxy& proxy = *svc->proxy;
  core::AspectModerator& moderator = proxy.moderator();

  Control ctl;
  std::vector<ClientResult> clients(kClients,
                                    ClientResult(cfg.window1_s()));
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back(client_loop, std::cref(cfg), std::ref(ctl),
                         std::ref(tracer), std::ref(proxy), i,
                         std::ref(clients[std::size_t(i)]));
  }
  auto totals = [&] {
    std::uint64_t admitted = 0, blocks = 0;
    for (const auto m : {apps::reservation::query_method(),
                         apps::reservation::reserve_method(),
                         apps::reservation::cancel_method()}) {
      admitted += moderator.stats(m).admitted;
      blocks += moderator.stats(m).block_events;
    }
    return std::array<std::uint64_t, 3>{admitted, blocks,
                                        moderator.fast_admissions()};
  };
  std::array<std::uint64_t, 3> before{}, after{};
  std::uint64_t parked_max = 0;
  run_windows(
      cfg, ctl, cfg.trace ? &tracer : nullptr,
      [&] {
        parked_max = std::max(parked_max,
                              std::uint64_t(std::max<std::int64_t>(
                                  moderator.async_parked(), 0)));
      },
      [&](int window, bool opening) {
        if (window == 2) (opening ? before : after) = totals();
      });
  const double rss_mb = rss_peak_mb();
  const bool all_done = await_done(ctl, kClients, 30);
  ctl.stop_openers.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  // --- self-check: every ledger matches the grid ---------------------------
  const ReservationSystem& grid = proxy.component();
  std::string problem;
  std::size_t held_total = 0;
  for (int i = 0; i < kClients && problem.empty(); ++i) {
    ClientResult& c = clients[std::size_t(i)];
    problem = c.violation;
    auto on_grid = grid.seats_of("guest" + std::to_string(i));
    auto by_pos = [](const Seat& a, const Seat& b) {
      return a.row != b.row ? a.row < b.row : a.col < b.col;
    };
    std::sort(on_grid.begin(), on_grid.end(), by_pos);
    std::sort(c.held.begin(), c.held.end(), by_pos);
    if (problem.empty() && on_grid != c.held) {
      problem = "guest" + std::to_string(i) + " ledger holds " +
                std::to_string(c.held.size()) + " seats, the grid " +
                std::to_string(on_grid.size());
    }
    held_total += c.held.size();
  }
  if (problem.empty() && grid.available() != kRows * kCols - held_total) {
    problem = "available() = " + std::to_string(grid.available()) +
              " but the ledgers hold " + std::to_string(held_total) + " seats";
  }
  if (problem.empty() && !all_done) problem = "clients did not finish";
  report.correct = problem.empty();
  report.check = report.correct ? format("ledgers match the grid (%zu seats held)",
                                         held_total)
                                : problem;

  // --- metrics -----------------------------------------------------------
  auto merged = [&](int w) {
    WindowStats out;
    for (const auto& c : clients) {
      out.latency.merge(c.w[w].latency);
      for (int op = 0; op < 3; ++op) out.by_op[op].merge(c.w[w].by_op[op]);
      out.wait.merge(c.w[w].wait);
      out.sent += c.w[w].sent;
      out.ok += c.w[w].ok;
    }
    return out;
  };
  const WindowStats m1 = merged(1);
  const double win_s = ctl.seconds(1);
  report.attempted = m1.sent;
  report.failed = m1.sent - m1.ok;
  report.lines.push_back(describe_setup(setup_ns));
  for (int op = 0; op < 3; ++op) {
    report.lines.push_back(describe(kOpNames[op], m1.by_op[op]));
  }
  Slices slices(cfg.window1_s());
  for (const auto& c : clients) slices.merge(c.slices);
  LayerInputs in;
  in.requests = slices.report(report);
  if (!cfg.trace) {
    end_to_end_metrics(setup_ns.percentile(0.5) * 1e-9, rss_mb, report);
    return report;
  }
  const WindowStats m2 = merged(2);
  report.attempted += m2.sent;
  report.failed += m2.sent - m2.ok;
  in.tracer = &tracer;
  in.trace_out = &cfg.trace_out;
  in.call_ref = m1.latency;
  in.call_traced = m2.latency;
  in.wait = m2.wait;
  in.offered_ref = double(m1.sent) / win_s;
  in.admitted = after[0] - before[0];
  in.blocks = after[1] - before[1];
  in.fast = after[2] - before[2];
  in.parked_max = parked_max;
  in.completed = m2.ok;
  layer_metrics(in, report);
  return report;
}

}  // namespace e2e
