// The three ticket workloads: tickets-durable, tickets-saturate (both over
// DurableTicketApp) and tickets-handoff (the in-memory ticket proxy).
//
// Two opener threads issue sync `open` calls; one agent thread keeps a
// fixed number of async `assign` calls parked and progresses its persona.
// Ticket ids carry the opener's tag in their high bits and a per-opener
// sequence below, so FIFO hand-off is checkable with constant memory: the
// agent must receive every opener's tickets in sequence, and what is left
// pending at the end must be exactly the unassigned tail of each sequence.
#include <algorithm>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/ticket/durable_ticket.hpp"
#include "aspects/authentication.hpp"
#include "aspects/observability.hpp"
#include "aspects/overload.hpp"
#include "aspects/timing.hpp"
#include "concurrency/progress.hpp"
#include "storage/codec.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace amf;
using apps::ticket::assign_method;
using apps::ticket::DurableTicketApp;
using apps::ticket::open_method;
using apps::ticket::Ticket;
using apps::ticket::TicketProxy;
using apps::ticket::TicketServer;
namespace fs = std::filesystem;

struct Shape {
  bool durable = false;
  bool open_loop = false;
  double rate_per_opener = 0;  // arrivals/s of each opener (open loop)
  std::size_t capacity = 0;
  std::size_t parked = 0;      // async assigns the agent keeps in flight
  std::int64_t preload = 0;    // commits written before set-up
  runtime::Duration open_deadline{0};  // 0 = none
};

constexpr int kOpeners = 2;
constexpr int kTagBits = 40;
constexpr std::uint64_t kSeqMask = (std::uint64_t(1) << kTagBits) - 1;

std::uint64_t ticket_id(int tag, std::uint64_t seq) {
  return (std::uint64_t(tag) << kTagBits) | seq;
}

runtime::AspectKind exclusion_kind() {
  return runtime::AspectKind::of("exclusion");
}
runtime::AspectKind overload_kind() {
  return runtime::AspectKind::of("overload");
}

DurableTicketApp::Options durable_options(const Shape& shape,
                                          bool background) {
  DurableTicketApp::Options o;
  o.capacity = shape.capacity;
  // Group commit of 64 records. At tickets-durable's 50 000 records/s a
  // group fills in 1.3 ms, so commit and fsync stay a visible part of the
  // ack (about a quarter of its median, most of its p99, on ext4). Groups
  // of 16 leave the open loop too little headroom on that disk; groups of
  // 1024 make the ack almost all fill time (20 ms).
  o.wal.sync_every = 64;
  if (background) {
    o.checkpoint_interval = std::chrono::seconds(1);
    core::WatchdogOptions watchdog;  // report-only
    watchdog.poll = std::chrono::milliseconds(100);
    o.moderator.watchdog = watchdog;
  }
  return o;
}

/// Writes `commits` alternating open/assign commit records, the log a
/// long-lived service leaves behind, so that set-up replays it.
runtime::Result<void> write_preload(const std::string& dir,
                                    std::int64_t commits, std::uint64_t seed) {
  storage::WalOptions wal;
  wal.sync_every = 0;
  auto opened = storage::FileStorage::open(dir, wal);
  if (!opened.ok()) return opened.error();
  storage::FileStorage& st = *opened.value();
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  static const char kHex[] = "0123456789abcdef";
  storage::CommitRecord open_rec;
  open_rec.method = std::string(open_method().name());
  open_rec.principal = "preload";
  storage::CommitRecord assign_rec;
  assign_rec.method = std::string(assign_method().name());
  assign_rec.principal = "preload";
  for (std::int64_t i = 1; i <= commits / 2; ++i) {
    std::string desc = "e2e-";
    for (int k = 0; k < 8; ++k) desc.push_back(kHex[rng() & 15]);
    open_rec.invocation_id = std::uint64_t(2 * i);
    open_rec.notes = {{std::string(apps::ticket::kTicketIdNote),
                       std::to_string(ticket_id(0, std::uint64_t(i)))},
                      {std::string(apps::ticket::kTicketDescNote), desc},
                      {std::string(apps::ticket::kTicketByNote), "preload"}};
    auto a = st.append(storage::kCommitRecord, storage::encode_commit(open_rec));
    if (!a.ok()) return a.error();
    assign_rec.invocation_id = std::uint64_t(2 * i + 1);
    auto b =
        st.append(storage::kCommitRecord, storage::encode_commit(assign_rec));
    if (!b.ok()) return b.error();
  }
  return st.sync();
}

/// One instance of the service under test plus the wiring the workload
/// adds to it. Member order is destruction order in reverse: the bank
/// (inside app/memory) holds aspects over `creds`, `registry` and `timed`.
struct Service {
  runtime::CredentialStore creds;
  runtime::Registry registry;
  std::unique_ptr<TimedStorage> timed;
  std::unique_ptr<DurableTicketApp> app;
  std::shared_ptr<TicketProxy> memory;
  std::vector<runtime::Principal> principals;  // openers, then the agent

  TicketProxy& proxy() { return app ? app->proxy() : *memory; }
  storage::Storage* storage() { return app ? &app->storage() : nullptr; }
};

runtime::Result<std::unique_ptr<Service>> make_service(const Shape& shape,
                                                       const std::string& dir,
                                                       Tracer* tracer) {
  auto svc = std::make_unique<Service>();
  if (shape.durable) {
    auto app = DurableTicketApp::open(dir, durable_options(shape, true));
    if (!app.ok()) return app.error();
    svc->app = std::move(app.value());
    for (int i = 0; i <= kOpeners; ++i) {
      const std::string user =
          i < kOpeners ? "opener" + std::to_string(i) : "agent";
      if (auto r = svc->creds.add_user(user, "pw", {}); !r.ok()) {
        return r.error();
      }
      auto principal = svc->creds.login(user, "pw");
      if (!principal.ok()) return principal.error();
      svc->principals.push_back(principal.value());
    }
    // Chain: authenticate → (sampled) timing → adaptive limiter (open
    // only) → bounded-resource sync → exclusion → persist.
    auto& moderator = svc->app->proxy().moderator();
    auto auth = std::make_shared<aspects::AuthenticationAspect>(svc->creds);
    auto timing = std::make_shared<aspects::SamplingAspect>(
        std::make_shared<aspects::TimingAspect>(svc->registry,
                                                moderator.clock(), "e2e"),
        16);
    auto limiter =
        std::make_shared<aspects::AdaptiveLimiterAspect>(moderator.clock());
    moderator.bank().set_kind_order(
        {runtime::kinds::authentication(), runtime::kinds::timing(),
         overload_kind(), runtime::kinds::synchronization(), exclusion_kind(),
         runtime::kinds::persistence()});
    for (const auto m : {open_method(), assign_method()}) {
      moderator.register_aspect(m, runtime::kinds::authentication(), auth);
      moderator.register_aspect(m, runtime::kinds::timing(), timing);
    }
    // The limiter's latency sample is now − enqueued_at: on assign it
    // would read the agent's deliberate parked wait as overload.
    moderator.register_aspect(open_method(), overload_kind(), limiter);
  } else {
    svc->memory = apps::ticket::make_ticket_proxy(shape.capacity);
    svc->principals.assign(kOpeners + 1, runtime::Principal::anonymous());
  }
  if (tracer != nullptr) {
    if (svc->app) {
      svc->timed = std::make_unique<TimedStorage>(svc->app->storage(), *tracer);
      auto persist = std::make_shared<storage::PersistenceAspect>(*svc->timed);
      for (const auto m : {open_method(), assign_method()}) {
        svc->proxy().moderator().register_aspect(
            m, runtime::kinds::persistence(), persist);
      }
    }
    decorate_all(svc->proxy().moderator(), *tracer);
  }
  return svc;
}

struct WindowStats {
  Histogram latency;  // openers: call → return; agent: start → settle
  Histogram ack;      // openers: begin → ack (in memory: the return)
  Histogram late;     // open loop: send − due
  Histogram ack_lag;  // ack − return
  Histogram wait;     // admitted_at − enqueued_at (traced calls)
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;     // returned successfully
  std::uint64_t acked = 0;  // complete: acknowledged (openers) or returned
  std::int64_t last_late = 0;
};

struct WorkerResult {
  explicit WorkerResult(double window_s) : slices(window_s) {}

  WindowStats w[kWindows];
  Slices slices;  // window 1
  std::uint64_t count = 0;  // opener: tickets opened; agent: assigned
  std::uint64_t expected[kOpeners + 1] = {};  // agent: next seq per tag
  std::string violation;
  std::uint64_t progress_calls = 0, progress_empty = 0, progress_fired = 0;
};

struct Run {
  const Config& cfg;
  const Shape& shape;
  Tracer& tracer;
  Service& svc;
  Control ctl;
  AckBoard board;
};

void opener_loop(Run& run, int tag, WorkerResult& res) {
  const Shape& shape = run.shape;
  std::mt19937_64 rng(run.cfg.seed * 1000003u + std::uint64_t(tag));
  std::exponential_distribution<double> gap_ns(
      shape.open_loop ? shape.rate_per_opener * 1e-9 : 1.0);
  const runtime::Principal& who = run.svc.principals[std::size_t(tag - 1)];
  TicketProxy& proxy = run.svc.proxy();
  storage::Storage* st = run.svc.storage();
  struct Unacked {
    storage::Lsn lsn;
    std::int64_t begin;
    std::int64_t ret;
    int window;
  };
  std::deque<Unacked> unacked;
  auto acked = [&](int w, std::int64_t begin, std::int64_t t) {
    WindowStats& ws = res.w[w];
    ws.ack.record(t - begin);
    ++ws.acked;
    if (w == 1) res.slices.record(Slices::kAck, begin - run.ctl.start[1], t - begin);
  };
  auto resolve = [&](std::int64_t t_obs) {
    while (!unacked.empty() && unacked.front().lsn <= run.board.frontier()) {
      const Unacked& u = unacked.front();
      std::int64_t t = run.board.ack_time(u.lsn, u.ret);
      if (t < 0) t = t_obs;
      res.w[u.window].ack_lag.record(t - u.ret);
      acked(u.window, u.begin, t);
      unacked.pop_front();
    }
  };

  std::uint64_t seq = 1;
  std::int64_t due = now_ns();
  bool reported = false;
  while (!run.ctl.stop_openers.load(std::memory_order_acquire)) {
    std::int64_t begin = 0;
    if (shape.open_loop) {
      due += static_cast<std::int64_t>(gap_ns(rng));
      while (now_ns() < due) cpu_relax();
      begin = due;
    }
    const int w = run.ctl.window.load(std::memory_order_acquire);
    Ticket t;
    t.id = ticket_id(tag, seq);
    t.description = "e2e";
    t.opened_by = who.name;
    const std::int64_t t_call = now_ns();
    if (!shape.open_loop) begin = t_call;
    bool ok = false;
    std::int64_t wait_ns = -1;
    if (run.ctl.tracing.load(std::memory_order_relaxed)) {
      // DurableTicketApp::open_ticket's call, driven layer by layer.
      core::InvocationContext ctx(open_method());
      if (shape.durable) {
        ctx.set_principal(who);
        ctx.set_note(apps::ticket::kTicketIdNote, std::to_string(t.id));
        ctx.set_note(apps::ticket::kTicketDescNote, t.description);
        ctx.set_note(apps::ticket::kTicketByNote, t.opened_by);
      }
      if (shape.open_deadline.count() > 0) {
        ctx.set_deadline(proxy.moderator().clock().now() + shape.open_deadline);
      }
      auto out = traced_call(run.tracer, proxy.moderator(), proxy.component(),
                             ctx, t_call, [&t](TicketServer& s) { s.open(t); });
      ok = out.ok;
      wait_ns = out.wait_ns;
    } else if (shape.durable) {
      ok = run.svc.app->open_ticket(t, who).ok();
    } else {
      auto call = proxy.call(open_method());
      if (shape.open_deadline.count() > 0) call.within(shape.open_deadline);
      ok = call.run([&t](TicketServer& s) { s.open(t); }).ok();
    }
    const std::int64_t t_ret = now_ns();
    if (ok) {
      ++seq;
      ++res.count;
    }
    if (w != 0) {
      // Window 1's start is ordered before this thread saw any window open.
      const std::int64_t since = begin - run.ctl.start[1];
      WindowStats& ws = res.w[w];
      ++ws.sent;
      if (wait_ns >= 0) ws.wait.record(wait_ns);
      if (shape.open_loop) {
        ws.late.record(t_call - due);
        ws.last_late = t_call - due;
      }
      if (ok) {
        ++ws.ok;
        ws.latency.record(t_ret - t_call);
        if (w == 1) {
          res.slices.count(since);
          res.slices.record(Slices::kLatency, since, t_ret - t_call);
        }
        if (st == nullptr) acked(w, begin, t_ret);
      } else {
        ws.latency.record_failure();
        ws.ack.record_failure();
        if (w == 1) {
          res.slices.record_failure(Slices::kLatency, since);
          res.slices.record_failure(Slices::kAck, since);
        }
      }
    }
    if (st != nullptr) {
      // §15 ack rule: acknowledged once last_synced() covers what was
      // appended when the call returned.
      const storage::Lsn need = st->last_appended();
      const storage::Lsn synced = st->last_synced();
      const std::int64_t t_obs = now_ns();
      run.board.observe(synced, t_obs);
      if (w != 0 && ok) unacked.push_back(Unacked{need, begin, t_ret, w});
      resolve(t_obs);
    }
    if (!reported && unacked.empty() &&
        run.ctl.tail.load(std::memory_order_acquire)) {
      reported = true;
      run.ctl.done.fetch_add(1);
    }
  }
  // Requests still unacknowledged when the load stopped count as failed.
  for (const Unacked& u : unacked) {
    res.w[u.window].ack.record_failure();
    if (u.window == 1) {
      res.slices.record_failure(Slices::kAck, u.begin - run.ctl.start[1]);
    }
  }
}

/// The async consumer: keeps `shape.parked` assign calls in flight.
class Agent {
 public:
  Agent(Run& run, WorkerResult& res)
      : run_(run),
        res_(res),
        slots_(new Slot[run.shape.parked]),
        who_(run.svc.principals[kOpeners]) {
    ready_.reserve(run.shape.parked);
    batch_.reserve(run.shape.parked);
    for (int tag = 1; tag <= kOpeners; ++tag) res_.expected[tag] = 1;
  }

  void loop() {
    concurrency::Persona& persona = concurrency::Persona::current();
    storage::Storage* st = run_.svc.storage();
    for (std::size_t i = 0; i < run_.shape.parked; ++i) start(i);
    bool reported = false;
    for (;;) {
      const bool traced = run_.ctl.window.load(std::memory_order_relaxed) == 2;
      const std::size_t fired = persona.progress();
      if (traced) {
        ++res_.progress_calls;
        res_.progress_fired += fired;
        if (fired == 0) ++res_.progress_empty;
      }
      const bool stopping = run_.ctl.stop_agent.load(std::memory_order_acquire);
      batch_.swap(ready_);
      for (const std::size_t i : batch_) {
        harvest(i);
        if (!stopping) start(i);
      }
      const bool harvested = !batch_.empty();
      batch_.clear();
      if (harvested && st != nullptr) run_.board.observe(st->last_synced(), now_ns());
      if (!reported && tagged_ == 0 &&
          run_.ctl.tail.load(std::memory_order_acquire)) {
        reported = true;
        run_.ctl.done.fetch_add(1);
      }
      if (stopping && outstanding_ == 0 && ready_.empty()) break;
      if (fired == 0 && !harvested) cpu_relax();
    }
  }

 private:
  using Plain = DurableTicketApp::AsyncAssignCall;
  struct Notify {
    Agent* agent;
    std::size_t slot;
    void operator()() const { agent->settled(slot); }
  };
  using Traced = TracedAsync<TicketServer, DurableTicketApp::AssignBody, Notify>;
  struct Slot {
    std::optional<Plain> plain;
    std::optional<Traced> traced;
    std::int64_t start = 0;
    std::int64_t settled = 0;
    int window = 0;
  };

  void settled(std::size_t i) {
    slots_[i].settled = now_ns();
    ready_.push_back(i);
  }

  void start(std::size_t i) {
    Slot& s = slots_[i];
    TicketProxy& proxy = run_.svc.proxy();
    s.window = run_.ctl.window.load(std::memory_order_acquire);
    s.start = now_ns();
    ++outstanding_;
    if (s.window != 0) ++tagged_;
    if (run_.ctl.tracing.load(std::memory_order_relaxed)) {
      s.traced.emplace(run_.tracer, proxy.moderator(), proxy.component(),
                       assign_method(), DurableTicketApp::AssignBody{},
                       Notify{this, i});
      s.traced->context().set_principal(who_);
      s.traced->start(s.start);
    } else {
      // DurableTicketApp::assign_ticket_async, with a slot for a slab.
      s.plain.emplace(proxy, assign_method(), DurableTicketApp::AssignBody{});
      s.plain->context().set_principal(who_);
      s.plain->future().then([this, i](Plain::Result&) { settled(i); });
      s.plain->start();
    }
  }

  void harvest(std::size_t i) {
    Slot& s = slots_[i];
    bool ok = false;
    std::uint64_t id = 0;
    std::int64_t wait_ns = -1;
    if (s.plain) {
      const Plain::Result& r = s.plain->future().value();
      ok = r.ok();
      if (ok) id = r.value->id;
    } else {
      const auto& out = s.traced->outcome();
      ok = out.ok;
      if (ok) id = out.value->id;
      wait_ns = out.wait_ns;
    }
    --outstanding_;
    if (s.window != 0) {
      --tagged_;
      WindowStats& ws = res_.w[s.window];
      ++ws.sent;
      if (wait_ns >= 0) ws.wait.record(wait_ns);
      if (ok) {
        ++ws.ok;
        ++ws.acked;
        ws.latency.record(s.settled - s.start);
        if (s.window == 1) res_.slices.count(s.start - run_.ctl.start[1]);
      } else {
        ws.latency.record_failure();
      }
    }
    if (ok) {
      ++res_.count;
      const auto tag = static_cast<int>(id >> kTagBits);
      const std::uint64_t seq = id & kSeqMask;
      if (tag < 1 || tag > kOpeners || seq != res_.expected[tag]) {
        if (res_.violation.empty()) {
          res_.violation = "assign returned ticket " + std::to_string(id) +
                           " out of FIFO order (or twice)";
        }
      } else {
        ++res_.expected[tag];
      }
    }
    s.plain.reset();
    s.traced.reset();
  }

  Run& run_;
  WorkerResult& res_;
  std::unique_ptr<Slot[]> slots_;
  const runtime::Principal who_;
  std::vector<std::size_t> ready_;
  std::vector<std::size_t> batch_;
  std::size_t outstanding_ = 0;
  std::size_t tagged_ = 0;
};

struct ModeratorTotals {
  std::uint64_t admitted = 0, blocks = 0, fast = 0;
};

ModeratorTotals moderator_totals(core::AspectModerator& m, bool durable) {
  ModeratorTotals t;
  std::vector<runtime::MethodId> methods = {open_method(), assign_method()};
  if (durable) methods.push_back(apps::ticket::checkpoint_method());
  for (const auto method : methods) {
    const core::MethodStats s = m.stats(method);
    t.admitted += s.admitted;
    t.blocks += s.block_events;
  }
  t.fast = m.fast_admissions();
  return t;
}

/// Checks the pending tickets (FIFO order) are exactly every opener's
/// unassigned tail: `expected` holds each opener's next unassigned
/// sequence, `opened` how many tickets each opener opened.
std::string check_pending(const std::vector<Ticket>& pending,
                          const std::uint64_t (&expected)[kOpeners + 1],
                          const std::vector<std::uint64_t>& opened) {
  std::uint64_t next[kOpeners + 1];
  std::copy(std::begin(expected), std::end(expected), next);
  for (const Ticket& t : pending) {
    const auto tag = static_cast<int>(t.id >> kTagBits);
    if (tag < 1 || tag > kOpeners || (t.id & kSeqMask) != next[tag]) {
      return "pending ticket " + std::to_string(t.id) + " out of order";
    }
    ++next[tag];
  }
  for (int tag = 1; tag <= kOpeners; ++tag) {
    if (next[tag] != opened[std::size_t(tag)] + 1) {
      return "opener " + std::to_string(tag) + " opened " +
             std::to_string(opened[std::size_t(tag)]) +
             " tickets but assigned + pending account for " +
             std::to_string(next[tag] - 1);
    }
  }
  return {};
}

Report run_tickets(const Config& cfg, const Shape& shape) {
  Report report;
  const fs::path root(cfg.data_dir);
  std::error_code ec;
  fs::create_directories(root, ec);
  const std::int64_t preload =
      cfg.smoke ? std::min(shape.preload, kSmokePreload) : shape.preload;
  const fs::path preload_dir = root / "preload";

  Tracer tracer(std::size_t(1) << 21);
  std::vector<fs::path> segments;  // the preload's, oldest first
  if (preload > 0) {
    if (auto r = write_preload(preload_dir.string(), preload, cfg.seed);
        !r.ok()) {
      report.fatal = "preload failed: " + r.error().to_string();
      return report;
    }
    for (const auto& f : fs::directory_iterator(preload_dir)) {
      segments.push_back(f.path());
    }
    std::sort(segments.begin(), segments.end());  // wal-<first lsn, hex>.log
  }

  // Set-up: open (replaying the preload) and wire the service; repeated,
  // the median is reported. Each set-up gets its own directory: a stopped
  // app checkpoints once more, which would spare the next set-up the
  // replay. The sealed preload segments are hard-linked in; the last one
  // is copied, because the opened WAL appends to it.
  Histogram setup_ns;
  int rep = 0;
  std::string dir;  // the directory of the last set-up, which is kept
  std::string setup_error;
  auto prepare = [&] {
    dir = (root / ("svc-" + std::to_string(rep++))).string();
    fs::create_directories(dir);
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const fs::path to = fs::path(dir) / segments[i].filename();
      if (i + 1 < segments.size()) {
        fs::create_hard_link(segments[i], to);
      } else {
        fs::copy_file(segments[i], to);
      }
    }
  };
  auto make = [&]() -> std::unique_ptr<Service> {
    auto svc = make_service(shape, dir, cfg.trace ? &tracer : nullptr);
    if (!svc.ok()) {
      setup_error = svc.error().to_string();
      return nullptr;
    }
    return std::move(svc.value());
  };
  std::unique_ptr<Service> svc = shape.durable
                                     ? timed_setups(prepare, make, 3, setup_ns)
                                     : spread_setups(make, 50, setup_ns);
  if (!svc || !setup_error.empty()) {
    report.fatal = "set-up failed: " + setup_error;
    return report;
  }
  const double setup_median = setup_ns.percentile(0.5) * 1e-9;
  const std::uint64_t replayed =
      svc->app ? svc->app->recovery_stats().replayed : 0;

  Run run{cfg, shape, tracer, *svc, {}, {}};
  std::vector<WorkerResult> openers(kOpeners,
                                    WorkerResult(cfg.window1_s()));
  WorkerResult agent_res(cfg.window1_s());
  Agent agent(run, agent_res);
  std::vector<std::thread> threads;
  for (int tag = 1; tag <= kOpeners; ++tag) {
    threads.emplace_back(opener_loop, std::ref(run), tag,
                         std::ref(openers[std::size_t(tag - 1)]));
  }
  std::thread agent_thread([&agent] { agent.loop(); });

  core::AspectModerator& moderator = svc->proxy().moderator();
  ModeratorTotals before, after;
  std::uint64_t parked_max = 0;
  std::uint64_t appends = 0, bytes = 0, syncs = 0;
  run_windows(
      cfg, run.ctl, cfg.trace ? &tracer : nullptr,
      [&] {
        parked_max = std::max(
            parked_max, std::uint64_t(std::max<std::int64_t>(
                            moderator.async_parked(), 0)));
      },
      [&](int window, bool opening) {
        if (window != 2) return;
        if (opening) {
          before = moderator_totals(moderator, shape.durable);
        } else {
          after = moderator_totals(moderator, shape.durable);
          if (svc->timed) {
            appends = svc->timed->appends();
            bytes = svc->timed->bytes();
            syncs = svc->timed->syncs();
          }
        }
      });
  const double rss_mb = rss_peak_mb();

  const bool all_done = await_done(run.ctl, kOpeners + 1, 30);
  run.ctl.stop_openers.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  run.ctl.stop_agent.store(true, std::memory_order_release);
  runtime::Result<storage::DrainReport> drained = storage::DrainReport{};
  if (svc->app) {
    drained = svc->app->drain();
  } else {
    moderator.shutdown();
  }
  agent_thread.join();

  // --- self-check ------------------------------------------------------
  std::vector<std::uint64_t> opened(kOpeners + 1, 0);
  std::uint64_t opened_total = std::uint64_t(preload / 2);
  for (int tag = 1; tag <= kOpeners; ++tag) {
    opened[std::size_t(tag)] = openers[std::size_t(tag - 1)].count;
    opened_total += opened[std::size_t(tag)];
  }
  const std::uint64_t assigned_total = std::uint64_t(preload / 2) + agent_res.count;
  std::string problem = agent_res.violation;
  if (problem.empty() && !all_done) {
    problem = "requests of the window were still outstanding 30 s after it";
  }
  if (problem.empty() && svc->app) {
    if (!drained.ok()) {
      problem = "drain failed: " + drained.error().to_string();
    } else if (!drained.value().quiesced || !drained.value().checkpointed) {
      problem = "drain did not quiesce and checkpoint";
    }
  }
  if (problem.empty()) {
    if (svc->app) {
      // Reopen the directory: every acknowledged (here: every completed,
      // since drain synced the tail) open and assign must be recovered.
      svc.reset();
      auto reopened = DurableTicketApp::open(dir, durable_options(shape, false));
      if (!reopened.ok()) {
        problem = "reopen failed: " + reopened.error().to_string();
      } else {
        DurableTicketApp& app = *reopened.value();
        if (app.total_opened() != opened_total ||
            app.total_assigned() != assigned_total) {
          problem = "recovered " + std::to_string(app.total_opened()) +
                    " opens / " + std::to_string(app.total_assigned()) +
                    " assigns, expected " + std::to_string(opened_total) +
                    " / " + std::to_string(assigned_total);
        } else if (app.total_opened() - app.total_assigned() != app.pending()) {
          problem = "recovered totals disagree with the pending count";
        } else {
          problem = check_pending(app.proxy().component().pending_snapshot(),
                                  agent_res.expected, opened);
        }
      }
    } else {
      problem = check_pending(svc->proxy().component().pending_snapshot(),
                              agent_res.expected, opened);
    }
  }
  report.correct = problem.empty();
  report.check = report.correct
                     ? "opened " + std::to_string(opened_total) + ", assigned " +
                           std::to_string(assigned_total) +
                           (shape.durable ? ", all recovered after reopen"
                                          : ", each exactly once")
                     : problem;
  svc.reset();
  fs::remove_all(root, ec);

  // --- metrics -----------------------------------------------------------
  auto merged = [&](int w, Histogram WindowStats::*h, bool with_agent) {
    Histogram out;
    for (const auto& o : openers) out.merge(o.w[w].*h);
    if (with_agent) out.merge(agent_res.w[w].*h);
    return out;
  };
  auto counted = [&](int w, std::uint64_t WindowStats::*c) {
    std::uint64_t n = agent_res.w[w].*c;
    for (const auto& o : openers) n += o.w[w].*c;
    return n;
  };
  for (int w = 1; w <= (cfg.trace ? 2 : 1); ++w) {
    report.attempted += counted(w, &WindowStats::sent);
    report.failed +=
        counted(w, &WindowStats::sent) - counted(w, &WindowStats::acked);
  }
  const double win_s = run.ctl.seconds(1);
  const Histogram latency = merged(1, &WindowStats::latency, false);
  const Histogram ack = merged(1, &WindowStats::ack, false);
  const Histogram settle = agent_res.w[1].latency;
  std::int64_t late_end = 0;
  for (const auto& o : openers) late_end = std::max(late_end, o.w[1].last_late);

  report.lines.push_back(describe_setup(setup_ns));
  if (replayed > 0) {
    report.lines.push_back(format("set-up replayed %llu commits (%.0f/s)",
                                  static_cast<unsigned long long>(replayed),
                                  double(replayed) / setup_median));
  }
  report.lines.push_back(describe("open latency", latency));
  if (shape.durable) report.lines.push_back(describe("open ack", ack));
  report.lines.push_back(describe("assign settle", settle));
  if (shape.open_loop) {
    const Histogram late = merged(1, &WindowStats::late, false);
    report.lines.push_back(
        format("generator lateness p99=%.2f us, at window end %.3f ms%s",
               late.percentile(0.99) * 1e-3, double(late_end) * 1e-6,
               late_end > 10'000'000 ? " INVALID: backlog growing" : ""));
  }

  Slices slices = agent_res.slices;
  for (const auto& o : openers) slices.merge(o.slices);
  LayerInputs in;
  in.requests = slices.report(report);
  if (!cfg.trace) {
    end_to_end_metrics(setup_median, rss_mb, report);
    return report;
  }

  in.tracer = &tracer;
  in.trace_out = &cfg.trace_out;
  in.call_ref = latency;
  in.call_traced = merged(2, &WindowStats::latency, false);
  in.wait = merged(2, &WindowStats::wait, true);
  in.late_ref = merged(1, &WindowStats::late, false);
  std::uint64_t sent_ref = 0;
  for (const auto& o : openers) sent_ref += o.w[1].sent;
  in.offered_ref = double(sent_ref) / win_s;
  if (shape.durable) {
    const Histogram lag = merged(1, &WindowStats::ack_lag, false);
    in.ack_lag_share = ack.mean() > 0 ? lag.mean() / ack.mean() : 0;
  }
  in.admitted = after.admitted - before.admitted;
  in.blocks = after.blocks - before.blocks;
  in.fast = after.fast - before.fast;
  in.parked_max = parked_max;
  in.completed = counted(2, &WindowStats::ok);
  in.appends = appends;
  in.append_bytes = bytes;
  in.syncs = syncs;
  in.replay_commits_s = replayed > 0 ? double(replayed) / setup_median : 0;
  in.progress_calls = agent_res.progress_calls;
  in.progress_empty = agent_res.progress_empty;
  in.progress_fired = agent_res.progress_fired;
  layer_metrics(in, report);
  return report;
}

}  // namespace

Report run_tickets_durable(const Config& cfg) {
  Shape s;
  s.durable = true;
  s.open_loop = true;
  s.rate_per_opener = 12500;
  s.capacity = 64;
  s.parked = 256;
  s.preload = 1'000'000;
  return run_tickets(cfg, s);
}

Report run_tickets_saturate(const Config& cfg) {
  Shape s;
  s.durable = true;
  s.capacity = 64;
  s.parked = 256;
  // Small, so that set-up is a short replay: without a log to replay it
  // is one directory fsync, which tracks the shared disk, not the program.
  s.preload = 100'000;
  return run_tickets(cfg, s);
}

Report run_tickets_handoff(const Config& cfg) {
  Shape s;
  s.capacity = 8;
  s.parked = 64;
  s.open_deadline = std::chrono::milliseconds(50);
  return run_tickets(cfg, s);
}

}  // namespace e2e
