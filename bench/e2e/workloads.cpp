#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <thread>

namespace e2e {

namespace {

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

}  // namespace

void run_windows(const Config& cfg, Control& ctl, Tracer* tracer,
                 const std::function<void()>& poll,
                 const std::function<void(int, bool)>& edge) {
  auto open = [&](int w) {
    edge(w, true);
    ctl.start[w] = now_ns();
    ctl.window.store(w, std::memory_order_release);
  };
  auto close = [&](int w) {
    ctl.window.store(0, std::memory_order_release);
    ctl.end[w] = now_ns();
    edge(w, false);
  };
  sleep_s(cfg.warmup);
  if (tracer == nullptr) {
    open(1);
    sleep_s(cfg.seconds);
    close(1);
  } else {
    open(1);
    sleep_s(cfg.seconds / 2);
    close(1);
    tracer->set_enabled(true);
    ctl.tracing.store(true, std::memory_order_release);
    open(2);
    const auto until = ctl.start[2] + std::int64_t(cfg.seconds / 2 * 1e9);
    while (now_ns() < until) {
      poll();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    close(2);
  }
  ctl.tail.store(true, std::memory_order_release);
}

bool await_done(Control& ctl, int workers, double timeout_s) {
  const auto until = now_ns() + std::int64_t(timeout_s * 1e9);
  while (ctl.done.load() < workers) {
    if (now_ns() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

double percentile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - double(lo));
}

double median(std::vector<double> v) { return percentile_of(std::move(v), 0.5); }

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string describe(const char* what, const Histogram& h) {
  return format("%s n=%llu p50=%.2f us p99=%.2f us failed=%llu", what,
                static_cast<unsigned long long>(h.count()),
                h.percentile(0.5) * 1e-3, h.percentile(0.99) * 1e-3,
                static_cast<unsigned long long>(h.failures()));
}

std::string describe_setup(const Histogram& samples) {
  return format("setup n=%llu q1=%.6g median=%.6g q3=%.6g s",
                static_cast<unsigned long long>(samples.count()),
                samples.percentile(0.25) * 1e-9, samples.percentile(0.5) * 1e-9,
                samples.percentile(0.75) * 1e-9);
}

void end_to_end_metrics(double setup_s, double rss_mb, Report& report) {
  const double completed =
      report.attempted == 0
          ? 0.0
          : double(report.attempted - report.failed) / double(report.attempted);
  report.end_to_end = {{"setup_s", setup_s, "s"},
                       {"completed_share", completed, "fraction"},
                       {"rss_peak_mb", rss_mb, "MB"}};
}

std::vector<Metric> Slices::report(Report& out) const {
  // µs per slice; a failure (+inf) reads as the slice length, the largest
  // latency a request of the slice could have been seen to have.
  auto quantiles = [&](Series s, double q) {
    std::vector<double> v;
    for (const Histogram& h : hist_[s]) {
      const double ns = h.percentile(q);
      v.push_back(std::isfinite(ns) ? ns * 1e-3 : 1e6);
    }
    return v;
  };
  struct Row {
    const char* name;
    const char* unit;
    std::vector<double> per_slice;
  };
  const Row rows[] = {
      {"throughput_ops_s", "ops/s", std::vector<double>(ok_.begin(), ok_.end())},
      {"latency_p50_us", "us", quantiles(kLatency, 0.5)},
      {"latency_p99_us", "us", quantiles(kLatency, 0.99)},
      {"ack_p50_us", "us", quantiles(kAck, 0.5)},
      {"ack_p99_us", "us", quantiles(kAck, 0.99)},
  };
  std::vector<Metric> metrics;
  for (const auto& [name, unit, v] : rows) {
    metrics.push_back({name, median(v), unit});
    out.lines.push_back(format(
        "%s over %zu one-second slices: min %.6g q1 %.6g median %.6g q3 %.6g "
        "max %.6g",
        name, v.size(), percentile_of(v, 0), percentile_of(v, 0.25),
        percentile_of(v, 0.5), percentile_of(v, 0.75), percentile_of(v, 1)));
  }
  return metrics;
}

void layer_metrics(const LayerInputs& in, Report& report) {
  const LayerSummary sum = analyze(*in.tracer, *in.trace_out);
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto self_of = [&](std::initializer_list<const char*> names) {
    std::vector<double> v;
    for (const char* n : names) {
      auto it = sum.self_by_name.find(n);
      if (it != sum.self_by_name.end()) {
        v.insert(v.end(), it->second.begin(), it->second.end());
      }
    }
    return v;
  };
  std::vector<double> hooks;
  for (const auto& [name, v] : sum.self_by_name) {
    if (name.rfind("aspects.", 0) == 0) hooks.insert(hooks.end(), v.begin(), v.end());
  }
  auto share = [&](const char* module) {
    auto it = sum.module_self_ns.find(module);
    return it == sum.module_self_ns.end() ? 0.0
                                          : ratio(it->second, sum.request_ns_total);
  };
  double covered = 0;
  for (const auto& [module, ns] : sum.module_self_ns) covered += ns;
  const double layer_sum_share = ratio(covered, sum.request_ns_total);

  const std::vector<double> pre = self_of({"core.pre", "core.pre_async"});
  const std::vector<double> post = self_of({"core.post"});
  const std::vector<double> body = self_of({"apps.body"});
  const double progress_busy =
      double(in.progress_calls) - double(in.progress_empty);

  const Metric layers[] = {
      {"core.pre_self_us.p50", percentile_of(pre, 0.5) * 1e-3, "us"},
      {"core.pre_self_us.p99", percentile_of(pre, 0.99) * 1e-3, "us"},
      {"core.post_self_us.p50", percentile_of(post, 0.5) * 1e-3, "us"},
      {"core.post_self_us.p99", percentile_of(post, 0.99) * 1e-3, "us"},
      {"core.wait_us.mean", in.wait.mean() * 1e-3, "us"},
      {"core.wait_us.p99", in.wait.percentile(0.99) * 1e-3, "us"},
      {"core.blocks_per_call", ratio(double(in.blocks), double(in.admitted)),
       "count"},
      {"core.guard_evals_per_admission",
       ratio(double(in.tracer->guard_evals()), double(sum.admitted)), "count"},
      {"core.fast_share", ratio(double(in.fast), double(in.admitted)),
       "fraction"},
      {"core.parked_max", double(in.parked_max), "count"},
      {"core.self_share", share("core"), "fraction"},
      {"aspects.hook_ns.p50", percentile_of(hooks, 0.5), "ns"},
      {"aspects.hook_ns.p99", percentile_of(hooks, 0.99), "ns"},
      {"aspects.self_share", share("aspects"), "fraction"},
      {"storage.appends_per_call",
       ratio(double(in.appends), double(in.completed)), "count"},
      {"storage.records_per_sync", ratio(double(in.appends), double(in.syncs)),
       "count"},
      {"storage.bytes_per_commit",
       ratio(double(in.append_bytes), double(in.appends)), "B"},
      {"storage.self_share", share("storage"), "fraction"},
      {"storage.ack_lag_share", in.ack_lag_share, "fraction"},
      {"storage.replay_commits_s", in.replay_commits_s, "1/s"},
      {"concurrency.nodes_per_progress",
       ratio(double(in.progress_fired), progress_busy), "count"},
      {"concurrency.empty_progress_share",
       ratio(double(in.progress_empty), double(in.progress_calls)), "fraction"},
      {"apps.body_ns.p50", percentile_of(body, 0.5), "ns"},
      {"apps.body_ns.p99", percentile_of(body, 0.99), "ns"},
      {"apps.self_share", share("apps"), "fraction"},
      {"gen.offered_ops_s", in.offered_ref, "ops/s"},
      {"gen.late_share", in.late_ref.share_at_least(1e6), "fraction"},
      {"trace.request_us.mean",
       ratio(sum.request_ns_total, double(sum.requests)) * 1e-3, "us"},
      {"trace.layer_sum_share", layer_sum_share, "fraction"},
      {"trace.overhead_share",
       ratio(in.call_traced.mean(), in.call_ref.mean()) - 1.0, "fraction"},
      {"trace.sampled_requests", double(sum.requests), "count"},
  };
  report.per_layer = in.requests;
  report.per_layer.insert(report.per_layer.end(), std::begin(layers),
                          std::end(layers));

  report.lines.push_back(format(
      "trace: %llu sampled requests, %llu spans (%llu dropped), written to %s",
      static_cast<unsigned long long>(sum.requests),
      static_cast<unsigned long long>(sum.spans),
      static_cast<unsigned long long>(in.tracer->dropped()),
      in.trace_out->empty() ? "-" : in.trace_out->c_str()));
  for (const auto& [name, v] : sum.self_by_name) {
    report.lines.push_back(format("self %-36s n=%-7zu p50=%9.0f ns p99=%9.0f ns",
                                  name.c_str(), v.size(), percentile_of(v, 0.5),
                                  percentile_of(v, 0.99)));
  }
  for (const auto& [module, ns] : sum.module_self_ns) {
    report.lines.push_back(format("layer %-10s self share %.4f", module.c_str(),
                                  ratio(ns, sum.request_ns_total)));
  }
  report.lines.push_back(format(
      "layer isolation: storage appends %llu, fast share %.4f, parked max %llu",
      static_cast<unsigned long long>(in.appends),
      ratio(double(in.fast), double(in.admitted)),
      static_cast<unsigned long long>(in.parked_max)));
  if (sum.requests == 0) {
    report.fatal = "traced run sampled no complete request";
  } else if (std::abs(layer_sum_share - 1.0) > 0.10) {
    report.fatal = format(
        "layer self-times sum to %.3f of the traced request latency "
        "(must be within 10%%): spans are missing a layer",
        layer_sum_share);
  }
}

}  // namespace e2e
