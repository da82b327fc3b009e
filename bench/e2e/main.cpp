// bench_end_to_end: one run of one end-to-end workload.
//
//   bench_end_to_end --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--data-dir <dir>] [--trace-out <file>]
//   bench_end_to_end --smoke [--data-dir <dir>]
//
// Prints an environment header, detail lines, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}; the metrics
// are the end-to-end ones, or with --trace 1 the per-layer ones. Exits 1
// when the workload's self-check fails (the JSON still reports it) and 2
// on a bad invocation or an unusable run (no JSON).
#include <fcntl.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "workloads.hpp"

namespace {

using e2e::Config;
using e2e::Report;

struct Workload {
  const char* name;
  Report (*run)(const Config&);
};

const Workload kWorkloads[] = {
    {"tickets-durable", e2e::run_tickets_durable},
    {"tickets-saturate", e2e::run_tickets_saturate},
    {"reservations-browse", e2e::run_reservations_browse},
    {"tickets-handoff", e2e::run_tickets_handoff},
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string filesystem_of(const std::string& path) {
  struct statfs fs{};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: return e2e::format("0x%lx", static_cast<unsigned long>(fs.f_type));
  }
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;  // never emitted by the workloads; JSON has no inf
  return e2e::format("%.17g", v);
}

void print_header(const Config& cfg) {
  std::printf("# nproc: %u\n", std::thread::hardware_concurrency());
  std::printf("# cpu: %s\n", cpu_model().c_str());
  std::printf("# build: %s, %s\n", E2E_BUILD_TYPE, compiler().c_str());
  std::printf("# data dir: %s (%s; WAL fsync cost is this filesystem's)\n",
              cfg.data_dir.c_str(), filesystem_of(cfg.data_dir).c_str());
  std::printf("# workload: %s seed: %llu seconds: %g warmup: %g trace: %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.warmup, cfg.trace ? 1 : 0);
}

void print_json(const Report& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const e2e::Metric& m : trace ? r.per_layer : r.end_to_end) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Runs `cfg` in a fresh per-run directory under cfg.data_dir. The
/// workload removes that directory; syncing its parent afterwards commits
/// the removal, so the next run's fsyncs do not pay for this run's files.
Report run_one(Config cfg, const Workload& w) {
  const std::string parent = cfg.data_dir;
  cfg.data_dir = (std::filesystem::path(parent) /
                  e2e::format("%s-%llu-%d", w.name,
                              static_cast<unsigned long long>(cfg.seed),
                              static_cast<int>(getpid())))
                     .string();
  Report r;
  try {
    r = w.run(cfg);
  } catch (const std::exception& e) {
    r.fatal = std::string("run aborted: ") + e.what();
  }
  const int fd = open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    (void)fsync(fd);
    close(fd);
  }
  return r;
}

int smoke(const Config& base) {
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    for (const bool trace : {false, true}) {
      Config cfg = base;
      cfg.workload = w.name;
      cfg.seconds = 1;
      cfg.warmup = 0.2;
      cfg.trace = trace;
      cfg.smoke = true;
      const Report r = run_one(cfg, w);
      const bool pass = r.fatal.empty() && r.correct && r.attempted > 0;
      std::printf("smoke %-20s trace=%d: %s (attempted %llu, failed %llu) %s\n",
                  w.name, trace ? 1 : 0, pass ? "ok" : "FAILED",
                  static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.failed),
                  r.fatal.empty() ? r.check.c_str() : r.fatal.c_str());
      ok = ok && pass;
    }
  }
  return ok ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_end_to_end: %s\nusage: bench_end_to_end --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> "
               "[--data-dir <dir>] [--trace-out <file>]\n"
               "       bench_end_to_end --smoke [--data-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.data_dir = "e2e-data";
  bool smoke_mode = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke_mode = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && cfg.seconds > 0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      cfg.trace = value == "1";
      have_trace = true;
    } else if (arg == "--data-dir") {
      cfg.data_dir = value;
    } else if (arg == "--trace-out") {
      cfg.trace_out = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.data_dir, ec);
  if (ec) return usage(("cannot create " + cfg.data_dir).c_str());
  if (smoke_mode) return smoke(cfg);

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (cfg.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  print_header(cfg);
  std::fflush(stdout);
  const Report r = run_one(cfg, *workload);
  for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
  if (!r.fatal.empty()) {
    std::fflush(stdout);
    std::fprintf(stderr, "bench_end_to_end: %s\n", r.fatal.c_str());
    return 2;
  }
  std::printf("self-check: %s: %s\n", r.correct ? "pass" : "FAIL",
              r.check.c_str());
  print_json(r, cfg.trace);
  return r.correct ? 0 : 1;
}
