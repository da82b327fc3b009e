#include "storage/maintenance.hpp"

#include <utility>

#include "core/moderator.hpp"

namespace amf::storage {

using runtime::ErrorCode;
using runtime::make_error;
using runtime::Result;

Checkpointer::Checkpointer(CheckpointFn fn, Options options)
    : fn_(std::move(fn)), options_(options) {
  if (options_.interval.count() > 0) {
    thread_ = std::jthread([this](std::stop_token st) {
      std::unique_lock lk(mu_);
      while (!st.stop_requested()) {
        if (cv_.wait_for(lk, st, options_.interval,
                         [&st] { return st.stop_requested(); })) {
          return;  // stop requested
        }
        lk.unlock();
        (void)run_once();
        lk.lock();
      }
    });
  }
}

Checkpointer::~Checkpointer() { stop(); }

void Checkpointer::stop() {
  if (thread_.joinable()) {
    thread_.request_stop();
    cv_.notify_all();
    thread_.join();
  }
}

Result<Lsn> Checkpointer::run_once() {
  auto result = fn_();
  runs_.fetch_add(1, std::memory_order_relaxed);
  if (result.ok()) {
    last_lsn_.store(result.value(), std::memory_order_relaxed);
    if (options_.log != nullptr) {
      options_.log->append("checkpoint",
                           "published @ lsn " + std::to_string(result.value()));
    }
  } else {
    failures_.fetch_add(1, std::memory_order_relaxed);
    if (options_.log != nullptr) {
      options_.log->append("checkpoint",
                           "failed: " + result.error().to_string());
    }
  }
  return result;
}

Result<DrainReport> drain_and_checkpoint(core::AspectModerator& moderator,
                                         Storage& storage,
                                         const Recovery::Capture& capture,
                                         runtime::Duration timeout) {
  DrainReport report;
  report.spans_at_entry = moderator.open_spans();
  report.waiters_at_entry =
      static_cast<std::uint64_t>(moderator.async_parked());

  // Quiesce intake: every future preactivation aborts with kCancelled, and
  // every blocked waiter wakes.
  moderator.shutdown();

  // Wait for in-flight bodies. Spans close without our help (their threads
  // are running, not blocked), so polling against a real-time deadline is
  // enough — no cv plumbing into the moderator's shards.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            timeout);
  for (;;) {
    if (moderator.open_spans() == 0 && moderator.async_parked() == 0) {
      report.quiesced = true;
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (!report.quiesced) {
    return make_error(
        ErrorCode::kTimeout,
        "drain: in-flight work did not quiesce (" +
            std::to_string(moderator.open_spans()) + " spans, " +
            std::to_string(moderator.async_parked()) + " waiters)");
  }

  // The final barrier + snapshot. A fenced device refuses both; that is a
  // degraded-but-orderly exit, not a drain failure — report it and let the
  // caller decide whether to wait for a reopen.
  if (auto synced = storage.sync(); !synced.ok()) {
    report.checkpoint_error = synced.error().to_string();
    return report;
  }
  if (!capture) return report;
  auto checkpointed = Recovery::checkpoint(storage, capture);
  if (!checkpointed.ok()) {
    report.checkpoint_error = checkpointed.error().to_string();
    return report;
  }
  report.checkpointed = true;
  report.checkpoint_lsn = checkpointed.value();
  return report;
}

}  // namespace amf::storage
