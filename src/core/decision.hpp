// Moderation verdicts.
//
// The paper's moderator returns RESUME / BLOCKED / ABORT integer constants
// from `precondition()`; we model them as `Decision`. The final outcome of
// a moderated invocation (including the deadline/cancellation outcomes the
// paper lists as open issues) is `InvocationStatus`.
#pragma once

#include <string_view>

namespace amf::core {

/// Verdict of a single aspect guard (the paper's precondition result).
enum class Decision {
  kResume,  // the invocation may proceed past this aspect
  kBlock,   // the caller must wait and re-evaluate later
  kAbort,   // the invocation must not run (e.g. failed authentication)
};

/// Final outcome of a moderated invocation.
enum class InvocationStatus {
  kCompleted,  // guards passed, functional method ran, postactions ran
  kAborted,    // an aspect vetoed the invocation (Decision::kAbort)
  kTimedOut,   // the caller's deadline expired while blocked
  kCancelled,  // stop was requested while blocked
  kFailed,     // the functional method itself threw
};

/// Human-readable names (logging, test output).
std::string_view to_string(Decision d);
std::string_view to_string(InvocationStatus s);

}  // namespace amf::core
