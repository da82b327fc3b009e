// Payload codec for persistence records (DESIGN.md §15.2).
//
// One WAL record per committed moderated invocation. The payload carries
// what recovery needs to re-ISSUE the call through the real proxy: the
// method name, the caller identity, and the invocation's NoteStore
// contents in insertion order (the durable apps ride call arguments as
// notes — see apps/ticket/durable_ticket.hpp — so the notes ARE the
// arguments).
//
// Encoding helpers live in the public `wire` namespace — the durable apps
// reuse them for snapshot payloads.
//
// Encoding: little-endian fixed-width integers, u32-length-prefixed
// strings. No varints, no versioned schema registry — record type bytes
// (kCommitRecord, ...) leave room to evolve, and decode rejects anything
// malformed with kCorrupted rather than guessing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "runtime/result.hpp"

namespace amf::storage {

/// WAL record type byte for a committed-invocation record.
inline constexpr std::uint8_t kCommitRecord = 1;

/// Decoded form of one committed moderated invocation.
struct CommitRecord {
  std::uint64_t invocation_id = 0;
  std::string method;     ///< participating-method name
  std::string principal;  ///< caller identity name ("" = anonymous)
  bool body_succeeded = true;
  /// NoteStore contents at postactivation, insertion order preserved.
  std::vector<std::pair<std::string, std::string>> notes;
};

namespace wire {
inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(char((v >> (8 * i)) & 0xFF));
}
inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(char((v >> (8 * i)) & 0xFF));
}
inline void put_str(std::string& out, std::string_view s) {
  put_u32(out, std::uint32_t(s.size()));
  out.append(s);
}

/// Bounds-checked cursor over an encoded payload.
struct Reader {
  std::string_view data;
  std::size_t pos = 0;
  bool failed = false;

  bool need(std::size_t n) {
    if (failed || data.size() - pos < n) {
      failed = true;
      return false;
    }
    return true;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | std::uint8_t(data[pos + i]);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | std::uint8_t(data[pos + i]);
    pos += 8;
    return v;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return std::uint8_t(data[pos++]);
  }
  std::string_view str() {
    const std::uint32_t n = u32();
    if (!need(n)) return {};
    std::string_view s = data.substr(pos, n);
    pos += n;
    return s;
  }
};
}  // namespace wire

/// Serializes the NoteStore in insertion order (count, then key/value
/// pairs). Appended to `out`.
inline void encode_notes(const core::NoteStore& notes, std::string& out) {
  wire::put_u32(out, std::uint32_t(notes.size()));
  notes.for_each([&out](std::string_view key, std::string_view value) {
    wire::put_str(out, key);
    wire::put_str(out, value);
  });
}

inline std::string encode_commit(const CommitRecord& rec) {
  std::string out;
  wire::put_u64(out, rec.invocation_id);
  out.push_back(rec.body_succeeded ? 1 : 0);
  wire::put_str(out, rec.method);
  wire::put_str(out, rec.principal);
  wire::put_u32(out, std::uint32_t(rec.notes.size()));
  for (const auto& [key, value] : rec.notes) {
    wire::put_str(out, key);
    wire::put_str(out, value);
  }
  return out;
}

/// Commit-record encoder used on the hot path: straight from the live
/// context, no intermediate CommitRecord materialization.
inline std::string encode_commit(const core::InvocationContext& ctx) {
  std::string out;
  wire::put_u64(out, ctx.id());
  out.push_back(ctx.body_succeeded() ? 1 : 0);
  wire::put_str(out, ctx.method().name());
  wire::put_str(out, ctx.principal().name);
  encode_notes(ctx.notes(), out);
  return out;
}

/// Decodes `payload` into `rec`, reusing its strings' and notes' capacity:
/// a replay that decodes every record into one CommitRecord allocates only
/// when a record outgrows the largest one before it. Malformed or trailing
/// bytes fail with kCorrupted, leaving `rec` valid but unspecified.
inline runtime::Result<void> decode_commit_into(std::string_view payload,
                                                CommitRecord& rec) {
  wire::Reader r{payload};
  rec.invocation_id = r.u64();
  rec.body_succeeded = r.u8() != 0;
  rec.method.assign(r.str());
  rec.principal.assign(r.str());
  const std::uint32_t count = r.u32();
  std::size_t n = 0;
  for (; n < count && !r.failed; ++n) {
    const std::string_view key = r.str();
    const std::string_view value = r.str();
    if (n == rec.notes.size()) rec.notes.emplace_back();
    rec.notes[n].first.assign(key);
    rec.notes[n].second.assign(value);
  }
  rec.notes.resize(n);
  if (r.failed || r.pos != payload.size()) {
    return runtime::make_error(runtime::ErrorCode::kCorrupted,
                               "codec: malformed commit record payload");
  }
  return {};
}

inline runtime::Result<CommitRecord> decode_commit(std::string_view payload) {
  CommitRecord rec;
  if (auto r = decode_commit_into(payload, rec); !r.ok()) return r.error();
  return rec;
}

/// Rebuilds a NoteStore (or any set()-style sink) from an encoded
/// notes section — the WAL round-trip counterpart of encode_notes.
inline runtime::Result<void> decode_notes(std::string_view data,
                                          core::NoteStore& out) {
  wire::Reader r{data};
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && !r.failed; ++i) {
    std::string_view key = r.str();
    std::string_view value = r.str();
    if (!r.failed) out.set(key, value);
  }
  if (r.failed || r.pos != data.size()) {
    return runtime::make_error(runtime::ErrorCode::kCorrupted,
                               "codec: malformed notes section");
  }
  return {};
}

}  // namespace amf::storage
