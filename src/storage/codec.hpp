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

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
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
  // Byte loads OR-ed in one expression, which compilers fold into a
  // single little-endian load where the host allows it.
  std::uint32_t u32() {
    if (!need(4)) return 0;
    const std::uint32_t v = le32(pos);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    const std::uint64_t v = le32(pos) | std::uint64_t(le32(pos + 4)) << 32;
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
    const std::string_view s(data.data() + pos, n);  // need() checked it
    pos += n;
    return s;
  }

 private:
  std::uint32_t le32(std::size_t at) const {
    const auto* p = reinterpret_cast<const unsigned char*>(data.data()) + at;
    return std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
           std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24;
  }
};

/// Parses a whole decimal number, the form the durable apps give numeric
/// notes (std::to_string). False on an empty, non-digit, trailing-junk or
/// out-of-range value, and on a sign where T is unsigned.
template <typename T>
bool parse_decimal(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}
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

/// Notes section of a validated commit payload, decoded in place as it is
/// iterated: each step yields one key/value pair of views into the
/// payload. Valid only while the payload bytes are.
class NoteRange {
 public:
  class iterator {
   public:
    using value_type = std::pair<std::string_view, std::string_view>;

    iterator() = default;
    value_type operator*() const { return note_; }
    iterator& operator++() {
      if (--left_ > 0) read();
      return *this;
    }
    bool operator==(const iterator& other) const {
      return left_ == other.left_;
    }

   private:
    friend class NoteRange;
    iterator(std::string_view bytes, std::uint32_t count)
        : reader_{bytes}, left_(count) {
      if (left_ > 0) read();
    }
    void read() {
      note_.first = reader_.str();
      note_.second = reader_.str();
    }

    wire::Reader reader_;
    std::uint32_t left_ = 0;  // notes not yet stepped past, current included
    value_type note_;
  };

  NoteRange() = default;
  /// `bytes` holds exactly `count` key/value pairs (decode_commit_view
  /// checked them).
  NoteRange(std::string_view bytes, std::uint32_t count)
      : bytes_(bytes), count_(count) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  iterator begin() const { return iterator(bytes_, count_); }
  iterator end() const { return iterator(); }

 private:
  std::string_view bytes_;
  std::uint32_t count_ = 0;
};

/// A commit record as views into its encoded payload — the form recovery
/// replays from (no string is copied to read a record). Valid only while
/// the payload bytes are: during replay, inside one Recovery::Apply call.
struct CommitView {
  std::uint64_t invocation_id = 0;
  std::string_view method;
  std::string_view principal;
  bool body_succeeded = true;
  NoteRange notes;  ///< insertion order, as encoded
};

/// The commit-record parser. Every length is bounds-checked and every
/// note visited once here, so iterating the returned notes cannot fail;
/// malformed or trailing bytes fail with kCorrupted.
inline runtime::Result<CommitView> decode_commit_view(
    std::string_view payload) {
  wire::Reader r{payload};
  CommitView view;
  view.invocation_id = r.u64();
  view.body_succeeded = r.u8() != 0;
  view.method = r.str();
  view.principal = r.str();
  const std::uint32_t count = r.u32();
  const std::size_t notes_at = r.pos;
  for (std::uint32_t i = 0; i < count && !r.failed; ++i) {
    r.str();
    r.str();
  }
  if (r.failed || r.pos != payload.size()) {
    return runtime::make_error(runtime::ErrorCode::kCorrupted,
                               "codec: malformed commit record payload");
  }
  view.notes = NoteRange(payload.substr(notes_at), count);
  return view;
}

/// Owning decode: decode_commit_view, then copies.
inline runtime::Result<CommitRecord> decode_commit(std::string_view payload) {
  auto view = decode_commit_view(payload);
  if (!view.ok()) return view.error();
  const CommitView& v = view.value();
  CommitRecord rec;
  rec.invocation_id = v.invocation_id;
  rec.method = v.method;
  rec.principal = v.principal;
  rec.body_succeeded = v.body_succeeded;
  rec.notes.reserve(v.notes.size());
  for (const auto& [key, value] : v.notes) rec.notes.emplace_back(key, value);
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
