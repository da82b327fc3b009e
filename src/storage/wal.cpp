#include "storage/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "storage/crc32c.hpp"

namespace amf::storage {

namespace {

namespace fs = std::filesystem;
using runtime::ErrorCode;
using runtime::FaultPoint;
using runtime::make_error;
using runtime::Result;

// Frame: magic(4) crc(4) length(4) lsn(8) type(1) payload — crc covers
// everything after itself (length, lsn, type, payload).
constexpr std::uint32_t kMagic = 0x57464D41u;  // "AMFW" little-endian
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8 + 1;
constexpr std::size_t kMaxPayload = 256u << 20;  // sanity bound, not a limit

void store_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = char((v >> (8 * i)) & 0xFF);
}

void store_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = char((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | std::uint8_t(p[i]);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | std::uint8_t(p[i]);
  return v;
}

std::string segment_name(Lsn first_lsn) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "wal-%016llx.log",
                static_cast<unsigned long long>(first_lsn));
  return buf;
}

/// Parses "wal-<16 hex>.log"; nullopt for anything else in the directory.
std::optional<Lsn> parse_segment_name(std::string_view name) {
  if (name.size() != 4 + 16 + 4) return std::nullopt;
  if (!name.starts_with("wal-") || !name.ends_with(".log")) return std::nullopt;
  Lsn lsn = 0;
  for (char c : name.substr(4, 16)) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return std::nullopt;
    lsn = (lsn << 4) | static_cast<Lsn>(digit);
  }
  return lsn;
}

struct Segment {
  Lsn first_lsn = 0;
  std::string path;
};

Result<std::vector<Segment>> list_segments(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return make_error(ErrorCode::kUnavailable,
                      "wal: cannot create " + dir + ": " + ec.message());
  }
  std::vector<Segment> segments;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (auto lsn = parse_segment_name(entry.path().filename().string())) {
      segments.push_back(Segment{*lsn, entry.path().string()});
    }
  }
  if (ec) {
    return make_error(ErrorCode::kUnavailable,
                      "wal: cannot list " + dir + ": " + ec.message());
  }
  std::sort(segments.begin(), segments.end(),
            [](const Segment& a, const Segment& b) {
              return a.first_lsn < b.first_lsn;
            });
  return segments;
}

/// Reads the segment at `path` into `buf`, reusing its capacity: one scan
/// grows it to the largest segment and no further. Returns the byte count
/// (the prefix of `buf` that holds the file). Reads the size fstat reports
/// — a scan runs at recovery time, when nothing appends to the directory.
Result<std::size_t> read_file(const std::string& path, std::string& buf) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return make_error(ErrorCode::kUnavailable,
                      "wal: open " + path + ": " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return make_error(ErrorCode::kUnavailable,
                      "wal: stat " + path + ": " + std::strerror(err));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (buf.size() < size) buf.resize(size);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, buf.data() + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return make_error(ErrorCode::kUnavailable,
                        "wal: read " + path + ": " + std::strerror(err));
    }
    if (n == 0) break;  // shrank since fstat: scan what is there
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return got;
}

/// Best-effort directory fsync: makes freshly created / renamed / removed
/// entries durable. Failure is ignored — there is no portable recovery
/// from a directory-fsync error, and the record contents themselves are
/// protected by their own fsync + CRC.
void sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

struct ScanOutcome {
  std::vector<Segment> segments;
  Lsn tail_lsn = 0;
  std::uint64_t records = 0;
  // Torn tail found on the LAST segment: keep only this many bytes of it.
  std::optional<std::uint64_t> torn_keep_bytes;
  std::uint64_t last_segment_valid_bytes = 0;
};

/// Walks every segment, validates framing, CRC and LSN continuity, and
/// hands each valid record with lsn > `after` to `fn` (which may be null).
/// Memory stays O(largest segment): every segment is read into one reused
/// buffer and every frame decoded into one reused WalRecord, so `fn` sees
/// a record that is only valid for the duration of the call.
/// A frame-integrity failure on the last segment is reported as a torn
/// tail; anything else is kCorrupted.
///
/// `check_coverage` demands that the log actually contains lsn `after`+1:
/// replay needs it (a compacted log starting later means the snapshot is
/// too old), but open() must not — a log legitimately begins past lsn 1
/// once compaction has removed snapshot-covered segments.
Result<ScanOutcome> scan_dir(
    const std::string& dir, Lsn after,
    const std::function<Result<void>(const WalRecord&)>* fn,
    bool check_coverage) {
  auto segments = list_segments(dir);
  if (!segments.ok()) return segments.error();

  ScanOutcome out;
  out.segments = std::move(segments.value());
  if (out.segments.empty()) return out;

  if (check_coverage && after + 1 < out.segments.front().first_lsn) {
    return make_error(
        ErrorCode::kCorrupted,
        "wal: log begins at lsn " +
            std::to_string(out.segments.front().first_lsn) +
            " but replay needs lsn " + std::to_string(after + 1) +
            " (snapshot too old for the compacted log)");
  }

  std::string buf;
  WalRecord record;
  Lsn expected = out.segments.front().first_lsn;
  for (std::size_t si = 0; si < out.segments.size(); ++si) {
    const Segment& seg = out.segments[si];
    const bool last = si + 1 == out.segments.size();
    if (seg.first_lsn != expected) {
      return make_error(ErrorCode::kCorrupted,
                        "wal: segment " + seg.path + " starts at lsn " +
                            std::to_string(seg.first_lsn) + ", expected " +
                            std::to_string(expected));
    }
    auto loaded = read_file(seg.path, buf);
    if (!loaded.ok()) return loaded.error();
    const std::string_view bytes(buf.data(), loaded.value());

    std::size_t off = 0;
    while (off < bytes.size()) {
      const std::size_t remaining = bytes.size() - off;
      const char* tear = nullptr;
      if (remaining < kHeaderBytes) {
        tear = "truncated header";
      } else {
        const char* p = bytes.data() + off;
        const std::uint32_t magic = get_u32(p);
        const std::uint32_t crc = get_u32(p + 4);
        const std::uint32_t length = get_u32(p + 8);
        if (magic != kMagic) {
          tear = "bad magic";
        } else if (length > kMaxPayload ||
                   remaining - kHeaderBytes < length) {
          tear = "frame extends past end of segment";
        } else if (crc32c_extend(0, p + 8, kHeaderBytes - 8 + length) !=
                   crc) {
          tear = "crc mismatch";
        }
        if (tear == nullptr) {
          const Lsn lsn = get_u64(p + 12);
          if (lsn != expected) {
            // A CRC-valid frame with the wrong sequence number is not a
            // torn write — it is history damage, wherever it sits.
            return make_error(ErrorCode::kCorrupted,
                              "wal: " + seg.path + " offset " +
                                  std::to_string(off) + ": lsn " +
                                  std::to_string(lsn) + ", expected " +
                                  std::to_string(expected));
          }
          if (lsn > after && fn != nullptr && *fn) {
            record.lsn = lsn;
            record.type = std::uint8_t(p[20]);
            record.payload.assign(p + kHeaderBytes, length);
            if (auto r = (*fn)(record); !r.ok()) return r.error();
          }
          ++out.records;
          out.tail_lsn = expected;
          ++expected;
          off += kHeaderBytes + length;
          continue;
        }
      }
      // Damaged frame. Only the tail of the final segment may legally be
      // damaged (the write a crash interrupted).
      if (!last) {
        return make_error(ErrorCode::kCorrupted,
                          "wal: " + seg.path + " offset " +
                              std::to_string(off) + ": " + tear +
                              " before the final segment");
      }
      out.torn_keep_bytes = off;
      break;
    }
    if (last) {
      out.last_segment_valid_bytes =
          out.torn_keep_bytes.value_or(bytes.size());
    }
  }
  return out;
}

}  // namespace

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {}

Wal::~Wal() {
  std::scoped_lock lock(mu_);
  if (!failed_) (void)flush_locked();  // best-effort clean shutdown
  if (fd_ >= 0) ::close(fd_);
}

runtime::Result<std::unique_ptr<Wal>> Wal::open(std::string dir,
                                                WalOptions options,
                                                WalOpenInfo* info) {
  auto scanned = scan_dir(dir, 0, nullptr, /*check_coverage=*/false);
  if (!scanned.ok()) return scanned.error();
  ScanOutcome& outcome = scanned.value();

  std::unique_ptr<Wal> wal(new Wal(std::move(dir), std::move(options)));
  wal->next_lsn_ = outcome.tail_lsn + 1;
  wal->last_synced_ = outcome.tail_lsn;

  std::uint64_t truncated = 0;
  if (!outcome.segments.empty()) {
    const Segment& tail = outcome.segments.back();
    if (outcome.torn_keep_bytes) {
      std::error_code ec;
      const auto size = fs::file_size(tail.path, ec);
      truncated = ec ? 0 : size - *outcome.torn_keep_bytes;
      if (::truncate(tail.path.c_str(), off_t(*outcome.torn_keep_bytes)) !=
          0) {
        return make_error(ErrorCode::kUnavailable,
                          "wal: truncate torn tail of " + tail.path + ": " +
                              std::strerror(errno));
      }
      sync_dir(wal->dir_);
    }
    wal->segment_path_ = tail.path;
    wal->segment_bytes_ = outcome.last_segment_valid_bytes;
    wal->fd_ = ::open(tail.path.c_str(),
                      O_WRONLY | O_APPEND | O_CLOEXEC);
    if (wal->fd_ < 0) {
      return make_error(ErrorCode::kUnavailable,
                        "wal: reopen " + tail.path + ": " +
                            std::strerror(errno));
    }
  } else {
    std::scoped_lock lock(wal->mu_);
    if (auto r = wal->open_segment_locked(wal->next_lsn_); !r.ok())
      return r.error();
  }

  if (info != nullptr) {
    info->tail_lsn = outcome.tail_lsn;
    info->records = outcome.records;
    info->segments = outcome.segments.empty() ? 1 : outcome.segments.size();
    info->truncated_bytes = truncated;
  }
  return wal;
}

runtime::Result<void> Wal::open_segment_locked(Lsn first_lsn) {
  const std::string path = dir_ + "/" + segment_name(first_lsn);
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return make_error(ErrorCode::kUnavailable,
                      "wal: create " + path + ": " + std::strerror(errno));
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  segment_path_ = path;
  segment_bytes_ = 0;
  sync_dir(dir_);
  return {};
}

runtime::Result<void> Wal::fail_locked(std::string what) {
  failed_ = true;
  return make_error(ErrorCode::kUnavailable, std::move(what));
}

runtime::Result<Lsn> Wal::append(std::uint8_t type, std::string_view payload) {
  std::scoped_lock lock(mu_);
  if (failed_) {
    return make_error(ErrorCode::kUnavailable,
                      "wal: log device faulted out (sticky)");
  }
  if (payload.size() > kMaxPayload) {
    return make_error(ErrorCode::kInvalidArgument,
                      "wal: payload exceeds the 256 MiB frame bound");
  }

  // Reserve first: if that throws, no LSN has been handed out and the
  // buffer is untouched, so the log cannot gain a gap or a half frame.
  buffer_.reserve(buffer_.size() + kHeaderBytes + payload.size());
  const Lsn lsn = next_lsn_++;
  // Frame straight into the group-commit buffer. The crc covers length|
  // lsn|type|payload, i.e. everything after itself.
  char header[kHeaderBytes] = {};
  store_u32(header, kMagic);
  store_u32(header + 8, std::uint32_t(payload.size()));
  store_u64(header + 12, lsn);
  header[20] = char(type);
  const std::uint32_t crc = crc32c_extend(
      crc32c_extend(0, header + 8, kHeaderBytes - 8), payload.data(),
      payload.size());
  store_u32(header + 4, crc);
  buffer_.append(header, kHeaderBytes);
  buffer_.append(payload);
  ++buffered_records_;

  // Rotation doubles as a sync barrier: the outgoing segment is flushed
  // and fsynced before the next one exists, so segment boundaries never
  // split a group-commit batch.
  if (segment_bytes_ + buffer_.size() >= options_.segment_bytes) {
    if (auto r = flush_locked(); !r.ok()) return r.error();
    if (auto r = open_segment_locked(next_lsn_); !r.ok())
      return r.error();
  } else if (options_.sync_every > 0 &&
             buffered_records_ >= options_.sync_every) {
    if (auto r = flush_locked(); !r.ok()) return r.error();
  }
  return lsn;
}

runtime::Result<void> Wal::flush_locked() {
  if (buffer_.empty()) return {};
  auto crash = [&](std::string_view site) {
    if (AMF_FAULT_FIRE(options_.fault, FaultPoint::kCrashPoint) &&
        options_.crash_hook) {
      options_.crash_hook(site);
    }
  };

  crash("wal.sync.pre-write");
  if (AMF_FAULT_FIRE(options_.fault, FaultPoint::kIoError)) {
    return fail_locked("wal: injected write error on " + segment_path_);
  }
  std::size_t want = buffer_.size();
  if (AMF_FAULT_FIRE(options_.fault, FaultPoint::kShortWrite)) {
    // Persist only a prefix of the batch — the torn-write a power cut
    // leaves behind — then fence the device. Reopen truncates the tear.
    want = buffer_.size() / 2;
    std::size_t done = 0;
    while (done < want) {
      const ssize_t n = ::write(fd_, buffer_.data() + done, want - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      done += std::size_t(n);
    }
    return fail_locked("wal: injected short write on " + segment_path_);
  }
  std::size_t done = 0;
  while (done < want) {
    const ssize_t n = ::write(fd_, buffer_.data() + done, want - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return fail_locked("wal: write " + segment_path_ + ": " +
                         std::strerror(errno));
    }
    done += std::size_t(n);
  }

  crash("wal.sync.post-write");
  if (AMF_FAULT_FIRE(options_.fault, FaultPoint::kIoError)) {
    return fail_locked("wal: injected fsync error on " + segment_path_);
  }
  if (::fsync(fd_) != 0) {
    return fail_locked("wal: fsync " + segment_path_ + ": " +
                       std::strerror(errno));
  }
  crash("wal.sync.post-fsync");

  segment_bytes_ += buffer_.size();
  buffer_.clear();
  buffered_records_ = 0;
  last_synced_ = next_lsn_ - 1;
  return {};
}

runtime::Result<void> Wal::sync() {
  std::scoped_lock lock(mu_);
  if (failed_) {
    return make_error(ErrorCode::kUnavailable,
                      "wal: log device faulted out (sticky)");
  }
  return flush_locked();
}

Lsn Wal::last_appended() const {
  std::scoped_lock lock(mu_);
  return next_lsn_ - 1;
}

Lsn Wal::last_synced() const {
  std::scoped_lock lock(mu_);
  return last_synced_;
}

bool Wal::healthy() const { return !failed_; }

std::vector<WalRecord> Wal::unsynced_records() const {
  std::scoped_lock lock(mu_);
  std::vector<WalRecord> out;
  out.reserve(buffered_records_);
  // The buffer holds exactly the frames append() built since the last
  // successful flush; they are trusted (we framed them), so this walk
  // needs no CRC re-check — lengths alone drive it.
  std::size_t off = 0;
  while (off + kHeaderBytes <= buffer_.size()) {
    const char* p = buffer_.data() + off;
    const std::uint32_t length = get_u32(p + 8);
    if (off + kHeaderBytes + length > buffer_.size()) break;
    WalRecord record;
    record.lsn = get_u64(p + 12);
    record.type = std::uint8_t(p[20]);
    record.payload.assign(p + kHeaderBytes, length);
    out.push_back(std::move(record));
    off += kHeaderBytes + length;
  }
  return out;
}

runtime::Result<void> Wal::remove_segments_below(Lsn keep_from) {
  std::scoped_lock lock(mu_);
  auto segments = list_segments(dir_);
  if (!segments.ok()) return segments.error();
  const auto& segs = segments.value();
  bool removed = false;
  for (std::size_t i = 0; i + 1 < segs.size(); ++i) {
    // Segment i holds lsns [first_lsn(i), first_lsn(i+1)); removable once
    // every one of them is covered by the snapshot at keep_from.
    if (segs[i + 1].first_lsn <= keep_from + 1) {
      std::error_code ec;
      fs::remove(segs[i].path, ec);
      removed = true;
    }
  }
  if (removed) sync_dir(dir_);
  return {};
}

runtime::Result<void> Wal::scan(
    const std::string& dir, Lsn after,
    const std::function<runtime::Result<void>(const WalRecord&)>& fn) {
  auto outcome = scan_dir(dir, after, &fn, /*check_coverage=*/true);
  if (!outcome.ok()) return outcome.error();
  return {};
}

}  // namespace amf::storage
