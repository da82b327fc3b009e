// Storage substrate tests: CRC32C, WAL framing/rotation/torn-tail repair,
// corruption detection, fault injection at the storage edges, snapshots,
// and the codec round-trips (including the NoteStore WAL round-trip across
// the inline-slot/heap-spill boundary).
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/context.hpp"
#include "runtime/fault.hpp"
#include "storage/codec.hpp"
#include "storage/crc32c.hpp"
#include "storage/snapshot.hpp"
#include "storage/storage.hpp"
#include "storage/wal.hpp"

namespace amf::storage {
namespace {

namespace fs = std::filesystem;
using runtime::ErrorCode;
using runtime::FaultInjector;
using runtime::FaultPoint;

/// One frame exactly as DESIGN.md §15.1 documents it, built by hand:
/// magic | crc32c | length | lsn | type | payload, the crc covering every
/// byte after itself.
std::string frame_bytes(Lsn lsn, std::uint8_t type, std::string_view payload) {
  std::string out;
  auto put_u32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(char((v >> (8 * i)) & 0xFF));
  };
  auto put_u64 = [&out](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(char((v >> (8 * i)) & 0xFF));
  };
  put_u32(0x57464D41u);  // magic "AMFW"
  put_u32(0);            // crc placeholder
  put_u32(std::uint32_t(payload.size()));
  put_u64(lsn);
  out.push_back(char(type));
  out.append(payload);
  const std::uint32_t crc = crc32c_extend(0, out.data() + 8, out.size() - 8);
  for (int i = 0; i < 4; ++i) out[4 + i] = char((crc >> (8 * i)) & 0xFF);
  return out;
}

/// Bit-at-a-time CRC32C: the definition, independent of the tables.
std::uint32_t reference_crc32c(const unsigned char* p, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

class StorageDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = fs::temp_directory_path() /
           ("amf_wal_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  /// All valid records after `after`, in order.
  std::vector<WalRecord> scan_all(Lsn after = 0) {
    std::vector<WalRecord> records;
    auto result = Wal::scan(dir(), after, [&](const WalRecord& r) {
      records.push_back(r);
      return runtime::Result<void>{};
    });
    EXPECT_TRUE(result.ok()) << result.error().to_string();
    return records;
  }

  /// The single segment file in the directory matching `prefix`.
  std::vector<fs::path> files_with(std::string_view prefix,
                                   std::string_view suffix) {
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.starts_with(prefix) && name.ends_with(suffix)) {
        out.push_back(entry.path());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  fs::path dir_;
};

// ---------------------------------------------------------------- crc32c --

TEST(Crc32cTest, MatchesTheStandardCheckValue) {
  // The canonical CRC32C check vector (iSCSI, ext4, leveldb all agree).
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0u);
}

TEST(Crc32cTest, IncrementalEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  std::uint32_t state = 0;
  for (char c : data) state = crc32c_extend(state, &c, 1);
  EXPECT_EQ(state, crc32c(data));
}

TEST(Crc32cTest, MatchesTheRfc3720KnownAnswers) {
  // RFC 3720 §B.4: 32-byte iSCSI test vectors, on the dispatched path and
  // on the portable one (the same path on a CPU without SSE4.2).
  std::string zeros(32, '\x00');
  std::string ones(32, '\xFF');
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = char(i);
    descending[i] = char(31 - i);
  }
  const std::pair<const std::string*, std::uint32_t> vectors[] = {
      {&zeros, 0x8A9136AAu},
      {&ones, 0x62A8AB43u},
      {&ascending, 0x46DD794Eu},
      {&descending, 0x113FDB5Cu}};
  for (const auto& [data, want] : vectors) {
    EXPECT_EQ(crc32c(*data), want);
    EXPECT_EQ(crc32c_extend_portable(0, data->data(), data->size()), want);
  }
}

TEST(Crc32cTest, DispatchedPathAgreesWithThePortableOne) {
  // Lengths 0..4096 cover the 8-byte stride, its byte tail and many
  // strides; starts 0..15 put the stride on every alignment.
  std::vector<unsigned char> data(4096 + 16);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(i * 167 + (i >> 8) + 13);
  }
  for (std::size_t start = 0; start < 16; ++start) {
    const unsigned char* p = data.data() + start;
    for (std::size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(crc32c_extend(0, p, len), crc32c_extend_portable(0, p, len))
          << "start " << start << " len " << len;
    }
  }
  // A resumed state must fold the same way on both paths.
  const std::uint32_t mid = crc32c_extend_portable(0, data.data(), 100);
  EXPECT_EQ(crc32c_extend(mid, data.data() + 100, 1000),
            crc32c_extend_portable(mid, data.data() + 100, 1000));
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  EXPECT_EQ(crc32c_hardware(), bool(__builtin_cpu_supports("sse4.2")));
#else
  EXPECT_FALSE(crc32c_hardware());
#endif
}

TEST(Crc32cTest, EverySplitAndMisalignedStartAgrees) {
  // Lengths 0..64 straddle the 8-byte stride and its byte-wise tail;
  // starts 0..7 put the stride on every alignment. Each result must match
  // the bit-at-a-time definition, whole and split at every point.
  std::vector<unsigned char> data(64 + 8);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(i * 167 + 13);
  }
  for (std::size_t start = 0; start < 8; ++start) {
    const unsigned char* p = data.data() + start;
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint32_t want = reference_crc32c(p, len);
      ASSERT_EQ(crc32c_extend(0, p, len), want)
          << "start " << start << " len " << len;
      for (std::size_t split = 0; split <= len; ++split) {
        ASSERT_EQ(crc32c_extend(crc32c_extend(0, p, split), p + split,
                                len - split),
                  want)
            << "start " << start << " len " << len << " split " << split;
      }
    }
  }
}

// ------------------------------------------------------------------- wal --

TEST_F(StorageDirTest, EmptyLogRoundTrip) {
  WalOptions options;
  options.sync_every = 1;
  {
    WalOpenInfo info;
    auto wal = Wal::open(dir(), options, &info);
    ASSERT_TRUE(wal.ok()) << wal.error().to_string();
    EXPECT_EQ(info.tail_lsn, 0u);
    for (int i = 0; i < 5; ++i) {
      auto lsn = wal.value()->append(1, "record-" + std::to_string(i));
      ASSERT_TRUE(lsn.ok());
      EXPECT_EQ(lsn.value(), Lsn(i + 1));
      EXPECT_GE(wal.value()->last_synced(), lsn.value());  // sync_every=1
    }
  }
  WalOpenInfo info;
  auto reopened = Wal::open(dir(), options, &info);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(info.tail_lsn, 5u);
  EXPECT_EQ(info.records, 5u);
  EXPECT_EQ(info.truncated_bytes, 0u);

  const auto records = scan_all();
  ASSERT_EQ(records.size(), 5u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
    EXPECT_EQ(records[i].type, 1);
    EXPECT_EQ(records[i].payload, "record-" + std::to_string(i));
  }
}

TEST_F(StorageDirTest, RotationPreservesEveryRecordInOrder) {
  WalOptions options;
  options.segment_bytes = 128;  // force frequent rotation
  options.sync_every = 1;
  {
    auto wal = Wal::open(dir(), options);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(wal.value()->append(2, "payload-" + std::to_string(i)).ok());
    }
  }
  WalOpenInfo info;
  auto reopened = Wal::open(dir(), options, &info);
  ASSERT_TRUE(reopened.ok());
  EXPECT_GT(info.segments, 1u) << "rotation never happened";
  EXPECT_EQ(info.tail_lsn, 50u);

  const auto records = scan_all();
  ASSERT_EQ(records.size(), 50u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].payload, "payload-" + std::to_string(i));
  }
}

TEST_F(StorageDirTest, GroupCommitContractLastSyncedLagsUntilSync) {
  WalOptions options;
  options.sync_every = 0;  // only explicit sync flushes
  auto wal = Wal::open(dir(), options);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(wal.value()->append(1, "x").ok());
  EXPECT_EQ(wal.value()->last_appended(), 3u);
  EXPECT_EQ(wal.value()->last_synced(), 0u) << "records acked before fsync";
  ASSERT_TRUE(wal.value()->sync().ok());
  EXPECT_EQ(wal.value()->last_synced(), 3u);
}

TEST_F(StorageDirTest, UnsyncedRecordsExposeTheBufferedTail) {
  // The self-healing fence salvages exactly this view: framed records that
  // have an LSN but no fsync covering them yet.
  WalOptions options;
  options.sync_every = 0;
  auto wal = Wal::open(dir(), options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->append(1, "a").ok());
  ASSERT_TRUE(wal.value()->append(2, "bb").ok());
  ASSERT_TRUE(wal.value()->append(3, "ccc").ok());

  const auto pendinged = wal.value()->unsynced_records();
  ASSERT_EQ(pendinged.size(), 3u);
  for (std::size_t i = 0; i < pendinged.size(); ++i) {
    EXPECT_EQ(pendinged[i].lsn, i + 1);
    EXPECT_EQ(pendinged[i].type, static_cast<std::uint8_t>(i + 1));
  }
  EXPECT_EQ(pendinged[0].payload, "a");
  EXPECT_EQ(pendinged[2].payload, "ccc");

  ASSERT_TRUE(wal.value()->sync().ok());
  EXPECT_TRUE(wal.value()->unsynced_records().empty());
}

TEST_F(StorageDirTest, TornTailGarbageIsTruncatedOnOpen) {
  WalOptions options;
  options.sync_every = 1;
  {
    auto wal = Wal::open(dir(), options);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(wal.value()->append(1, "ok").ok());
  }
  // Simulate a torn write: garbage after the last full frame.
  const auto segments = files_with("wal-", ".log");
  ASSERT_EQ(segments.size(), 1u);
  {
    std::FILE* f = std::fopen(segments[0].c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("GARBAGE", f);
    std::fclose(f);
  }
  WalOpenInfo info;
  auto reopened = Wal::open(dir(), options, &info);
  ASSERT_TRUE(reopened.ok()) << reopened.error().to_string();
  EXPECT_EQ(info.tail_lsn, 3u);
  EXPECT_EQ(info.truncated_bytes, 7u);
  // The log keeps working after the repair.
  auto lsn = reopened.value()->append(1, "after-repair");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 4u);
}

TEST_F(StorageDirTest, TornTailMidFrameIsTruncatedOnOpen) {
  WalOptions options;
  options.sync_every = 1;
  {
    auto wal = Wal::open(dir(), options);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(wal.value()->append(1, "payload-payload").ok());
    }
  }
  const auto segments = files_with("wal-", ".log");
  ASSERT_EQ(segments.size(), 1u);
  // Cut into the LAST frame (the crash interrupted its write).
  const auto size = fs::file_size(segments[0]);
  fs::resize_file(segments[0], size - 5);

  WalOpenInfo info;
  auto reopened = Wal::open(dir(), options, &info);
  ASSERT_TRUE(reopened.ok()) << reopened.error().to_string();
  EXPECT_EQ(info.tail_lsn, 2u) << "the cut record must be dropped";
  EXPECT_EQ(info.records, 2u);
  EXPECT_GT(info.truncated_bytes, 0u);
  // Appends continue from the repaired tail.
  auto lsn = reopened.value()->append(1, "x");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(lsn.value(), 3u);
  EXPECT_EQ(scan_all().size(), 3u);
}

TEST_F(StorageDirTest, RepairAppendReopenScanRoundTrip) {
  // The full lifecycle the reopen probe leans on: a torn tail is repaired,
  // the log accepts appends on top of the repair, and a SECOND reopen sees
  // a clean file — the repair truncated, it did not just skip.
  WalOptions options;
  options.sync_every = 1;
  {
    auto wal = Wal::open(dir(), options);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(wal.value()->append(1, "keep-" + std::to_string(i)).ok());
    }
  }
  const auto segments = files_with("wal-", ".log");
  ASSERT_EQ(segments.size(), 1u);
  const auto size = fs::file_size(segments[0]);
  fs::resize_file(segments[0], size - 4);  // tear into frame 3

  {
    WalOpenInfo info;
    auto repaired = Wal::open(dir(), options, &info);
    ASSERT_TRUE(repaired.ok()) << repaired.error().to_string();
    EXPECT_EQ(info.tail_lsn, 2u);
    EXPECT_GT(info.truncated_bytes, 0u);
    auto lsn = repaired.value()->append(1, "after-repair");
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(lsn.value(), 3u);  // the torn record's LSN is re-issued
  }
  WalOpenInfo info;
  auto clean = Wal::open(dir(), options, &info);
  ASSERT_TRUE(clean.ok()) << clean.error().to_string();
  EXPECT_EQ(info.tail_lsn, 3u);
  EXPECT_EQ(info.truncated_bytes, 0u) << "repair left damage behind";

  const auto records = scan_all();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].payload, "keep-1");
  EXPECT_EQ(records[1].payload, "keep-2");
  EXPECT_EQ(records[2].payload, "after-repair");
}

TEST_F(StorageDirTest, TornLastSegmentIsNotReadPastItsEnd) {
  // Every segment is read into one reused buffer. The short, torn last
  // segment leaves the previous segment's frames sitting past its end in
  // that buffer; the scan must stop at the file's length, not mistake
  // them for more log (they would carry the wrong lsns: kCorrupted).
  WalOptions options;
  options.segment_bytes = 512;
  options.sync_every = 1;
  {
    auto wal = Wal::open(dir(), options);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(wal.value()->append(1, "padding-padding-padding").ok());
    }
  }
  const auto segments = files_with("wal-", ".log");
  ASSERT_GT(segments.size(), 2u);
  const auto& last = segments.back();
  const auto frame = frame_bytes(1, 1, "padding-padding-padding").size();
  ASSERT_GE(fs::file_size(last), frame);
  fs::resize_file(last, frame + 5);  // one whole frame, then a tear

  WalOpenInfo info;
  auto reopened = Wal::open(dir(), options, &info);
  ASSERT_TRUE(reopened.ok()) << reopened.error().to_string();
  EXPECT_EQ(info.truncated_bytes, 5u);
  EXPECT_EQ(fs::file_size(last), frame);
  EXPECT_EQ(scan_all().size(), info.records);
}

TEST_F(StorageDirTest, DamageBeforeTheFinalSegmentIsCorruption) {
  WalOptions options;
  options.segment_bytes = 64;  // several segments
  options.sync_every = 1;
  {
    auto wal = Wal::open(dir(), options);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(wal.value()->append(1, "padding-padding-padding").ok());
    }
  }
  auto segments = files_with("wal-", ".log");
  ASSERT_GT(segments.size(), 2u);
  // Flip one payload byte in the FIRST segment — acknowledged history.
  {
    std::FILE* f = std::fopen(segments[0].c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 25, SEEK_SET);  // inside the first record's payload
    std::fputc('!', f);
    std::fclose(f);
  }
  auto reopened = Wal::open(dir(), options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.error().code, ErrorCode::kCorrupted);
}

TEST_F(StorageDirTest, CrcValidFrameWithWrongLsnIsCorruption) {
  // Hand-craft a segment whose second frame skips an lsn. Both frames are
  // CRC-valid, so this is NOT a torn tail — it is history damage even at
  // the end of the log, and open must refuse.
  fs::create_directories(dir_);
  const std::string body =
      frame_bytes(1, 1, "first") + frame_bytes(3, 1, "skipped-two");
  {
    std::FILE* f =
        std::fopen((dir_ / "wal-0000000000000001.log").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }
  auto opened = Wal::open(dir(), WalOptions{});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code, ErrorCode::kCorrupted);
}

TEST_F(StorageDirTest, AppendWritesExactlyTheDocumentedFrames) {
  // Pins append()'s bytes on disk: logs written by earlier builds must
  // keep opening, so the framing may never drift.
  WalOptions options;
  options.sync_every = 0;
  const std::string big(300, 'p');  // spans many CRC strides
  {
    auto wal = Wal::open(dir(), options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->append(1, "first").ok());
    ASSERT_TRUE(wal.value()->append(7, "").ok());
    ASSERT_TRUE(wal.value()->append(2, big).ok());
    ASSERT_TRUE(wal.value()->sync().ok());
  }
  const auto segments = files_with("wal-", ".log");
  ASSERT_EQ(segments.size(), 1u);
  std::string on_disk;
  {
    std::FILE* f = std::fopen(segments[0].c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[512];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) on_disk.append(buf, n);
    std::fclose(f);
  }
  EXPECT_EQ(on_disk, frame_bytes(1, 1, "first") + frame_bytes(2, 7, "") +
                         frame_bytes(3, 2, big));
}

TEST_F(StorageDirTest, InjectedIoErrorFencesTheDevice) {
  FaultInjector fault(42);
  WalOptions options;
  options.sync_every = 1;
  options.fault = &fault;
  auto wal = Wal::open(dir(), options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->append(1, "before").ok());

  fault.arm(FaultPoint::kIoError, 1.0);
  auto failed = wal.value()->append(1, "during");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, ErrorCode::kUnavailable);
  EXPECT_FALSE(wal.value()->healthy());

  // Sticky: disarming does not un-fence — the file is in unknown state.
  fault.disarm(FaultPoint::kIoError);
  auto after = wal.value()->append(1, "after");
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.error().code, ErrorCode::kUnavailable);

  // Acknowledged history survives the fault.
  wal.value().reset();
  auto reopened = Wal::open(dir(), WalOptions{});
  ASSERT_TRUE(reopened.ok());
  const auto records = scan_all();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "before");
}

TEST_F(StorageDirTest, InjectedShortWriteLeavesARepairableTornTail) {
  FaultInjector fault(7);
  WalOptions options;
  options.sync_every = 0;
  options.fault = &fault;
  Lsn synced_before_fault = 0;
  {
    auto wal = Wal::open(dir(), options);
    ASSERT_TRUE(wal.ok());
    // Varied payload lengths so the half-buffer cut cannot land exactly on
    // a frame boundary — the tear must fall mid-frame.
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(wal.value()->append(1, std::string(i + 1, 'a' + i)).ok());
    }
    fault.arm(FaultPoint::kShortWrite, 1.0, 1);
    auto failed = wal.value()->sync();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code, ErrorCode::kUnavailable);
    EXPECT_FALSE(wal.value()->healthy());
    synced_before_fault = wal.value()->last_synced();
    EXPECT_EQ(synced_before_fault, 0u);
  }
  // Reopen repairs the torn batch prefix: whatever whole frames made it
  // to the file count, the half-written one is dropped.
  WalOpenInfo info;
  auto reopened = Wal::open(dir(), options, &info);
  ASSERT_TRUE(reopened.ok()) << reopened.error().to_string();
  EXPECT_LT(info.tail_lsn, 4u);
  EXPECT_GT(info.truncated_bytes, 0u);
  EXPECT_EQ(scan_all().size(), info.records);
}

TEST_F(StorageDirTest, CompactionBelowSnapshotAndGapDetection) {
  WalOptions options;
  options.segment_bytes = 64;
  options.sync_every = 1;
  auto wal = Wal::open(dir(), options);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(wal.value()->append(1, "padding-padding-padding").ok());
  }
  const auto before = files_with("wal-", ".log").size();
  ASSERT_GT(before, 2u);
  ASSERT_TRUE(wal.value()->remove_segments_below(10).ok());
  EXPECT_LT(files_with("wal-", ".log").size(), before);

  // Scanning from the snapshot position works; scanning from scratch
  // reports the gap as corruption instead of silently losing history.
  std::size_t seen = 0;
  auto ok = Wal::scan(dir(), 10, [&](const WalRecord& r) {
    EXPECT_GT(r.lsn, 10u);
    ++seen;
    return runtime::Result<void>{};
  });
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  EXPECT_EQ(seen, 10u);

  auto gap = Wal::scan(dir(), 0, [](const WalRecord&) {
    return runtime::Result<void>{};
  });
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.error().code, ErrorCode::kCorrupted);
}

// ------------------------------------------------------------- snapshots --

TEST_F(StorageDirTest, SnapshotRoundTripNewestWins) {
  ASSERT_TRUE(write_snapshot(dir(), 5, "state-at-5", WalOptions{}).ok());
  ASSERT_TRUE(write_snapshot(dir(), 9, "state-at-9", WalOptions{}).ok());
  auto loaded = load_latest_snapshot(dir());
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(loaded.value()->lsn, 9u);
  EXPECT_EQ(loaded.value()->payload, "state-at-9");
}

TEST_F(StorageDirTest, DamagedNewestSnapshotFallsBackToOlder) {
  ASSERT_TRUE(write_snapshot(dir(), 5, "good-old", WalOptions{}).ok());
  ASSERT_TRUE(write_snapshot(dir(), 9, "bad-new", WalOptions{}).ok());
  const auto snaps = files_with("snap-", ".snap");
  ASSERT_EQ(snaps.size(), 2u);
  {
    std::FILE* f = std::fopen(snaps[1].c_str(), "r+b");  // newest (lsn 9)
    ASSERT_NE(f, nullptr);
    std::fseek(f, -1, SEEK_END);
    std::fputc('!', f);
    std::fclose(f);
  }
  auto loaded = load_latest_snapshot(dir());
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(loaded.value()->lsn, 5u);
  EXPECT_EQ(loaded.value()->payload, "good-old");
}

TEST_F(StorageDirTest, StaleTmpFilesAreIgnoredByTheLoader) {
  fs::create_directories(dir_);
  {
    std::FILE* f =
        std::fopen((dir_ / "snap-00000000000000ff.tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("half-written", f);
    std::fclose(f);
  }
  auto loaded = load_latest_snapshot(dir());
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().has_value());
}

TEST_F(StorageDirTest, PruneKeepsTheNewestGenerations) {
  for (Lsn lsn : {3u, 7u, 11u, 15u}) {
    ASSERT_TRUE(write_snapshot(dir(), lsn, "s", WalOptions{}).ok());
  }
  auto oldest = prune_snapshots(dir(), 2);
  ASSERT_TRUE(oldest.ok());
  EXPECT_EQ(oldest.value(), 11u);
  EXPECT_EQ(files_with("snap-", ".snap").size(), 2u);
}

TEST_F(StorageDirTest, RepublishedLsnIsOneGenerationAndPruneKeepsIt) {
  // An idle periodic checkpointer republishes the SAME lsn over and over.
  // The publish dance renames onto the same snap-<lsn>.snap, so that is
  // one generation on disk (newest payload wins), and a keep-2 prune must
  // not treat the republish as a third generation to delete.
  ASSERT_TRUE(write_snapshot(dir(), 3, "old", WalOptions{}).ok());
  ASSERT_TRUE(write_snapshot(dir(), 9, "first", WalOptions{}).ok());
  ASSERT_TRUE(write_snapshot(dir(), 9, "second", WalOptions{}).ok());
  EXPECT_EQ(files_with("snap-", ".snap").size(), 2u);

  auto oldest = prune_snapshots(dir(), 2);
  ASSERT_TRUE(oldest.ok());
  EXPECT_EQ(oldest.value(), 3u) << "the compaction floor must stay at the "
                                   "oldest SURVIVOR, not advance";
  EXPECT_EQ(files_with("snap-", ".snap").size(), 2u);

  auto loaded = load_latest_snapshot(dir());
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(loaded.value()->lsn, 9u);
  EXPECT_EQ(loaded.value()->payload, "second");
}

TEST_F(StorageDirTest, FileStorageRejectsSnapshotBeyondSynced) {
  WalOptions options;
  options.sync_every = 0;
  auto storage = FileStorage::open(dir(), options);
  ASSERT_TRUE(storage.ok());
  ASSERT_TRUE(storage.value()->append(1, "x").ok());
  auto bad = storage.value()->write_snapshot(1, "state");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kInvalidArgument);
  ASSERT_TRUE(storage.value()->sync().ok());
  EXPECT_TRUE(storage.value()->write_snapshot(1, "state").ok());
}

// ----------------------------------------------------------------- codec --

TEST(CodecTest, CommitRecordRoundTrip) {
  CommitRecord rec;
  rec.invocation_id = 0xDEADBEEFCAFEull;
  rec.method = "open";
  rec.principal = "alice";
  rec.body_succeeded = true;
  rec.notes = {{"ticket.id", "7"}, {"ticket.desc", "printer on fire"}};
  auto decoded = decode_commit(encode_commit(rec));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().invocation_id, rec.invocation_id);
  EXPECT_EQ(decoded.value().method, rec.method);
  EXPECT_EQ(decoded.value().principal, rec.principal);
  EXPECT_EQ(decoded.value().notes, rec.notes);
}

TEST(CodecTest, MalformedPayloadsAreCorrupted) {
  CommitRecord rec;
  rec.method = "assign";
  const std::string good = encode_commit(rec);
  // Truncation and trailing junk both refuse with kCorrupted.
  auto truncated = decode_commit(std::string_view(good).substr(0, 5));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().code, ErrorCode::kCorrupted);
  auto trailing = decode_commit(good + "junk");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.error().code, ErrorCode::kCorrupted);
}

// NoteStore WAL round-trip: serialize/deserialize across the 4-inline-slot
// / heap-spill boundary, preserving insertion order and zero-copy reads.
TEST_F(StorageDirTest, NoteStoreWalRoundTripAcrossSpillBoundary) {
  core::InvocationContext ctx(runtime::MethodId::of("noted"));
  // 7 distinct keys: 4 land in the inline slots, 3 spill to the heap.
  std::vector<std::pair<std::string, std::string>> expected;
  for (int i = 0; i < 7; ++i) {
    expected.emplace_back("key-" + std::to_string(i),
                          "value-" + std::to_string(i * 11));
    ctx.set_note(expected.back().first, expected.back().second);
  }
  ASSERT_GT(ctx.notes().size(), core::NoteStore::kInlineSlots);

  // Through the log and back.
  std::string encoded;
  encode_notes(ctx.notes(), encoded);
  WalOptions options;
  options.sync_every = 1;
  {
    auto wal = Wal::open(dir(), options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->append(1, encoded).ok());
  }
  const auto records = scan_all();
  ASSERT_EQ(records.size(), 1u);

  core::NoteStore decoded;
  ASSERT_TRUE(decode_notes(records[0].payload, decoded).ok());
  ASSERT_EQ(decoded.size(), expected.size());

  // Insertion order survives the round-trip (inline slots, then spill).
  std::vector<std::pair<std::string, std::string>> seen;
  decoded.for_each([&seen](std::string_view k, std::string_view v) {
    seen.emplace_back(std::string(k), std::string(v));
  });
  EXPECT_EQ(seen, expected);

  // note_view-style reads are zero-copy: the view aliases the stored
  // string across both the inline and spill regions, and stays stable
  // across further lookups.
  for (const auto& [key, value] : expected) {
    const std::string* stored = decoded.find(key);
    ASSERT_NE(stored, nullptr);
    std::string_view view(*stored);
    EXPECT_EQ(view, value);
    EXPECT_EQ(view.data(), decoded.find(key)->data());
  }
}

}  // namespace
}  // namespace amf::storage
