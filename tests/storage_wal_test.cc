// Write-ahead-log unit tests: record framing, CRC verification, torn-tail
// truncation at *every* byte offset of a trailing record, scan-only reads
// (verify tool), reset, and injected I/O errors. The torn-tail sweep is
// the core durability property: whatever prefix of the final record a
// crash leaves behind, Open recovers exactly the acknowledged records and
// physically truncates the garbage.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "storage/checkpoint.h"
#include "storage/fault.h"
#include "storage/fs.h"
#include "storage/kb_storage.h"
#include "storage/verify.h"
#include "storage/wal.h"
#include "util/file.h"

namespace tecore {
namespace storage {
namespace {

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

WalRecord Rec(WalRecordType type, uint64_t version, std::string payload) {
  WalRecord record;
  record.type = type;
  record.version = version;
  record.payload = std::move(payload);
  return record;
}

TEST(Wal, FrameLayout) {
  const std::string frame =
      Wal::EncodeRecord(Rec(WalRecordType::kEditBatch, 7, "abc"));
  // u32 len + u32 crc + u8 type + u64 version + payload.
  ASSERT_EQ(frame.size(), 4u + 4u + 1u + 8u + 3u);
  const auto* bytes = reinterpret_cast<const uint8_t*>(frame.data());
  const uint32_t frame_len = static_cast<uint32_t>(bytes[0]) |
                             (static_cast<uint32_t>(bytes[1]) << 8) |
                             (static_cast<uint32_t>(bytes[2]) << 16) |
                             (static_cast<uint32_t>(bytes[3]) << 24);
  EXPECT_EQ(frame_len, 1u + 8u + 3u);  // everything after the crc field
  EXPECT_EQ(bytes[8], 1u);             // kEditBatch
  EXPECT_EQ(bytes[9], 7u);             // version, little-endian
  EXPECT_EQ(frame.substr(17), "abc");
}

TEST(Wal, AppendThenReopenRecoversRecords) {
  const std::string path = TestPath("wal_roundtrip.log");
  RemoveFile(path);
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    EXPECT_TRUE(wal.scan().records.empty());
    ASSERT_TRUE(
        wal.Append(Rec(WalRecordType::kEditBatch, 1, "+ f1\n"), true).ok());
    ASSERT_TRUE(
        wal.Append(Rec(WalRecordType::kRulesSet, 2, "rule text"), true).ok());
    ASSERT_TRUE(
        wal.Append(Rec(WalRecordType::kVersionMark, 3, ""), false).ok());
  }
  Wal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  const auto& scan = wal.scan();
  EXPECT_FALSE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].type, WalRecordType::kEditBatch);
  EXPECT_EQ(scan.records[0].version, 1u);
  EXPECT_EQ(scan.records[0].payload, "+ f1\n");
  EXPECT_EQ(scan.records[1].type, WalRecordType::kRulesSet);
  EXPECT_EQ(scan.records[1].payload, "rule text");
  EXPECT_EQ(scan.records[2].type, WalRecordType::kVersionMark);
  EXPECT_EQ(scan.records[2].version, 3u);
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
}

// The central recovery sweep: a log of K intact records plus every
// possible prefix of record K+1 must recover exactly the K records — and
// Open must physically truncate the tail so a subsequent append never
// interleaves with garbage.
TEST(Wal, TornTailTruncatedAtEveryByteOffset) {
  std::string intact;
  intact += Wal::EncodeRecord(Rec(WalRecordType::kEditBatch, 1, "+ a\n"));
  intact += Wal::EncodeRecord(Rec(WalRecordType::kRulesSet, 2, "r"));
  const std::string last =
      Wal::EncodeRecord(Rec(WalRecordType::kEditBatch, 3, "+ bbb\n"));
  for (size_t cut = 0; cut < last.size(); ++cut) {
    const std::string path = TestPath("wal_torn.log");
    RemoveFile(path);
    ASSERT_TRUE(
        util::WriteStringToFile(path, intact + last.substr(0, cut)).ok());
    Wal wal;
    ASSERT_TRUE(wal.Open(path).ok()) << "cut=" << cut;
    EXPECT_EQ(wal.scan().records.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(wal.scan().torn_tail, cut != 0) << "cut=" << cut;
    EXPECT_EQ(wal.scan().valid_bytes, intact.size());
    // The garbage is gone from disk, not just skipped.
    auto size = FileSize(path);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, intact.size()) << "cut=" << cut;
    // And the log accepts new appends cleanly after truncation.
    ASSERT_TRUE(
        wal.Append(Rec(WalRecordType::kVersionMark, 3, ""), true).ok());
    Wal reopened;
    ASSERT_TRUE(reopened.Open(path).ok());
    ASSERT_EQ(reopened.scan().records.size(), 3u) << "cut=" << cut;
    EXPECT_EQ(reopened.scan().records[2].type, WalRecordType::kVersionMark);
  }
}

TEST(Wal, CorruptMiddleRecordDropsItAndEverythingAfter) {
  const std::string path = TestPath("wal_corrupt.log");
  RemoveFile(path);
  std::string bytes;
  bytes += Wal::EncodeRecord(Rec(WalRecordType::kEditBatch, 1, "+ a\n"));
  const size_t second_start = bytes.size();
  bytes += Wal::EncodeRecord(Rec(WalRecordType::kEditBatch, 2, "+ b\n"));
  bytes += Wal::EncodeRecord(Rec(WalRecordType::kEditBatch, 3, "+ c\n"));
  bytes[second_start + 12] ^= 0xFF;  // flip a payload-covered byte
  ASSERT_TRUE(util::WriteStringToFile(path, bytes).ok());
  Wal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  // Record 3 is intact bytes-wise but unreachable: a log is a prefix, and
  // trusting anything after a corrupt record would reorder history.
  ASSERT_EQ(wal.scan().records.size(), 1u);
  EXPECT_EQ(wal.scan().records[0].version, 1u);
  EXPECT_TRUE(wal.scan().torn_tail);
}

TEST(Wal, ImpossibleFrameLengthIsATornTail) {
  const std::string path = TestPath("wal_badlen.log");
  RemoveFile(path);
  std::string bytes =
      Wal::EncodeRecord(Rec(WalRecordType::kEditBatch, 1, "+ a\n"));
  // A frame_len below the fixed header (type+version) or absurdly large
  // must not be trusted — either would read garbage or try to allocate it.
  bytes += std::string("\x03\x00\x00\x00", 4) + std::string(8, 'x');
  ASSERT_TRUE(util::WriteStringToFile(path, bytes).ok());
  Wal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  EXPECT_EQ(wal.scan().records.size(), 1u);
  EXPECT_TRUE(wal.scan().torn_tail);

  RemoveFile(path);
  bytes = Wal::EncodeRecord(Rec(WalRecordType::kEditBatch, 1, "+ a\n"));
  bytes += std::string("\xff\xff\xff\x7f", 4) + std::string(16, 'x');
  ASSERT_TRUE(util::WriteStringToFile(path, bytes).ok());
  Wal wal2;
  ASSERT_TRUE(wal2.Open(path).ok());
  EXPECT_EQ(wal2.scan().records.size(), 1u);
  EXPECT_TRUE(wal2.scan().torn_tail);
}

TEST(Wal, ScanFileNeverTruncates) {
  const std::string path = TestPath("wal_scanonly.log");
  RemoveFile(path);
  std::string bytes =
      Wal::EncodeRecord(Rec(WalRecordType::kEditBatch, 1, "+ a\n"));
  bytes += "torn garbage";
  ASSERT_TRUE(util::WriteStringToFile(path, bytes).ok());
  auto scan = Wal::ScanFile(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_LT(scan->valid_bytes, scan->file_bytes);
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, bytes.size());  // verify is read-only
}

TEST(Wal, ResetEmptiesTheLog) {
  const std::string path = TestPath("wal_reset.log");
  RemoveFile(path);
  Wal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  ASSERT_TRUE(
      wal.Append(Rec(WalRecordType::kEditBatch, 1, "+ a\n"), true).ok());
  ASSERT_TRUE(wal.Reset().ok());
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 0u);
  ASSERT_TRUE(
      wal.Append(Rec(WalRecordType::kEditBatch, 5, "+ b\n"), true).ok());
  Wal reopened;
  ASSERT_TRUE(reopened.Open(path).ok());
  ASSERT_EQ(reopened.scan().records.size(), 1u);
  EXPECT_EQ(reopened.scan().records[0].version, 5u);
}

TEST(Wal, InjectedAppendFailureIsIoError) {
  const std::string path = TestPath("wal_iofail.log");
  RemoveFile(path);
  Wal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  InjectIoFailures("wal:append", 1);
  Status failed = wal.Append(Rec(WalRecordType::kEditBatch, 1, "+ a\n"), true);
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  InjectIoFailures("wal:append", 0);
  // The failure consumed nothing: the next append succeeds and the log
  // holds exactly that one record.
  ASSERT_TRUE(
      wal.Append(Rec(WalRecordType::kEditBatch, 1, "+ a\n"), true).ok());
  Wal reopened;
  ASSERT_TRUE(reopened.Open(path).ok());
  EXPECT_EQ(reopened.scan().records.size(), 1u);
}

TEST(Wal, FailedSyncPoisonsLog) {
  const std::string path = TestPath("wal_poison.log");
  RemoveFile(path);
  Wal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  ASSERT_TRUE(
      wal.Append(Rec(WalRecordType::kEditBatch, 1, "+ a\n"), true).ok());
  // A failed fsync may have dropped dirty pages while the *next* fsync
  // reports clean, so a sync failure must poison the log: acknowledging
  // later appends would claim durability the kernel no longer guarantees.
  InjectIoFailures("wal:sync", 1);
  Status failed = wal.Append(Rec(WalRecordType::kEditBatch, 2, "+ b\n"), true);
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  InjectIoFailures("wal:sync", 0);
  EXPECT_TRUE(wal.poisoned());
  // Even with injection disarmed, the poisoned log refuses all writes.
  EXPECT_EQ(
      wal.Append(Rec(WalRecordType::kEditBatch, 3, "+ c\n"), true).code(),
      StatusCode::kIoError);
  EXPECT_EQ(wal.Sync().code(), StatusCode::kIoError);
  EXPECT_EQ(wal.Reset().code(), StatusCode::kIoError);
  // Reopen rescans the on-disk state from scratch and clears the poison;
  // the acknowledged record (version 1) is intact.
  Wal reopened;
  ASSERT_TRUE(reopened.Open(path).ok());
  EXPECT_FALSE(reopened.poisoned());
  ASSERT_GE(reopened.scan().records.size(), 1u);
  EXPECT_EQ(reopened.scan().records[0].version, 1u);
  ASSERT_TRUE(
      reopened.Append(Rec(WalRecordType::kEditBatch, 4, "+ d\n"), true).ok());
}

// ------------------------------------------------------------ KbStorage

TEST(KbStorage, EditTailServesSseResume) {
  const std::string dir = TestPath("kbstorage_tail");
  ASSERT_TRUE(KbStorage::Destroy(dir).ok());
  StorageOptions options;
  auto opened = KbStorage::Open(dir, options);
  ASSERT_TRUE(opened.ok());
  auto storage = *opened;
  ASSERT_TRUE(
      storage->Append(Rec(WalRecordType::kEditBatch, 1, "+ a\n")).ok());
  ASSERT_TRUE(
      storage->Append(Rec(WalRecordType::kVersionMark, 2, "")).ok());
  ASSERT_TRUE(
      storage->Append(Rec(WalRecordType::kEditBatch, 3, "+ b\n")).ok());
  bool complete = false;
  auto edits = storage->EditsSince(1, &complete);
  EXPECT_TRUE(complete);
  ASSERT_EQ(edits.size(), 1u);  // version marks are not edits
  EXPECT_EQ(edits[0].first, 3u);
  EXPECT_EQ(edits[0].second, "+ b\n");
  edits = storage->EditsSince(0, &complete);
  EXPECT_TRUE(complete);
  EXPECT_EQ(edits.size(), 2u);
  // A graph replacement invalidates script replay below its version.
  storage->ResetEditTail(4);
  edits = storage->EditsSince(3, &complete);
  EXPECT_FALSE(complete);
  EXPECT_TRUE(edits.empty());
  edits = storage->EditsSince(4, &complete);
  EXPECT_TRUE(complete);
  EXPECT_TRUE(edits.empty());
}

TEST(KbStorage, ReopenSeedsEditTailFromWal) {
  const std::string dir = TestPath("kbstorage_reopen_tail");
  ASSERT_TRUE(KbStorage::Destroy(dir).ok());
  StorageOptions options;
  {
    auto opened = KbStorage::Open(dir, options);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(
        (*opened)->Append(Rec(WalRecordType::kEditBatch, 1, "+ a\n")).ok());
  }
  auto reopened = KbStorage::Open(dir, options);
  ASSERT_TRUE(reopened.ok());
  bool complete = false;
  auto edits = (*reopened)->EditsSince(0, &complete);
  EXPECT_TRUE(complete);
  ASSERT_EQ(edits.size(), 1u);
  EXPECT_EQ(edits[0].second, "+ a\n");
  ASSERT_TRUE(KbStorage::Destroy(dir).ok());
}

TEST(VerifyKbDir, ReportsCleanAndCorruptStores) {
  const std::string dir = TestPath("verify_kb");
  ASSERT_TRUE(KbStorage::Destroy(dir).ok());
  StorageOptions options;
  {
    auto opened = KbStorage::Open(dir, options);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(
        (*opened)->Append(Rec(WalRecordType::kEditBatch, 1, "+ a\n")).ok());
  }
  auto report = VerifyKbDir(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  EXPECT_FALSE(report->has_checkpoint);
  EXPECT_EQ(report->wal_records, 1u);
  EXPECT_EQ(report->recoverable_version, 1u);
  EXPECT_FALSE(report->wal_torn_tail);

  // Append garbage: verify reports the torn tail but stays "clean" (it is
  // recoverable) and does not modify the file.
  auto log = ReadFile(JoinPath(dir, "wal.log"));
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(
      util::WriteStringToFile(JoinPath(dir, "wal.log"), *log + "garbage")
          .ok());
  report = VerifyKbDir(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  EXPECT_TRUE(report->wal_torn_tail);
  EXPECT_LT(report->wal_valid_bytes, report->wal_file_bytes);
  ASSERT_TRUE(KbStorage::Destroy(dir).ok());
}

TEST(Checkpoint, ManifestNumberThatIsNotAnExactIntegerIsCorrupt) {
  const std::string dir = TestPath("checkpoint_manifest_ints");
  RemoveDirRecursive(dir);
  Checkpoint cp;
  cp.version = 3;
  cp.has_graph = true;
  cp.graph_text = "a p b [1,2] 0.9 .\n";
  ASSERT_TRUE(WriteCheckpoint(dir, cp).ok());
  ASSERT_TRUE(LoadCheckpoint(dir).ok());
  auto manifest = ReadFile(JoinPath(dir, "MANIFEST"));
  ASSERT_TRUE(manifest.ok());
  const std::string good = *manifest;
  for (const auto& [field, bad] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"version\":3", "\"version\":1e30"},
           {"\"format\":1", "\"format\":1.5"}}) {
    const size_t at = good.find(field);
    ASSERT_NE(at, std::string::npos) << good;
    std::string corrupt = good;
    corrupt.replace(at, field.size(), bad);
    ASSERT_TRUE(
        util::WriteStringToFile(JoinPath(dir, "MANIFEST"), corrupt).ok());
    auto loaded = LoadCheckpoint(dir);
    ASSERT_FALSE(loaded.ok()) << corrupt;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    EXPECT_NE(loaded.status().message().find("corrupt"), std::string::npos)
        << loaded.status().message();
  }
  RemoveDirRecursive(dir);
}

}  // namespace
}  // namespace storage
}  // namespace tecore
