// Tests for the durability layer (src/durability/) and the crash-restart
// oracle on top of it: WAL framing edge cases (torn tails, CRC corruption,
// empty logs, file round trips), partition log + checkpoint mechanics,
// KvStore recovery determinism, group-commit flush accounting, planted
// write-ahead-rule violations, and small crash-recovery chaos sweeps.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/kvstore.h"
#include "src/check/checker.h"
#include "src/check/crash.h"
#include "src/durability/partition_log.h"
#include "src/durability/wal.h"
#include "src/tm/tm_system.h"

namespace tm2c {
namespace {

// ---------------------------------------------------------------------------
// WAL framing
// ---------------------------------------------------------------------------

std::vector<uint8_t> Flatten(const WalImage& image) {
  std::vector<uint8_t> bytes(image.size());
  image.CopyOut(0, bytes.size(), bytes.data());
  return bytes;
}

// The payload of record `i`: 11 words by default, a 96-byte frame like a
// 4-pair commit record's.
std::vector<uint64_t> Payload(uint64_t i, uint64_t words = 11) {
  std::vector<uint64_t> payload(words);
  for (uint64_t w = 0; w < words; ++w) {
    payload[w] = i * 1000 + w;
  }
  return payload;
}

// Appends records until the next one would straddle the first segment
// boundary; returns how many were appended.
uint64_t FillFirstSegment(Wal* wal) {
  const uint64_t frame = kWalFrameOverheadBytes + 11 * sizeof(uint64_t);
  uint64_t n = 0;
  while (wal->image().size() + frame <= WalImage::kSegmentBytes) {
    wal->Append(Payload(n).data(), 11);
    ++n;
  }
  return n;
}

TEST(Wal, EmptyLogIsCleanAndHoldsOnlyTheHeader) {
  Wal wal(Wal::Options{});
  EXPECT_EQ(wal.image().size(), kWalHeaderBytes);
  EXPECT_EQ(wal.durable_bytes(), kWalHeaderBytes);
  EXPECT_EQ(wal.appended_records(), 0u);
  const WalReadResult r = ReadWal(wal.image());
  EXPECT_TRUE(r.clean());
  EXPECT_FALSE(r.torn_tail);
  EXPECT_TRUE(r.records.empty());
  EXPECT_EQ(r.valid_bytes, kWalHeaderBytes);
}

TEST(Wal, MissingOrWrongMagicIsBadMagic) {
  EXPECT_TRUE(ReadWal(std::vector<uint8_t>{}).bad_magic);
  EXPECT_TRUE(ReadWal(std::vector<uint8_t>{'T', 'M'}).bad_magic);
  std::vector<uint8_t> wrong(kWalHeaderBytes, 0x42);
  EXPECT_TRUE(ReadWal(wrong).bad_magic);
}

TEST(Wal, AppendedRecordsReadBackInOrder) {
  Wal wal(Wal::Options{});
  const uint64_t a[] = {1, 2, 3};
  const uint64_t b[] = {0xdeadbeefcafef00dull};
  EXPECT_EQ(wal.Append(a, 3), 0u);
  EXPECT_EQ(wal.Append(b, 1), 1u);
  EXPECT_EQ(wal.unflushed_records(), 2u);
  wal.Flush();
  EXPECT_EQ(wal.unflushed_records(), 0u);
  EXPECT_EQ(wal.durable_bytes(), wal.image().size());

  const WalReadResult r = ReadWal(wal.image());
  ASSERT_TRUE(r.clean());
  EXPECT_FALSE(r.torn_tail);
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0].payload, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.records[1].payload, (std::vector<uint64_t>{0xdeadbeefcafef00dull}));
  EXPECT_EQ(r.valid_bytes, wal.image().size());
}

TEST(Wal, TornFinalRecordKeepsThePrefix) {
  // The final frame sits inside the first segment, or straddles the
  // boundary into the second.
  for (const bool straddle : {false, true}) {
    Wal wal(Wal::Options{});
    const uint64_t a[] = {10, 11};
    wal.Append(a, 2);
    const uint64_t kept = 1 + (straddle ? FillFirstSegment(&wal) : 0);
    const uint64_t prefix_bytes = wal.image().size();
    wal.Append(Payload(kept).data(), 11);
    ASSERT_EQ(wal.image().size() > WalImage::kSegmentBytes, straddle);

    // Cut the image anywhere strictly inside the final frame: incomplete
    // header and incomplete payload are both torn tails, never corruption.
    const std::vector<uint8_t> whole = Flatten(wal.image());
    for (uint64_t cut = prefix_bytes + 1; cut < whole.size(); ++cut) {
      const std::vector<uint8_t> torn(whole.begin(), whole.begin() + cut);
      const WalReadResult r = ReadWal(torn);
      EXPECT_TRUE(r.clean()) << "cut at " << cut;
      EXPECT_TRUE(r.torn_tail) << "cut at " << cut;
      ASSERT_EQ(r.records.size(), kept) << "cut at " << cut;
      EXPECT_EQ(r.records[0].payload, (std::vector<uint64_t>{10, 11}));
      EXPECT_EQ(r.valid_bytes, prefix_bytes) << "cut at " << cut;
    }
  }
}

TEST(Wal, CorruptByteAnywhereInAFrameIsCaught) {
  Wal wal(Wal::Options{});
  const uint64_t a[] = {10, 11};
  const uint64_t b[] = {20};
  wal.Append(a, 2);
  wal.Append(b, 1);
  const uint64_t first_frame_end = kWalHeaderBytes + kWalFrameOverheadBytes + 2 * 8;

  // Flip one bit at a sweep of offsets inside the first frame: the scan
  // must stop there (crc/length mismatch) and keep zero records.
  for (uint64_t off = kWalHeaderBytes; off < first_frame_end; off += 3) {
    std::vector<uint8_t> img = Flatten(wal.image());
    img[off] ^= 0x40;
    const WalReadResult r = ReadWal(img);
    EXPECT_TRUE(r.bad_magic || r.crc_mismatch || r.torn_tail) << "offset " << off;
    if (r.crc_mismatch) {
      EXPECT_TRUE(r.records.empty()) << "offset " << off;
      EXPECT_EQ(r.valid_bytes, kWalHeaderBytes) << "offset " << off;
    }
  }

  // A zero or non-word-multiple length field is corruption, not a tear.
  std::vector<uint8_t> img = Flatten(wal.image());
  img[kWalHeaderBytes] = 0;
  img[kWalHeaderBytes + 1] = 0;
  img[kWalHeaderBytes + 2] = 0;
  img[kWalHeaderBytes + 3] = 0;
  EXPECT_TRUE(ReadWal(img).crc_mismatch);
}

TEST(Wal, FileBackedLogRoundTripsThroughFsync) {
  const std::string path = testing::TempDir() + "/tm2c_wal_test.log";
  Wal::Options opts;
  opts.path = path;
  opts.fsync_on_flush = true;
  Wal wal(opts);
  const uint64_t payload[] = {7, 8, 9};
  wal.Append(payload, 3);
  wal.Flush();

  const WalReadResult r = ReadWalFile(path);
  ASSERT_TRUE(r.clean());
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].payload, (std::vector<uint64_t>{7, 8, 9}));
  EXPECT_TRUE(ReadWalFile(path + ".does-not-exist").bad_magic);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// WAL segments: the in-memory image grows in WalImage::kSegmentBytes pieces,
// and a frame may straddle two of them.
// ---------------------------------------------------------------------------

TEST(WalSegments, RecordStraddlingASegmentBoundaryRoundTrips) {
  Wal wal(Wal::Options{});
  const uint64_t before = FillFirstSegment(&wal);
  const uint64_t frame_start = wal.image().size();
  wal.Append(Payload(before).data(), 11);
  ASSERT_LT(frame_start, WalImage::kSegmentBytes);
  ASSERT_GT(wal.image().size(), WalImage::kSegmentBytes);
  wal.Flush();

  const WalReadResult r = ReadWal(wal.image());
  ASSERT_TRUE(r.clean());
  EXPECT_FALSE(r.torn_tail);
  ASSERT_EQ(r.records.size(), before + 1);
  EXPECT_EQ(r.records.back().payload, Payload(before));
  EXPECT_EQ(r.valid_bytes, wal.image().size());
  EXPECT_EQ(wal.durable_bytes(), wal.image().size());
}

TEST(WalSegments, CrcFlipInTheSecondSegmentIsFlagged) {
  const std::string path = testing::TempDir() + "/tm2c_wal_segments_crc.log";
  Wal::Options opts;
  opts.path = path;
  Wal wal(opts);
  const uint64_t frame = kWalFrameOverheadBytes + 11 * sizeof(uint64_t);
  const uint64_t records = 2 * WalImage::kSegmentBytes / frame;
  for (uint64_t i = 0; i < records; ++i) {
    wal.Append(Payload(i).data(), 11);
  }
  wal.Flush();
  // A payload byte of the first frame that starts past the boundary.
  const uint64_t victim = WalImage::kSegmentBytes / frame + 1;
  const uint64_t victim_start = kWalHeaderBytes + victim * frame;
  ASSERT_GT(victim_start, WalImage::kSegmentBytes);
  const uint64_t flip = victim_start + kWalFrameOverheadBytes + 13;

  // Through the flat-bytes entry...
  std::vector<uint8_t> img = Flatten(wal.image());
  img[flip] ^= 0x40;
  const WalReadResult flat = ReadWal(img);
  EXPECT_TRUE(flat.crc_mismatch);
  EXPECT_EQ(flat.records.size(), victim);
  EXPECT_EQ(flat.valid_bytes, victim_start);

  // ...and through a file read back into a segmented image.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(flip), SEEK_SET), 0);
  ASSERT_EQ(std::fputc(img[flip], f), img[flip]);
  std::fclose(f);
  const WalReadResult file = ReadWalFile(path);
  EXPECT_TRUE(file.crc_mismatch);
  EXPECT_EQ(file.records.size(), victim);
  EXPECT_EQ(file.valid_bytes, victim_start);
  std::remove(path.c_str());
}

TEST(WalSegments, RecoverExistingOverSeveralSegments) {
  const std::string path = testing::TempDir() + "/tm2c_wal_segments_recover.log";
  Wal::Options opts;
  opts.path = path;
  const uint64_t records = 2500;  // ~240 KB: four segments
  uint64_t valid_bytes = 0;
  {
    Wal wal(opts);
    for (uint64_t i = 0; i < records; ++i) {
      wal.Append(Payload(i).data(), 11);
    }
    wal.Flush();
    valid_bytes = wal.durable_bytes();
    ASSERT_GT(valid_bytes, 3 * WalImage::kSegmentBytes);
  }
  // A torn append after the last flushed frame: a header and part of a
  // payload.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint8_t torn[12] = {88, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8};
    ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn), f), sizeof(torn));
    std::fclose(f);
  }
  opts.recover_existing = true;
  Wal wal(opts);
  EXPECT_EQ(wal.recovered_records(), records);
  EXPECT_EQ(wal.durable_records(), records);
  EXPECT_EQ(wal.durable_bytes(), valid_bytes);
  EXPECT_EQ(wal.image().size(), valid_bytes);
  wal.Append(Payload(records).data(), 11);
  wal.Flush();

  const WalReadResult r = ReadWalFile(path);
  ASSERT_TRUE(r.clean());
  EXPECT_FALSE(r.torn_tail);
  ASSERT_EQ(r.records.size(), records + 1);
  EXPECT_EQ(r.records[1234].payload, Payload(1234));
  EXPECT_EQ(r.records.back().payload, Payload(records));
  const WalReadResult mem = ReadWal(wal.image());
  ASSERT_EQ(mem.records.size(), records + 1);
  EXPECT_EQ(mem.valid_bytes, r.valid_bytes);
  std::remove(path.c_str());
}

TEST(WalSegments, ImageAndItsFlattenedBytesReadTheSame) {
  Wal wal(Wal::Options{});
  // Payloads of 1..40 words put frame edges at many offsets of each segment.
  for (uint64_t i = 0; wal.image().size() < 3 * WalImage::kSegmentBytes; ++i) {
    wal.Append(Payload(i, 1 + i % 40).data(), 1 + i % 40);
  }
  const WalReadResult segmented = ReadWal(wal.image());
  const WalReadResult flat = ReadWal(Flatten(wal.image()));
  EXPECT_TRUE(segmented.clean());
  EXPECT_EQ(segmented.valid_bytes, wal.image().size());
  EXPECT_EQ(segmented.valid_bytes, flat.valid_bytes);
  EXPECT_EQ(segmented.torn_tail, flat.torn_tail);
  EXPECT_EQ(segmented.crc_mismatch, flat.crc_mismatch);
  EXPECT_EQ(segmented.bad_magic, flat.bad_magic);
  ASSERT_EQ(segmented.records.size(), flat.records.size());
  ASSERT_EQ(segmented.records.size(), wal.appended_records());
  for (size_t i = 0; i < flat.records.size(); ++i) {
    ASSERT_EQ(segmented.records[i].payload, flat.records[i].payload) << "record " << i;
  }
}

// ---------------------------------------------------------------------------
// Partition log + checkpoints
// ---------------------------------------------------------------------------

TEST(PartitionLog, CommitRecordRoundTripAndMalformedPayloads) {
  PartitionDurability::Options opts;
  PartitionDurability dur(0, opts);
  dur.SealInitialCheckpoint();
  dur.LogCommit(3, 17, {{0x100, 42}, {0x108, 43}});
  dur.Flush();

  const WalReadResult r = ReadWal(dur.wal().image());
  ASSERT_TRUE(r.clean());
  ASSERT_EQ(r.records.size(), 1u);
  CommitRecord rec;
  ASSERT_TRUE(ParseCommitRecord(r.records[0], &rec));
  EXPECT_EQ(rec.core, 3u);
  EXPECT_EQ(rec.epoch, 17u);
  EXPECT_EQ(rec.pairs,
            (std::vector<std::pair<uint64_t, uint64_t>>{{0x100, 42}, {0x108, 43}}));

  CommitRecord bad;
  EXPECT_FALSE(ParseCommitRecord(WalRecord{{1, 2}}, &bad));        // too short
  EXPECT_FALSE(ParseCommitRecord(WalRecord{{1, 2, 2, 5, 6}}, &bad));  // n mismatch
}

TEST(PartitionLog, CheckpointCadenceAndShadowContents) {
  PartitionDurability::Options opts;
  opts.checkpoint_every_records = 2;
  PartitionDurability dur(1, opts);
  dur.CaptureInitial(0x100, 7);
  dur.CaptureInitial(0x108, 8);
  dur.SealInitialCheckpoint();
  ASSERT_EQ(dur.checkpoints().size(), 1u);
  EXPECT_EQ(dur.checkpoints()[0].records_covered, 0u);
  EXPECT_EQ(dur.checkpoints()[0].pairs,
            (std::vector<std::pair<uint64_t, uint64_t>>{{0x100, 7}, {0x108, 8}}));

  EXPECT_FALSE(dur.LogCommit(0, 1, {{0x100, 70}}));
  EXPECT_TRUE(dur.LogCommit(1, 1, {{0x108, 80}}));  // 2nd record: due
  EXPECT_EQ(dur.Flush(), 2u);
  dur.TakeCheckpoint();
  ASSERT_EQ(dur.checkpoints().size(), 2u);
  const CheckpointImage& ck = dur.checkpoints()[1];
  EXPECT_EQ(ck.index, 1u);
  EXPECT_EQ(ck.records_covered, 2u);
  EXPECT_EQ(ck.pairs, (std::vector<std::pair<uint64_t, uint64_t>>{{0x100, 70}, {0x108, 80}}));
  EXPECT_EQ(dur.Flush(), 0u);  // nothing new: no event, no progress
}

// ---------------------------------------------------------------------------
// KvStore recovery
// ---------------------------------------------------------------------------

class RecoveryFixture : public testing::Test {
 protected:
  RecoveryFixture() {
    TmSystemConfig cfg;
    cfg.sim.platform = PlatformByName("scc");
    cfg.sim.num_cores = 4;
    cfg.sim.num_service = 2;
    cfg.sim.shmem_bytes = 2 << 20;
    sys_ = std::make_unique<TmSystem>(cfg);
    KvStoreConfig kv;
    kv.buckets_per_partition = 4;
    kv.capacity_per_partition = 32;
    store_ = std::make_unique<KvStore>(sys_->allocator(), sys_->shmem(), sys_->address_map(),
                                       sys_->deployment(), kv);
  }

  std::vector<uint64_t> SlabWords(uint32_t p) {
    const auto [base, bytes] = store_->SlabRange(p);
    std::vector<uint64_t> words;
    for (uint64_t addr = base; addr < base + bytes; addr += kWordBytes) {
      words.push_back(sys_->shmem().LoadWord(addr));
    }
    return words;
  }

  std::vector<std::pair<uint64_t, uint64_t>> SlabPairs(uint32_t p) {
    const auto [base, bytes] = store_->SlabRange(p);
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    for (uint64_t addr = base; addr < base + bytes; addr += kWordBytes) {
      pairs.emplace_back(addr, sys_->shmem().LoadWord(addr));
    }
    return pairs;
  }

  std::unique_ptr<TmSystem> sys_;
  std::unique_ptr<KvStore> store_;
};

TEST_F(RecoveryFixture, RecoverTwiceIsByteIdenticalAndRebuildsThePool) {
  for (uint64_t key = 1; key <= 12; ++key) {
    const uint64_t value = key * 1000 + 7;
    store_->HostPut(key, &value);
  }
  for (uint32_t p = 0; p < store_->num_partitions(); ++p) {
    const auto checkpoint = SlabPairs(p);
    const uint64_t in_use_before = store_->NodesInUse(p);
    const auto words_before = SlabWords(p);

    // Clobber, recover, compare.
    const auto [base, bytes] = store_->SlabRange(p);
    for (uint64_t addr = base; addr < base + bytes; addr += kWordBytes) {
      sys_->shmem().StoreWord(addr, 0xDEADDEADDEADDEADull);
    }
    store_->RecoverPartition(p, checkpoint, {});
    EXPECT_EQ(SlabWords(p), words_before);
    EXPECT_EQ(store_->NodesInUse(p), in_use_before);

    // Recover again from the same inputs: byte-identical (idempotent).
    store_->RecoverPartition(p, checkpoint, {});
    EXPECT_EQ(SlabWords(p), words_before);
    EXPECT_EQ(store_->NodesInUse(p), in_use_before);

    // Replaying the same pairs as a log suffix is an idempotent overlay.
    store_->RecoverPartition(p, checkpoint, checkpoint);
    EXPECT_EQ(SlabWords(p), words_before);
  }
  for (uint64_t key = 1; key <= 12; ++key) {
    uint64_t value = 0;
    ASSERT_TRUE(store_->HostGet(key, &value));
    EXPECT_EQ(value, key * 1000 + 7);
  }
}

// ---------------------------------------------------------------------------
// Checked runs with durability on
// ---------------------------------------------------------------------------

uint64_t CountEvents(const History& h, History::DurabilityEvent::Kind kind) {
  uint64_t n = 0;
  for (const auto& ev : h.durability_events()) {
    n += ev.kind == kind ? 1 : 0;
  }
  return n;
}

CheckRunConfig DurableKvConfig(uint64_t seed) {
  CheckRunConfig cfg;
  cfg.workload = CheckWorkload::kKv;
  cfg.durability = DurabilityMode::kBuffered;
  cfg.seed = seed;
  return cfg;
}

TEST(DurableRuns, GroupCommitStrictlyCutsFlushes) {
  CheckRunConfig cfg = DurableKvConfig(5);
  cfg.group_commit_txs = 1;
  const CheckRunResult per_tx = RunCheckedWorkload(cfg);
  ASSERT_TRUE(per_tx.report.ok()) << per_tx.report.Summary();

  cfg.group_commit_txs = 8;
  const CheckRunResult grouped = RunCheckedWorkload(cfg);
  ASSERT_TRUE(grouped.report.ok()) << grouped.report.Summary();

  const uint64_t appends1 = CountEvents(per_tx.history, History::DurabilityEvent::Kind::kAppend);
  const uint64_t appendsG = CountEvents(grouped.history, History::DurabilityEvent::Kind::kAppend);
  const uint64_t flushes1 = CountEvents(per_tx.history, History::DurabilityEvent::Kind::kFlush);
  const uint64_t flushesG = CountEvents(grouped.history, History::DurabilityEvent::Kind::kFlush);
  ASSERT_GT(appends1, 0u);
  ASSERT_GT(appendsG, 0u);
  // Per-tx commit flushes once per record; the same workload under group
  // commit flushes strictly less often.
  EXPECT_EQ(flushes1, appends1);
  EXPECT_LT(flushesG, flushes1);
}

TEST(DurableRuns, DurabilityOffRecordsNoEvents) {
  CheckRunConfig cfg;
  cfg.workload = CheckWorkload::kKv;
  cfg.seed = 3;
  const CheckRunResult result = RunCheckedWorkload(cfg);
  ASSERT_TRUE(result.report.ok()) << result.report.Summary();
  EXPECT_TRUE(result.history.durability_events().empty());
}

TEST(DurableRuns, CrashSweepRecoversCleanly) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    CheckRunConfig cfg = DurableKvConfig(seed);
    cfg.crash = true;
    cfg.group_commit_txs = 4;
    cfg.checkpoint_every_records = 8;
    const CheckRunResult result = RunCheckedWorkload(cfg);
    EXPECT_TRUE(result.report.ok()) << "seed " << seed << ": " << result.report.Summary();
  }
}

TEST(DurableRuns, CrashSweepRecoversCleanlyUnderFsync) {
  CheckRunConfig cfg = DurableKvConfig(2);
  cfg.crash = true;
  cfg.durability = DurabilityMode::kFsync;
  const CheckRunResult result = RunCheckedWorkload(cfg);
  EXPECT_TRUE(result.report.ok()) << result.report.Summary();
}

TEST(DurableRuns, AckBeforeLogFlushIsFlaggedOnEverySeed) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    CheckRunConfig cfg = DurableKvConfig(seed);
    cfg.crash = true;
    cfg.group_commit_txs = 4;  // deferred acks are the whole point of the fault
    cfg.fault = FaultMode::kAckBeforeLogFlush;
    const CheckRunResult result = RunCheckedWorkload(cfg);
    ASSERT_FALSE(result.report.ok()) << "seed " << seed;
    bool write_ahead_flagged = false;
    for (const OracleViolation& v : result.report.violations) {
      write_ahead_flagged |= v.kind == "ack-before-durable";
    }
    EXPECT_TRUE(write_ahead_flagged)
        << "seed " << seed << ": " << result.report.Summary();
  }
}

TEST(DurableRuns, HistoryJsonCarriesDurabilityEvents) {
  CheckRunConfig cfg = DurableKvConfig(1);
  cfg.checkpoint_every_records = 8;
  const CheckRunResult result = RunCheckedWorkload(cfg);
  ASSERT_TRUE(result.report.ok()) << result.report.Summary();
  const std::string json = result.history.ToJson();
  EXPECT_NE(json.find("\"durability_events\""), std::string::npos);
  EXPECT_NE(json.find("\"flush\""), std::string::npos);
  EXPECT_NE(json.find("\"append\""), std::string::npos);
}

// AnalyzeCrashCut on a hand-built event sequence: the watermark must track
// flushes and checkpoints monotonically, per partition.
TEST(CrashCut, WatermarksFollowFlushesAndCheckpoints) {
  History h;
  h.OnWalAppend(0, 1, 1, 0, {{0x10, 1}});       // seq 1
  h.OnWalFlush(0, 1, 40);                        // seq 2
  h.OnCommitLogAck(0, 1, 1, 0);                  // seq 3
  h.OnWalAppend(1, 2, 1, 0, {{0x20, 2}});        // seq 4
  h.OnWalAppend(0, 3, 1, 1, {{0x18, 3}});        // seq 5
  h.OnWalFlush(0, 2, 72);                        // seq 6
  h.OnCheckpoint(0, 1, 2);                       // seq 7

  const CrashCutReport early = AnalyzeCrashCut(h, 2, 2);
  EXPECT_EQ(early.partitions[0].durable_records, 1u);
  EXPECT_EQ(early.partitions[0].durable_bytes, 40u);
  EXPECT_EQ(early.partitions[1].durable_records, 0u);
  EXPECT_EQ(early.partitions[1].durable_bytes, kWalHeaderBytes);

  const CrashCutReport late = AnalyzeCrashCut(h, 7, 2);
  EXPECT_EQ(late.partitions[0].durable_records, 2u);
  EXPECT_EQ(late.partitions[0].checkpoint_index, 1u);
  EXPECT_EQ(late.partitions[0].checkpoint_records, 2u);
  EXPECT_EQ(late.partitions[1].durable_records, 0u);
}

}  // namespace
}  // namespace tm2c
