#include "src/durability/partition_log.h"

#include <algorithm>

#include "src/common/check.h"

namespace tm2c {

bool ParseCommitRecord(const WalRecord& record, CommitRecord* out) {
  const std::vector<uint64_t>& p = record.payload;
  if (p.size() < 3) {
    return false;
  }
  const uint64_t n = p[2];
  if (p.size() != 3 + 2 * n) {
    return false;
  }
  out->core = static_cast<uint32_t>(p[0]);
  out->epoch = p[1];
  out->pairs.clear();
  out->pairs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    out->pairs.emplace_back(p[3 + 2 * i], p[3 + 2 * i + 1]);
  }
  return true;
}

PartitionDurability::PartitionDurability(uint32_t partition, Options options)
    : partition_(partition),
      options_(std::move(options)),
      wal_(Wal::Options{options_.mode == DurabilityMode::kFsync, options_.path}) {
  TM2C_CHECK(options_.mode != DurabilityMode::kOff);
}

void PartitionDurability::CaptureInitial(uint64_t addr, uint64_t value) {
  TM2C_CHECK_MSG(checkpoints_.empty(), "CaptureInitial after SealInitialCheckpoint");
  shadow_[addr] = value;
}

void PartitionDurability::SealInitialCheckpoint() {
  TM2C_CHECK(checkpoints_.empty() && wal_.appended_records() == 0);
  CheckpointImage image;
  image.index = 0;
  image.records_covered = 0;
  image.pairs.assign(shadow_.begin(), shadow_.end());
  std::sort(image.pairs.begin(), image.pairs.end());
  checkpoints_.push_back(std::move(image));
}

bool PartitionDurability::LogCommit(uint32_t core, uint64_t epoch, const uint64_t* words,
                                    size_t num_words) {
  TM2C_CHECK(num_words >= 2 && num_words % 2 == 0);
  const uint64_t header[3] = {core, epoch, num_words / 2};
  for (size_t i = 0; i < num_words; i += 2) {
    shadow_[words[i]] = words[i + 1];
  }
  const uint64_t record_index = wal_.Append(header, 3, words, num_words);
  if (trace_ != nullptr) {
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    pairs.reserve(num_words / 2);
    for (size_t i = 0; i < num_words; i += 2) {
      pairs.emplace_back(words[i], words[i + 1]);
    }
    trace_->OnWalAppend(partition_, core, epoch, record_index, pairs);
  }
  return options_.checkpoint_every_records > 0 &&
         wal_.appended_records() % options_.checkpoint_every_records == 0;
}

bool PartitionDurability::LogCommit(uint32_t core, uint64_t epoch,
                                    const std::vector<std::pair<uint64_t, uint64_t>>& pairs) {
  std::vector<uint64_t> words;
  words.reserve(2 * pairs.size());
  for (const auto& [addr, value] : pairs) {
    words.push_back(addr);
    words.push_back(value);
  }
  return LogCommit(core, epoch, words.data(), words.size());
}

uint64_t PartitionDurability::Flush() {
  const uint64_t newly_durable = wal_.unflushed_records();
  if (newly_durable == 0) {
    return 0;
  }
  wal_.Flush();
  if (trace_ != nullptr) {
    trace_->OnWalFlush(partition_, wal_.durable_records(), wal_.durable_bytes());
  }
  return newly_durable;
}

PartitionDurability::RecoveredCommits PartitionDurability::RecoverFromBackingFile() {
  wal_.RecoverBackingFile();
  RecoveredCommits recovered;
  const WalReadResult kept = ReadWal(wal_.image());
  TM2C_CHECK(kept.clean() && !kept.torn_tail);
  for (uint64_t i = 0; i < kept.records.size(); ++i) {
    CommitRecord record;
    TM2C_CHECK_MSG(ParseCommitRecord(kept.records[i], &record),
                   "wal recovery: malformed commit record in the valid prefix");
    for (const auto& [addr, value] : record.pairs) {
      shadow_[addr] = value;
    }
    recovered[{record.core, record.epoch}] = i;
  }
  if (trace_ != nullptr) {
    trace_->OnWalTruncate(partition_, wal_.durable_records(), wal_.durable_bytes());
  }
  return recovered;
}

void PartitionDurability::TakeCheckpoint() {
  TM2C_CHECK_MSG(wal_.unflushed_records() == 0,
                 "checkpoint may not cover unflushed records: flush first");
  TM2C_CHECK_MSG(!checkpoints_.empty(), "SealInitialCheckpoint before the run");
  CheckpointImage image;
  image.index = checkpoints_.size();
  image.records_covered = wal_.appended_records();
  image.pairs.assign(shadow_.begin(), shadow_.end());
  std::sort(image.pairs.begin(), image.pairs.end());
  if (trace_ != nullptr) {
    trace_->OnCheckpoint(partition_, image.index, image.records_covered);
  }
  checkpoints_.push_back(std::move(image));
}

}  // namespace tm2c
