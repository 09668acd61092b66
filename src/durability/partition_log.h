// Per-partition durability: the commit log plus periodic checkpoints.
//
// Each DS-Lock partition (one DtmService) owns one PartitionDurability.
// The service appends one CommitRecord per committed transaction that
// wrote into the partition — payload layout
//
//   [core, epoch, n, addr0, val0, ..., addr_{n-1}, val_{n-1}]
//
// — in lock order (the committer holds its write locks until the append
// is acknowledged, so per-address record order equals persist order), and
// flushes in groups (see TmConfig::group_commit_txs). A checkpoint is a
// sorted (addr, value) snapshot of every partition-owned word, maintained
// incrementally as a shadow map so taking one never reads the live slab;
// checkpoint 0 is the post-load initial image, later ones are cut every
// checkpoint_every_records appends. LogCommit() only *reports* that a
// checkpoint is due: the service flushes first and then calls
// TakeCheckpoint(), so a checkpoint never covers unflushed records and
// the durable watermark stays monotone.
//
// Recovery replays checkpoint + log suffix: pick the newest checkpoint
// whose records_covered is at or below the durable record count, apply
// its image, then replay the records [records_covered, durable) in index
// order (see KvStore::Recover).
#ifndef TM2C_SRC_DURABILITY_PARTITION_LOG_H_
#define TM2C_SRC_DURABILITY_PARTITION_LOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/durability/wal.h"
#include "src/tm/config.h"
#include "src/tm/trace.h"

namespace tm2c {

// One commit's durable effect, as framed into the WAL.
struct CommitRecord {
  uint32_t core = 0;
  uint64_t epoch = 0;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;  // (addr, value), lock order
};

// Decodes a WAL record payload; false on a malformed layout.
bool ParseCommitRecord(const WalRecord& record, CommitRecord* out);

// A sorted (addr, value) snapshot of the partition's owned words.
struct CheckpointImage {
  uint64_t index = 0;            // 0 = post-load initial image
  uint64_t records_covered = 0;  // log records the image subsumes
  std::vector<std::pair<uint64_t, uint64_t>> pairs;  // sorted by addr
};

class PartitionDurability {
 public:
  struct Options {
    DurabilityMode mode = DurabilityMode::kBuffered;
    uint64_t checkpoint_every_records = 0;  // 0 = log only, never checkpoint
    std::string path;                       // optional WAL file backing
  };

  PartitionDurability(uint32_t partition, Options options);

  void set_trace(TxTraceSink* trace) { trace_ = trace; }

  // Load-phase capture of one owned word (before SealInitialCheckpoint).
  void CaptureInitial(uint64_t addr, uint64_t value);

  // Freezes the captured image as checkpoint 0 (no trace event: it is the
  // pre-run baseline, not a runtime durability action).
  void SealInitialCheckpoint();

  // Appends one commit record (emits OnWalAppend) from `num_words` flat
  // words [addr, value, addr, value, ...], the layout a kCommitLog
  // carries. Returns true when a periodic checkpoint is due — the caller
  // must Flush() first, then TakeCheckpoint().
  bool LogCommit(uint32_t core, uint64_t epoch, const uint64_t* words, size_t num_words);
  // The same record from (addr, value) pairs, for hand-built logs.
  bool LogCommit(uint32_t core, uint64_t epoch,
                 const std::vector<std::pair<uint64_t, uint64_t>>& pairs);

  // Advances the durable watermark over every appended record (emits
  // OnWalFlush when anything was unflushed). Returns the number of
  // records made durable by this call.
  uint64_t Flush();

  // Snapshots the shadow map as the next checkpoint (emits OnCheckpoint).
  // Pre-condition: no unflushed records (the caller flushed first).
  void TakeCheckpoint();

  // Flushes the WAL backing file's stdio buffer without advancing the
  // durable watermark (see Wal::FlushFile — the pre-fork hazard).
  void FlushBackingFile() { wal_.FlushFile(); }

  // (core, epoch) -> record index for every commit that survived a
  // RecoverFromBackingFile.
  using RecoveredCommits = std::map<std::pair<uint32_t, uint64_t>, uint64_t>;

  // Restart recovery for the process backend: a freshly activated standby
  // server calls this on the PartitionDurability it inherited at fork
  // time, after its predecessor was killed mid-run. Rebuilds the Wal from
  // the backing file's valid prefix (truncating any torn tail), replays
  // the kept records over the inherited shadow image, and emits
  // OnWalTruncate with the surviving record count — the oracle's signal
  // that appends beyond it were legitimately lost. Returns each kept
  // commit's (core, epoch) -> record index so a retransmitted kCommitLog
  // can be acknowledged with its original index instead of re-appended.
  RecoveredCommits RecoverFromBackingFile();

  uint32_t partition() const { return partition_; }
  DurabilityMode mode() const { return options_.mode; }
  const Wal& wal() const { return wal_; }
  uint64_t unflushed_records() const { return wal_.unflushed_records(); }
  const std::vector<CheckpointImage>& checkpoints() const { return checkpoints_; }

 private:
  uint32_t partition_;
  Options options_;
  Wal wal_;
  TxTraceSink* trace_ = nullptr;
  // Live image of the partition's owned words, updated on every append so
  // checkpoints are O(shadow) with no slab access.
  std::unordered_map<uint64_t, uint64_t> shadow_;
  std::vector<CheckpointImage> checkpoints_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_DURABILITY_PARTITION_LOG_H_
