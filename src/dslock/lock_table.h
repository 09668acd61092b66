// DS-Lock: the distributed multiple-readers/single-writer revocable lock
// table (Section 3.2).
//
// Each DTM service core owns one LockTable covering its partition of the
// shared address space. The table implements Algorithms 1 and 2: read-lock
// and write-lock acquisition with RAW/WAW/WAR conflict detection, delegating
// winner selection to the contention manager. Revocation (the CM aborting a
// holder) is reported back to the caller as a list of victims so the service
// loop can send the abort notifications.
//
// Correctness note on releases: messages between one app core and one
// service core are FIFO, and an aborted transaction always releases its
// locks before starting its next attempt, so a release can never arrive
// after the same core's re-acquisition. Release of a lock that was already
// revoked is a silent no-op; releasing a write lock checks ownership so a
// stale release cannot clobber a lock that has since moved to another core.
#ifndef TM2C_SRC_DSLOCK_LOCK_TABLE_H_
#define TM2C_SRC_DSLOCK_LOCK_TABLE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cm/contention_manager.h"
#include "src/common/core_set.h"
#include "src/common/counters.h"
#include "src/runtime/message.h"

namespace tm2c {

constexpr uint32_t kNoWriter = UINT32_MAX;

// A transaction whose lock was revoked in the requester's favour, plus the
// conflict kind it lost on (for the abort notification and statistics).
struct Victim {
  TxInfo info;
  ConflictKind kind = ConflictKind::kNone;
};

// Outcome of an acquire: either granted (possibly after revoking victims)
// or refused with the conflict kind the requester lost on.
struct AcquireResult {
  ConflictKind refused = ConflictKind::kNone;  // kNone == granted
  // Transactions whose locks were revoked in the requester's favour; the
  // caller must notify each victim core.
  std::vector<Victim> victims;
};

// Outcome of a batched acquire (TryAcquireMany). Grants are all-or-prefix:
// entries are attempted in order and the pass stops at the first refusal,
// so `granted_bitmap` is always PrefixBitmap(granted_count). Granted
// entries stay granted — the requester owns their release (or abort) path.
struct BatchAcquireResult {
  uint64_t granted_bitmap = 0;
  uint32_t granted_count = 0;                  // prefix length
  ConflictKind refused = ConflictKind::kNone;  // why the prefix stopped
  std::vector<Victim> victims;                 // across the whole prefix
};

// Counters for the service-side statistics the benches report, one line
// per counter: X(merge kind, type, name); see src/common/counters.h.
#define TM2C_LOCK_TABLE_STATS_FIELDS(X) \
  X(Sum, uint64_t, read_acquires)       \
  X(Sum, uint64_t, write_acquires)      \
  X(Sum, uint64_t, read_refused)        \
  X(Sum, uint64_t, write_refused)       \
  X(Sum, uint64_t, revocations)         \
  X(Sum, uint64_t, releases)

struct LockTableStats {
  TM2C_COUNTERS(LockTableStats, TM2C_LOCK_TABLE_STATS_FIELDS)
};

class LockTable {
 public:
  LockTable() = default;

  // Algorithm 1: dsl_read_lock. `requester` carries the already-decoded
  // metric. On success the requester is added to the reader set.
  AcquireResult ReadLock(const TxInfo& requester, uint64_t addr, const ContentionManager& cm);

  // Algorithm 2: dsl_write_lock. Checks the writer (WAW) first, then the
  // reader set (WAR); the requester's own read lock does not conflict.
  //
  // `committing` records that the acquisition happened in the owner's
  // commit phase (introspection/debugging metadata). Revocation of
  // commit-phase locks is safe because revocations are also published to
  // the victim's shared-memory abort status word, which the victim checks
  // atomically with its persist (see TxRuntime::TxCommit).
  AcquireResult WriteLock(const TxInfo& requester, uint64_t addr, const ContentionManager& cm,
                          bool committing = false);

  // Prefix acquisition, the one loop behind every lock request (the
  // service's DtmService::Admit): one pass over `addrs` (bit i of
  // `write_bitmap` selects write vs read lock for entry i), stopping at the
  // first refusal (all-or-prefix). The requester's metric has already been
  // decoded once for the whole request; the CM is consulted only for the
  // entries that actually conflict. Duplicate addresses are legal (the
  // second acquisition is a same-core re-acquisition and always succeeds).
  // A mixed bitmap caps `n` at kMaxBatchEntries; a homogeneous one (all
  // zeros or all ones) covers any `n` — the owner-local span has no wire
  // bitmap to fit — and `granted_bitmap` then saturates at 64 bits. An
  // empty request is trivially fully granted.
  BatchAcquireResult TryAcquireMany(const TxInfo& requester, const uint64_t* addrs, uint32_t n,
                                    uint64_t write_bitmap, const ContentionManager& cm,
                                    bool committing = false);

  // Releases. Idempotent; wrong-owner write releases are ignored (see the
  // correctness note above).
  void ReleaseRead(uint32_t core, uint64_t addr);
  void ReleaseWrite(uint32_t core, uint64_t addr);

  // Migration drain pass over [base, base + bytes): revokes every revocable
  // holder (readers, and writers not in their commit phase) and reports
  // them as victims for the caller's notification path. Commit-phase
  // writers are left in place — revoking a committer would waste its whole
  // persisted write set; the drain instead waits for its release. Returns
  // the victims; `remaining` (if non-null) receives the number of entries
  // still held in the range after the pass (0 == drained). Linear in table
  // size: migration is a rare, cold operation.
  std::vector<Victim> DrainRange(uint64_t base, uint64_t bytes, uint64_t* remaining);

  // Entries currently held in [base, base + bytes) — the drain's progress
  // gauge: a migration completes when this reaches zero.
  uint64_t EntriesInRange(uint64_t base, uint64_t bytes) const;

  // Introspection for tests and invariant checks.
  bool HasWriter(uint64_t addr, uint32_t* writer = nullptr) const;
  bool HasReader(uint64_t addr, uint32_t core) const;
  size_t NumEntries() const { return entries_.size(); }
  const LockTableStats& stats() const { return stats_; }

  // Debug/introspection: invokes fn(addr, writer_core_or_kNoWriter,
  // writer_committing, readers) for every entry.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& [addr, entry] : entries_) {
      fn(addr, entry.writer, entry.writer_committing, entry.readers);
    }
  }

  // Invariant check: no entry has both a writer and a non-owner reader, and
  // no entry is empty (empty entries must be erased). Returns true when
  // consistent.
  bool CheckInvariants() const;

 private:
  struct Entry {
    CoreSet readers;
    uint32_t writer = kNoWriter;
    uint64_t writer_epoch = 0;
    bool writer_committing = false;
    // Last-known metadata of each holder, for CM decisions. Readers' info
    // is keyed by core id; the writer's info is stored explicitly.
    std::unordered_map<uint32_t, TxInfo> holder_info;
  };

  void EraseIfEmpty(uint64_t addr, Entry& entry);

  std::unordered_map<uint64_t, Entry> entries_;
  LockTableStats stats_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_DSLOCK_LOCK_TABLE_H_
