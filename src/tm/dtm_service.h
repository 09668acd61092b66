// The DTM service: one instance per service core (Figure 1).
//
// Wraps a LockTable partition and a contention manager behind the wire
// protocol. Every lock request, whatever its transport, goes through one
// admission pipeline, Admit(): a kBatchAcquire from the inbox (one entry or
// many), a self-addressed one handed over by HandleLocal(), and the
// owner-local fast path's direct span call. The dedicated deployment runs
// RunLoop() as the core's main; the multitasked deployment calls
// HandleMessage() from the application task's wait loops, and
// HandleLocal() for requests whose responsible node is the requesting core
// itself.
#ifndef TM2C_SRC_TM_DTM_SERVICE_H_
#define TM2C_SRC_TM_DTM_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cm/contention_manager.h"
#include "src/common/counters.h"
#include "src/dslock/lock_table.h"
#include "src/runtime/core_env.h"
#include "src/tm/address_map.h"
#include "src/tm/config.h"
#include "src/tm/trace.h"

namespace tm2c {

class PartitionDurability;

// One line per counter: X(merge kind, type, name); see src/common/counters.h.
// The list order is also the process backend's exit-report layout.
#define TM2C_DTM_SERVICE_STATS_FIELDS(X)                                                  \
  X(Sum, uint64_t, requests)                                                              \
  X(Sum, uint64_t, releases)                                                              \
  X(Sum, uint64_t, notifications_sent)                                                    \
  X(Sum, uint64_t, stale_requests_refused)                                                \
  X(Sum, uint64_t, batch_requests)        /* multi-entry (address-list) kBatchAcquires */ \
  X(Sum, uint64_t, batch_entries)         /* addresses across those requests */           \
  X(Sum, uint64_t, misrouted_refused)     /* batch entries outside this partition */      \
  X(Sum, uint64_t, local_direct_requests) /* owner-local fast-path Admit calls */         \
  X(Sum, uint64_t, local_direct_entries)  /* stripes across those spans */                \
  X(Sum, uint64_t, commit_records)        /* kCommitLog records appended */               \
  X(Sum, uint64_t, log_flushes)           /* group-commit flushes performed */            \
  X(Sum, uint64_t, migrations_started)    /* drain windows opened on this core */         \
  X(Sum, uint64_t, migrations_completed)  /* directory flips performed */                 \
  X(Sum, uint64_t, migrating_refused)     /* acquires refused: range draining */          \
  X(Sum, uint64_t, overload_refused)      /* acquires refused: inbox high water */

struct DtmServiceStats {
  TM2C_COUNTERS(DtmServiceStats, TM2C_DTM_SERVICE_STATS_FIELDS)
};

class DtmService {
 public:
  // `map`, when provided, lets the service refuse batch entries that hash
  // to a different partition (a misrouted request would otherwise corrupt
  // two nodes' views of the same stripe). TmSystem always passes it; bare
  // harnesses may skip the check.
  DtmService(CoreEnv& env, const TmConfig& config, const AddressMap* map = nullptr);

  // Dedicated-deployment main: serve until the engine stops the run or a
  // kShutdown message arrives.
  void RunLoop();

  // Handles one DTM message; responses and abort notifications are sent
  // through the environment. Returns false when the message is not a DTM
  // request (the caller owns it).
  bool HandleMessage(const Message& msg);

  // Synchronous processing of a request originating from this very core
  // (multitasked deployment). Notifications to third parties are still
  // sent; the response is returned directly.
  Message HandleLocal(const Message& request);

  // One lock request, as every transport hands it to Admit().
  struct AdmitRequest {
    uint32_t core = 0;  // requester
    uint64_t epoch = 0;
    uint64_t metric_wire = 0;  // CM metric as sent; decoded by the service
    const uint64_t* addrs = nullptr;
    uint32_t n = 0;
    bool is_write = false;
    bool committing = false;  // commit-phase write acquisition
    // Owner-local fast path: the requesting runtime runs on this very core
    // and called in directly — no Message was built and no coroutine
    // switch is charged. Such a request never queued in the inbox, so
    // admission control does not apply to it.
    bool direct = false;
  };
  struct AdmitResult {
    uint32_t granted = 0;                        // length of the granted prefix
    ConflictKind refused = ConflictKind::kNone;  // why it stopped; kNone == all granted
  };

  // The admission pipeline. Charges the processing cost once for all `n`
  // entries, then refuses, in this order: a request from an attempt this
  // node already revoked (whole), a non-committing request above the inbox
  // high-water mark (whole; inbox transports only), and per entry a
  // stripe this node does not own or one inside an open drain window (the
  // prefix stops there, kMigrating). The routed prefix then takes one
  // all-or-prefix lock-table pass; victims are notified through the normal
  // paths (including the local abort sink). Direct spans may exceed
  // kMaxBatchEntries: they carry no grant bitmap.
  AdmitResult Admit(const AdmitRequest& request);

  // Multitasked deployment: a victim of a revocation can be a transaction
  // running on this very core; the sink delivers the abort locally instead
  // of a self-addressed message.
  void SetLocalAbortSink(std::function<void(uint64_t epoch, ConflictKind kind)> sink) {
    local_abort_sink_ = std::move(sink);
  }

  // Attaches this partition's durability object (dedicated deployment
  // only). Commits then ship their write sets here as kCommitLog messages;
  // the service appends them, group-commits, and acknowledges. The service
  // does not own the object (TmSystem does — checkpoints and the log image
  // outlive the service for recovery).
  void AttachDurability(PartitionDurability* durability);

  // Process-backend restart: the (core, epoch) pairs whose commit records
  // survived in the recovered WAL prefix, mapped to their record index. A
  // retransmitted kCommitLog matching an entry is acknowledged with its
  // original index instead of appended again — the record is already
  // durable, and re-logging it would duplicate it in the replayed log.
  void SetRecoveredCommits(std::map<std::pair<uint32_t, uint64_t>, uint64_t> commits) {
    recovered_commits_ = std::move(commits);
  }

  // Group commit: flushes every appended-but-unflushed record and sends
  // the deferred kCommitLogAck responses. Called when the group fills,
  // when the inbox drains (flush-before-block), at checkpoints and at
  // shutdown. No-op without durability or with nothing unflushed.
  void FlushCommitLog();

  // Horizon quiesce (called by TmSystem after the run ends): makes every
  // appended record durable without modelling service compute — the
  // simulated horizon can freeze the service fiber between an append and
  // the group-commit flush, and the records are already in the log.
  // Deferred acks are dropped, not sent: their committers are frozen past
  // the horizon too, and a post-run ack would be a fabricated event.
  void QuiesceFlush();

  // Opens a drain window for the exact registered range [base,
  // base + bytes): revocable holders are revoked through the normal CM
  // notification path, new acquires touching the range are refused with
  // ConflictKind::kMigrating, and once the lock table holds no entry in
  // the range the ownership directory flips to `target_partition` and a
  // kOwnershipUpdate is broadcast. Ignored when this core is not the
  // range's current owner (a stale request racing a previous migration)
  // or when a drain of the range is already open.
  void BeginMigration(uint64_t base, uint64_t bytes, uint32_t target_partition);

  // True while any migration drain window is open on this service.
  bool migrating() const { return !migrating_out_.empty(); }

  const LockTable& lock_table() const { return table_; }
  const DtmServiceStats& stats() const { return stats_; }

  // Attaches the execution-trace recorder (verification harnesses only);
  // the service reports revocations — and durability events — through it.
  void set_trace(TxTraceSink* trace);

 private:
  struct RemoteCoreState {
    uint64_t aborted_epoch = 0;  // most recent epoch this node revoked
    ConflictKind aborted_kind = ConflictKind::kNone;
  };

  // Wire transport of Admit(): decodes a kBatchAcquire, builds the reply.
  Message ServeAcquire(const Message& msg);
  void HandleCommitLog(const Message& msg);
  void SendCommitLogAck(uint32_t core, uint64_t epoch, uint64_t record_index);
  void HandleRelease(const Message& msg);
  void NotifyVictims(const std::vector<Victim>& victims);
  void ChargeProcessing(uint64_t items);

  // True when `stripe` falls inside a range this service is draining.
  bool MigratingStripe(uint64_t stripe) const;
  // Completes every open drain whose range has emptied: directory flip,
  // kOwnershipUpdate broadcast, trace event. Called after drains and after
  // every release.
  void MaybeCompleteMigrations();
  // Migration policy: tallies the acquire against its owned range (if any)
  // and, every migrate_check_every requests, migrates the hottest
  // above-threshold range to the next partition.
  void NoteAcquiresForPolicy(const uint64_t* addrs, uint32_t n);
  // Per-granted-stripe trace emission (migration-oracle input).
  void TraceGrants(uint32_t requester_core, const uint64_t* addrs, uint32_t n);

  CoreEnv& env_;
  TmConfig config_;
  const AddressMap* map_;
  std::unique_ptr<ContentionManager> cm_;
  LockTable table_;
  std::unordered_map<uint32_t, RemoteCoreState> remote_state_;
  std::function<void(uint64_t, ConflictKind)> local_abort_sink_;
  TxTraceSink* trace_ = nullptr;
  PartitionDurability* durability_ = nullptr;
  // Acks deferred by group commit; drained by FlushCommitLog().
  struct PendingAck {
    uint32_t core;
    uint64_t epoch;
    uint64_t record_index;
  };
  std::vector<PendingAck> pending_acks_;
  // (core, epoch) -> record index of commits that survived a restart's WAL
  // recovery; consumed by their retransmissions (see SetRecoveredCommits).
  std::map<std::pair<uint32_t, uint64_t>, uint64_t> recovered_commits_;
  // Open drain windows: range base -> (bytes, target partition). Usually
  // empty or a single entry; lookups are a bounded map walk.
  struct MigratingRange {
    uint64_t bytes = 0;
    uint32_t target_partition = 0;
  };
  std::map<uint64_t, MigratingRange> migrating_out_;
  // Migration-policy tallies: owned-range base -> acquires since the last
  // policy check, plus the request countdown to the next check.
  std::unordered_map<uint64_t, uint64_t> range_hits_;
  uint32_t policy_countdown_ = 0;
  DtmServiceStats stats_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_TM_DTM_SERVICE_H_
