// Application-side transactional runtime (Section 3.3).
//
// One TxRuntime per application core. Transactions are written as lambdas
// over a Tx handle:
//
//   TxRuntime rt(env, config, address_map);
//   rt.Execute([&](Tx& tx) {
//     uint64_t v = tx.Read(account_a);
//     tx.Write(account_a, v - 10);
//     tx.Write(account_b, tx.Read(account_b) + 10);
//   });
//
// Reads are visible: the read lock is acquired from the responsible DTM
// node before the shared-memory read (Algorithm 4). Writes are deferred:
// buffered locally and persisted at commit after (lazily) acquiring the
// write locks (Algorithm 3); an eager write-lock mode exists as an
// ablation. Aborts restart the body; the body must therefore be free of
// side effects other than tx.Read/tx.Write (the paper's model).
//
// Elastic transactions (Section 6) are selected by TmConfig::tx_mode:
// kElasticEarly keeps only a sliding window of read locks, sending an early
// release for older ones; kElasticRead takes no read locks at all and
// value-validates the window instead.
//
// Control-flow contract: aborts and end-of-run teardown are delivered by
// exception (TxAbortException, Fiber::Unwound) THROUGH the transaction
// body. A body may catch its own exception types, but must never swallow
// these with a catch-all: the runtime detects both swallows and treats
// them as fatal programming errors (see tests/check_test.cc).
#ifndef TM2C_SRC_TM_TX_RUNTIME_H_
#define TM2C_SRC_TM_TX_RUNTIME_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/runtime/core_env.h"
#include "src/tm/address_map.h"
#include "src/tm/config.h"
#include "src/tm/dtm_service.h"
#include "src/tm/stats.h"
#include "src/tm/trace.h"

namespace tm2c {

// Internal control-flow signal for aborts. Thrown only by the runtime and
// caught by Execute's retry loop; application code must not catch it.
struct TxAbortException {
  ConflictKind reason = ConflictKind::kNone;
};

class TxRuntime;

// Handle passed to transaction bodies.
class Tx {
 public:
  uint64_t Read(uint64_t addr);
  void Write(uint64_t addr, uint64_t value);

  // Visible-read batch: acquires the read locks for every address in
  // `addrs`, grouped by responsible node and flushed as kBatchAcquire
  // messages of at most TmConfig::max_batch entries, then performs the
  // shared-memory reads. With TmConfig::pipeline_depth > 1 the per-node
  // batches are issued before any reply is awaited, overlapping the round
  // trips. Semantically identical to calling Read() per address under
  // TxMode::kNormal; the elastic modes and max_batch == 1 fall back to
  // exactly that.
  std::vector<uint64_t> ReadMany(const std::vector<uint64_t>& addrs);

  // Asynchronous read-lock prefetch: issues the batch acquisitions for
  // `addrs` like ReadMany but returns without waiting for the replies (up
  // to pipeline_depth - 1 may stay outstanding) and without performing the
  // shared-memory reads, letting the body overlap acquisition with
  // compute. A later Read()/ReadMany() of a prefetched address waits for
  // its request to resolve; a refused prefetch aborts the transaction at
  // the next transactional operation. No-op under the elastic modes and
  // with max_batch == 1 (scalar semantics have nothing to overlap);
  // pipeline_depth == 1 degenerates to the synchronous ReadMany
  // acquisition without the reads.
  void Prefetch(const std::vector<uint64_t>& addrs);

 private:
  friend class TxRuntime;
  explicit Tx(TxRuntime* rt) : rt_(rt) {}
  TxRuntime* rt_;
};

class TxRuntime {
 public:
  // `local_service` must be non-null in the multitasked deployment: it is
  // used to serve incoming DTM requests while this core waits for its own
  // responses and to process self-addressed requests synchronously.
  TxRuntime(CoreEnv& env, const TmConfig& config, const AddressMap& map,
            DtmService* local_service = nullptr);

  // Runs `body` as one transaction, retrying on aborts until it commits.
  void Execute(const std::function<void(Tx&)>& body);

  // Like Execute but gives up after `max_attempts` attempts. Returns true
  // on commit. Used by the livelock/starvation property tests.
  bool TryExecute(const std::function<void(Tx&)>& body, uint64_t max_attempts);

  // Drains pending inbox messages: records abort notifications for the
  // running attempt and (in the multitasked deployment) serves incoming DTM
  // requests. Called automatically at every transaction start; long-running
  // non-transactional phases may call it explicitly to model a coroutine
  // yield point.
  void ServePending();

  // Asks the current owner of the exact registered owned range [base,
  // base + bytes) to migrate it to `target_partition`. Fire-and-forget and
  // idempotent: a stale request (the range already moved, or a drain is
  // already open) is ignored by the owner. Completion surfaces as a
  // kOwnershipUpdate broadcast (counted in TxStats::ownership_updates) and,
  // in between, as retryable kMigrating refusals. Must be called outside a
  // transaction.
  void RequestMigration(uint64_t base, uint64_t bytes, uint32_t target_partition);

  // Privatization barrier (Section 8): blocks until every application core
  // has reached its matching barrier call, implemented with the message
  // paths among the application cores — after it returns, all transactions
  // started before the barrier have completed on every core, so data can
  // safely be accessed non-transactionally. Must be called outside a
  // transaction, the same number of times on every application core.
  void PrivatizationBarrier();

  TxStats& stats() { return stats_; }
  const TmConfig& config() const { return config_; }
  CoreEnv& env() { return env_; }

  // Attaches the execution-trace recorder (verification harnesses only;
  // see src/tm/trace.h for the single-threaded-backend caveat).
  void set_trace(TxTraceSink* trace) { trace_ = trace; }

  // CM bookkeeping, exposed for tests.
  uint64_t commits_count() const { return commits_count_; }
  SimTime effective_tx_time() const { return effective_tx_time_; }

 private:
  friend class Tx;

  // Transactional wrappers (Algorithms 3-4).
  uint64_t TxRead(uint64_t addr);
  std::vector<uint64_t> TxReadMany(const std::vector<uint64_t>& addrs);
  void TxPrefetch(const std::vector<uint64_t>& addrs);
  void TxWrite(uint64_t addr, uint64_t value);
  void TxCommit();

  uint64_t ReadNormal(uint64_t addr, bool elastic_early);
  uint64_t ReadElasticValidated(uint64_t addr);
  void ValidateWindowOrAbort();

  void BeginAttempt();
  [[noreturn]] void AbortSelf(ConflictKind reason);
  // Durability (dedicated deployment only): after the write-back persist
  // and before releasing the write locks, ships the persisted (addr,
  // value) pairs to each owner partition's service as one kCommitLog and
  // waits for every kCommitLogAck. Holding the locks across the wait makes
  // per-address record order equal persist order.
  void LogCommitDurable();
  void ReleaseAllLocks();
  void CheckPendingAbort();
  // Fatal at the first transactional op after a contract violation: the
  // body swallowed Fiber::Unwound (the calling fiber is being unwound) or
  // TxAbortException (an abort is in flight for this attempt) with a
  // catch(...).
  void CheckBodyContract() const;

  // Sends a request to a service; a self-addressed one (multitasked
  // deployment) is served synchronously and its response returned — an
  // empty Message for the other transports and for requests without one.
  Message SendRequest(uint32_t dst, Message msg);
  uint64_t WireMetric();

  // Handles one inbox message that is not the reply its caller waits for:
  // abort notifications (recorded for the running attempt), privatization
  // barrier tokens, ownership updates, pipelined kBatchReply completions,
  // and — multitasked deployment — DTM requests for the local partition.
  // Every wait loop of the runtime funnels its other traffic through here.
  void DispatchInbox(const Message& msg);

  // Acquisition. Every wire lock request is a kBatchAcquire issued without
  // waiting for its reply; the in-flight table, searched by a per-runtime
  // request id, matches interleaved replies back to their requests. At most
  // TmConfig::pipeline_depth group requests are outstanding at once;
  // pipeline_depth == 1 reproduces the lockstep request/reply sequence —
  // and its statistics — bit for bit.
  struct InFlightAcquire {
    uint64_t request_id = 0;
    std::vector<uint64_t> stripes;  // the request's entries, in order
    bool is_write = false;
    SimTime issue_start = 0;  // local clock at issue, for acquire_time
  };

  // Issues one request for `stripes[0..len)` towards `node` and returns
  // its request id.
  // `batched` requests are chunks of a max_batch > 1 group: they carry an
  // address list and count as batch messages; any other request has one
  // entry and travels in the 5-word form. Self-addressed requests
  // (multitasked deployment) resolve before this returns.
  uint64_t IssueBatch(uint32_t node, const uint64_t* stripes, uint32_t len, bool is_write,
                      bool committing, bool batched);
  // The live slot holding `request_id`, or nullptr once it has completed.
  InFlightAcquire* FindInFlight(uint64_t request_id);
  // Records a kBatchReply: the granted prefix enters the held-lock sets
  // immediately (an abort releases it with everything else — the protocol
  // is all-or-prefix, no service-side rollback); a refusal is noted in
  // pending_refusal_ for the caller to act on, and in last_completion_.
  void CompleteBatch(const Message& rsp);
  // The one reply pump: blocks until one in-flight request completes,
  // dispatching everything else that arrives meanwhile.
  void WaitOneReply();
  void DrainInFlight();
  // Blocks until the prefetch covering `stripe` (if any) has resolved.
  void WaitForStripe(uint64_t stripe);
  // Issues every per-node group, up to pipeline_depth requests in flight
  // (one at a time when unbatched). Owner-local groups take the fast path
  // instead of the wire. `prefetch` registers each wire request's stripes
  // in prefetch_pending_. Stops issuing at the first recorded refusal.
  void IssueGroups(const std::map<uint32_t, std::vector<uint64_t>>& by_node, bool is_write,
                   bool committing, bool prefetch);
  // IssueGroups, then drains the in-flight table; the first refusal
  // aborts.
  void AcquireGroupsOrAbort(const std::map<uint32_t, std::vector<uint64_t>>& by_node,
                            bool is_write, bool committing);
  // Groups by responsible node the stripes of `addrs` that still need a
  // read lock: a buffered write, a cached read or a held lock covers its
  // address, and duplicates collapse to one entry. A stripe with a prefetch
  // in flight is skipped (`skip_prefetched`) or waited for.
  std::map<uint32_t, std::vector<uint64_t>> GroupReadStripes(const std::vector<uint64_t>& addrs,
                                                             bool skip_prefetched);
  // A lone acquisition (Read, eager write): a one-entry request that waits
  // for its own reply; a refusal aborts.
  void AcquireOneOrAbort(uint64_t stripe, bool is_write, bool committing);

  // Owner-local fast path: this core is the responsible node for the
  // stripe and TmConfig::local_fast_path is on — call the local service's
  // Admit directly (same CM arbitration and revocation semantics, zero
  // messages). A refusal aborts at once.
  bool LocalFastPathEligible(uint32_t node) const;
  void LocalAcquireSpanOrAbort(const std::vector<uint64_t>& stripes, bool is_write,
                               bool committing);
  // Enters the granted prefix of `stripes` into the held-lock sets.
  void RecordGrants(const std::vector<uint64_t>& stripes, size_t granted, bool is_write);

  CoreEnv& env_;
  TmConfig config_;
  AddressMap map_;
  DtmService* local_service_;
  Rng backoff_rng_;

  // Per-attempt state.
  uint64_t current_epoch_ = 0;
  bool in_tx_ = false;
  bool abort_thrown_ = false;  // a TxAbortException is in flight for this attempt
  bool pending_abort_ = false;
  ConflictKind pending_abort_kind_ = ConflictKind::kNone;
  SimTime attempt_start_local_ = 0;
  SimTime tx_start_local_ = 0;  // fixed across retries (Offset-Greedy rule a)
  std::unordered_map<uint64_t, uint64_t> write_buffer_;  // addr -> value
  std::vector<uint64_t> write_order_;                    // insertion order
  std::unordered_set<uint64_t> read_locks_;              // stripes held
  std::vector<uint64_t> read_lock_order_;                // for early release
  std::unordered_map<uint64_t, uint64_t> read_cache_;    // addr -> value
  std::unordered_set<uint64_t> write_locks_;             // stripes held
  std::deque<std::pair<uint64_t, uint64_t>> validation_window_;  // elastic-read
  // elastic-early: stripes whose read lock was early-released, with the
  // value read under the lock. A later write to one of these re-acquires
  // the lock and validates the value (the write depends on that read).
  std::unordered_map<uint64_t, uint64_t> early_released_values_;
  // elastic-read: last value read per address, for commit-time validation
  // of written locations.
  std::unordered_map<uint64_t, uint64_t> elastic_read_values_;

  // Acquisition state. The request id counter spans attempts (a
  // stale reply can never match a live request: every abort path drains
  // the in-flight table before releasing locks); pending_refusal_ holds
  // the first refusal observed by a completion until an abort consumes it;
  // prefetch_pending_ maps a prefetched stripe to the request that will
  // deliver its lock.
  uint64_t next_request_id_ = 0;
  // inflight_[0, inflight_live_) are the outstanding requests; the slots
  // past them are spares kept for reuse, so a lone Read() allocates
  // nothing and a slot's `stripes` keeps its capacity.
  std::vector<InFlightAcquire> inflight_;
  size_t inflight_live_ = 0;
  ConflictKind pending_refusal_ = ConflictKind::kNone;
  // The most recent completion: (request id, its refusal or kNone). A lone
  // acquisition reads its own outcome here — pending_refusal_ may already
  // name an earlier prefetch's refusal.
  std::pair<uint64_t, ConflictKind> last_completion_{0, ConflictKind::kNone};
  std::unordered_map<uint64_t, uint64_t> prefetch_pending_;  // stripe -> request id

  // Privatization barrier state: generation counter and early arrivals
  // from cores already in a later generation.
  uint64_t barrier_generation_ = 0;
  std::unordered_map<uint64_t, uint32_t> barrier_arrivals_;

  // Per-core CM metrics.
  uint64_t attempt_counter_ = 0;
  uint64_t commits_count_ = 0;        // Wholly priority
  SimTime effective_tx_time_ = 0;     // FairCM priority
  uint64_t consecutive_aborts_ = 0;   // Back-off-Retry state

  TxTraceSink* trace_ = nullptr;
  TxStats stats_;
};

inline uint64_t Tx::Read(uint64_t addr) { return rt_->TxRead(addr); }
inline void Tx::Write(uint64_t addr, uint64_t value) { rt_->TxWrite(addr, value); }
inline std::vector<uint64_t> Tx::ReadMany(const std::vector<uint64_t>& addrs) {
  return rt_->TxReadMany(addrs);
}
inline void Tx::Prefetch(const std::vector<uint64_t>& addrs) { rt_->TxPrefetch(addrs); }

}  // namespace tm2c

#endif  // TM2C_SRC_TM_TX_RUNTIME_H_
