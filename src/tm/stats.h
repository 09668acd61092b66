// Per-core transaction statistics.
#ifndef TM2C_SRC_TM_STATS_H_
#define TM2C_SRC_TM_STATS_H_

#include <cstdint>

#include "src/common/counters.h"
#include "src/sim/time.h"

namespace tm2c {

// One line per counter: X(merge kind, type, name); see src/common/counters.h.
#define TM2C_TX_STATS_FIELDS(X)                                                 \
  X(Sum, uint64_t, commits)                                                     \
  X(Sum, uint64_t, aborts)                                                      \
  X(Sum, uint64_t, raw_conflicts)                                               \
  X(Sum, uint64_t, waw_conflicts)                                               \
  X(Sum, uint64_t, war_conflicts)                                               \
  X(Sum, uint64_t, notify_aborts) /* aborted by a remote CM revocation */       \
  X(Sum, uint64_t, reads)                                                       \
  X(Sum, uint64_t, writes)                                                      \
  X(Sum, uint64_t, messages_sent)                                               \
  X(Sum, uint64_t, early_releases)                                              \
  X(Sum, uint64_t, validation_failures) /* elastic-read */                      \
  X(Sum, SimTime, busy_time)            /* local time spent inside attempts */  \
  X(Max, uint64_t, max_attempts_per_tx) /* worst-case retries of a single tx */ \
  /* Lock-acquisition cost: stripes requested from a DTM node (granted or       \
     refused), batch messages among those requests, and the local time          \
     spent waiting for acquisition responses. acquire_time / lock_acquires      \
     is the per-stripe mean acquire latency the batching ablation tracks. */    \
  X(Sum, uint64_t, lock_acquires)                                               \
  X(Sum, uint64_t, batch_messages)                                              \
  X(Sum, SimTime, acquire_time)                                                 \
  /* Owner-local fast path split: stripes acquired by calling the caller's      \
     own LockTable directly (zero messages) vs through the message              \
     protocol. local_acquires + remote_acquires == lock_acquires always;        \
     with the fast path off (the default) everything counts as remote. */       \
  X(Sum, uint64_t, local_acquires)                                              \
  X(Sum, uint64_t, remote_acquires)                                             \
  /* Durability: kCommitLog messages sent at commit time and the local time     \
     spent waiting for their acks (zero with durability off). */                \
  X(Sum, uint64_t, commit_log_msgs)                                             \
  X(Sum, SimTime, commit_log_wait)                                              \
  /* Service-side pushback: attempts aborted because the stripe's range was     \
     draining for migration (kMigrating) or the service shed load               \
     (kOverload), and kOwnershipUpdate notifications this runtime consumed. */  \
  X(Sum, uint64_t, migrating_aborts)                                            \
  X(Sum, uint64_t, overload_aborts)                                             \
  X(Sum, uint64_t, ownership_updates)                                           \
  /* In-flight pipeline occupancy: bucket min(depth_at_issue, 8) - 1 counts     \
     one kBatchAcquire issued while depth_at_issue requests (itself             \
     included) were outstanding. Under the lockstep depth-1 path every          \
     batch lands in bucket 0. Local fast-path span calls are never in           \
     flight and do not count. */                                                \
  X(Hist, CounterHist<8>, inflight_depth_hist)

struct TxStats {
  TM2C_COUNTERS(TxStats, TM2C_TX_STATS_FIELDS)

  double CommitRate() const {
    const uint64_t attempts = commits + aborts;
    return attempts == 0 ? 1.0 : static_cast<double>(commits) / static_cast<double>(attempts);
  }
};

}  // namespace tm2c

#endif  // TM2C_SRC_TM_STATS_H_
