// Per-layer cost probes of the traced ledger: each times one public
// layer call in isolation on the host clock, sized by the workload that
// ran before it.
#ifndef TM2C_PERFBENCH_LEDGER_H_
#define TM2C_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace tm2c {
namespace perfbench {

struct LedgerInputs {
  // Stripe addresses of the workload's store, spread over its slabs.
  std::vector<uint64_t> lock_addrs;
  // Entries in a workload-sized kBatchAcquire frame.
  uint32_t batch_entries = 1;
  // Payload words of a workload-sized commit record.
  uint32_t record_words = 8;
  // Directory for the fsync probe's log file.
  std::string probe_dir;
  bool tiny = false;
};

// Adds runtime.spsc_hop_ns, runtime.wire_frame_ns, runtime.socket_rtt_us,
// dslock.read_acq_rel_ns, dslock.batch16_acq_rel_ns, cm.decide_ns,
// wal.append_ns and wal.fsync_flush_us to `result`; a probe whose own
// output is wrong counts as a failed check.
void RunLedgerProbes(const LedgerInputs& in, Result* result);

}  // namespace perfbench
}  // namespace tm2c

#endif  // TM2C_PERFBENCH_LEDGER_H_
