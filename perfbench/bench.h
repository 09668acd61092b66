// Shared types of the TM2C benchmark (see README.md in this directory).
//
// The benchmark drives the stores from outside, through TxStoreApi on a
// TmSystem, one store call per operation, and reports end-to-end metrics
// (untraced runs) or the per-layer ledger (traced runs). Everything here
// uses only the library's public headers.
#ifndef TM2C_PERFBENCH_BENCH_H_
#define TM2C_PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/backend.h"
#include "src/tm/config.h"

namespace tm2c {
namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Smoke-test sizes: a few hundred keys, so every key is touched.
  bool tiny = false;
  // Corrupts one loaded store word before the run; the checks must
  // catch it (the smoke test's planted fault).
  bool plant_fault = false;
};

// One named workload. Sizes are the full-scale ones; Options::tiny
// shrinks the key count.
struct WorkloadSpec {
  const char* name;
  BackendKind backend;
  uint32_t cores;          // total modelled or native cores
  uint32_t service_cores;  // DTM partitions
  bool ordered;            // OrderedIndex (true) or hash KvStore
  uint64_t keys;
  uint32_t value_words;
  double theta;  // 0 = uniform, else zipfian skew
  // Operation mix: get_pct Gets, rmw_pct RMWs, the rest Scan(scan_len).
  uint32_t get_pct;
  uint32_t rmw_pct;
  uint32_t scan_len;
  DurabilityMode durability;
  uint32_t group_commit_txs;
  uint32_t shmem_mb;  // shared-memory region of the TmSystem
  // Host threads that spin for the whole measured phase.
  uint32_t busy_threads;
};

const WorkloadSpec* FindWorkload(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // One line per failed check kind (the first few instances).
  std::vector<std::string> failures;
  // Extra lines printed before the result (sample counts, per-round
  // values, the host block).
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& what, uint64_t count = 1) {
    failed += count;
    if (failures.size() < 16) {
      failures.push_back(what);
    }
  }
};

// Runs one workload for opts.seconds and fills `result`.
void RunWorkload(const WorkloadSpec& spec, const Options& opts, Result* result);

// Steady-clock nanoseconds.
uint64_t NowNs();

// Nearest-rank percentile of `v` (sorted in place), q in [0, 1].
double Percentile(std::vector<float>* v, double q);

// Median of a small vector (copied).
double Median(std::vector<double> v);

// Resident-set high-water mark of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench
}  // namespace tm2c

#endif  // TM2C_PERFBENCH_BENCH_H_
