// Backend selection: the deterministic simulator, real OS threads, or
// partition server processes.
//
// The runtime backends (SimSystem, ThreadSystem, ProcessSystem) are built
// from one SystemConfig and expose the same surface — install per-core
// mains, run them, and hand out CoreEnv/shared-memory handles — so
// everything above the transport (TmSystem, the benches, the examples) can
// be written once and pointed at any of them. SystemBackend is that
// surface, and it owns what every backend needs alike: the deployment
// plan, the shared memory and its allocator. The simulator reports
// simulated time; the native backends report wall-clock time, which is
// what makes native bench rows directly comparable to real hardware.
#ifndef TM2C_SRC_RUNTIME_BACKEND_H_
#define TM2C_SRC_RUNTIME_BACKEND_H_

#include <memory>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/runtime/core_env.h"
#include "src/sim/engine.h"

namespace tm2c {

enum class BackendKind : uint8_t {
  kSim = 0,        // discrete-event simulator: deterministic, modelled time
  kThreads = 1,    // one OS thread per core: real concurrency, wall-clock time
  kProcesses = 2,  // partition servers as forked processes over sockets
};

inline const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSim:
      return "sim";
    case BackendKind::kThreads:
      return "threads";
    case BackendKind::kProcesses:
      return "processes";
  }
  return "?";
}

inline BackendKind BackendKindByName(const std::string& name) {
  if (name.empty() || name == "sim") {
    return BackendKind::kSim;
  }
  if (name == "threads") {
    return BackendKind::kThreads;
  }
  if (name == "processes") {
    return BackendKind::kProcesses;
  }
  TM2C_FATAL("unknown backend (expected sim|threads|processes)");
}

// Topology, deployment, sizing and per-backend options of one runtime
// system. Every backend takes it whole; each reads the fields it needs and
// ignores the rest.
struct SystemConfig {
  // The modelled platform: the simulator's latencies and clock rate; on the
  // native backends the topology behind memory placement and the clock rate
  // that converts Compute cycles into a real wait.
  PlatformDesc platform;
  uint32_t num_cores = 48;
  uint32_t num_service = 24;
  // The process backend supports only kDedicated (a partition server
  // process cannot interleave an application task).
  DeployStrategy strategy = DeployStrategy::kDedicated;
  uint64_t shmem_bytes = 16ull << 20;

  // --- simulator only ---
  uint64_t seed = 1;
  // Per-core clock offsets are drawn uniformly from [0, clock_skew_max_us]
  // (constant skew; no global clock exists on the SCC).
  double clock_skew_max_us = 50.0;
  // Optional per-core drift, uniform in [-ppm, +ppm]. Zero by default; the
  // Offset-Greedy skew ablation turns it up.
  double clock_drift_ppm = 0.0;
  // Schedule-exploration knobs (src/check/): same-instant tie shuffling in
  // the engine, per-message delay jitter, stalled/duplicated inbox polls.
  // Off by default; the chaos harness turns them on per seed. Per-pair FIFO
  // delivery is preserved under every setting (jittered arrivals are
  // clamped to stay behind the pair's previous arrival).
  ChaosConfig chaos;

  // --- thread backend only ---
  // Pin core i's thread to host CPU (i mod hardware_concurrency). Off by
  // default: pinning helps on dedicated many-core hosts and hurts badly on
  // oversubscribed CI runners.
  bool pin_threads = false;

  // --- process backend only ---
  // Directory for the per-partition, per-generation socket files
  // (part<p>.g<gen>.sock) and, when durability is on, the per-partition
  // WAL backing files. Created if missing. Required there: paths must be
  // unique per run, so callers pass a fresh (temp) directory.
  std::string run_dir;
};

class SystemBackend {
 public:
  virtual ~SystemBackend() = default;

  SystemBackend(const SystemBackend&) = delete;
  SystemBackend& operator=(const SystemBackend&) = delete;

  // Installs the program run by `core`; must happen before Run.
  virtual void SetCoreMain(uint32_t core, CoreMain main) = 0;

  // Runs every core's main. The simulator stops at `until` (simulated
  // time) or when all events drain; the thread backend runs every main to
  // completion and ignores `until` (mains bound their own work, service
  // loops exit on kShutdown). Returns the elapsed time — simulated or
  // wall-clock — in picoseconds.
  virtual SimTime Run(SimTime until) = 0;

  // Delivers kShutdown to `core` from outside any core context (the thread
  // backend's way of ending a blocked service loop). The simulator has no
  // use for it: a core blocked in Recv with no events left simply ends the
  // run.
  virtual void RequestShutdown(uint32_t core) { (void)core; }

  virtual CoreEnv& env(uint32_t core) = 0;

  // True for the simulator: time is modelled, runs are deterministic, and
  // one host thread runs everything.
  virtual bool is_simulated() const = 0;

  const SystemConfig& config() const { return config_; }
  const DeploymentPlan& deployment() const { return plan_; }
  SharedMemory& shmem() { return *shmem_; }
  ShmAllocator& allocator() { return *allocator_; }

 protected:
  // Builds the plan, the shared memory and its allocator that `config`
  // describes. `interprocess` maps the memory MAP_SHARED, so forked
  // children address the same words (the process backend).
  SystemBackend(SystemConfig config, bool interprocess)
      : config_(std::move(config)),
        plan_(config_.num_cores, config_.num_service, config_.strategy),
        shmem_(std::make_unique<SharedMemory>(config_.shmem_bytes, interprocess)),
        allocator_(std::make_unique<ShmAllocator>(shmem_.get(), Topology(config_.platform))) {}

 private:
  const SystemConfig config_;
  const DeploymentPlan plan_;
  const std::unique_ptr<SharedMemory> shmem_;
  const std::unique_ptr<ShmAllocator> allocator_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_BACKEND_H_
