// Top-level convenience wiring: a many-core running TM2C.
//
// TmSystem builds the selected runtime backend — the deterministic
// simulator (BackendKind::kSim, the default), real OS threads over
// lock-free SPSC channels (BackendKind::kThreads), or forked partition
// servers (BackendKind::kProcesses) — installs a DtmService
// on every service core (dedicated deployment) or on every core
// (multitasked), and gives each application core a TxRuntime. Benchmarks
// and examples only provide per-app-core bodies; the same body code runs
// unmodified on every backend.
#ifndef TM2C_SRC_TM_TM_SYSTEM_H_
#define TM2C_SRC_TM_TM_SYSTEM_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/durability/partition_log.h"
#include "src/runtime/backend.h"
#include "src/runtime/process_system.h"
#include "src/runtime/sim_system.h"
#include "src/runtime/thread_system.h"
#include "src/tm/address_map.h"
#include "src/tm/dtm_service.h"
#include "src/tm/tx_runtime.h"

namespace tm2c {

struct TmSystemConfig {
  // Topology, platform, deployment, sizing and backend options, handed to
  // the selected backend unchanged (each backend reads the fields it
  // needs; see SystemConfig).
  SystemConfig sim;
  TmConfig tm;
  BackendKind backend = BackendKind::kSim;
};

// The process backend's kHostStats exit report, sent by each partition
// server as it exits cleanly: [lock-table entries, every DtmServiceStats
// field in list order].
std::vector<uint64_t> EncodeExitReport(uint64_t lock_entries, const DtmServiceStats& stats);
// The stats half of an exit report. CHECK-fails on a missing report or one
// of the wrong length.
DtmServiceStats DecodeExitReport(const std::vector<uint64_t>& report);

class TmSystem {
 public:
  explicit TmSystem(TmSystemConfig config);

  // Body run by the `app_index`-th application core (0-based among app
  // cores). Bodies typically loop for a fixed duration:
  //   const SimTime t0 = env.GlobalNow();
  //   while (env.GlobalNow() - t0 < duration) { rt.Execute(...); }
  using AppBody = std::function<void(CoreEnv&, TxRuntime&)>;

  void SetAppBody(uint32_t app_index, AppBody body);
  // Installs the same body on every application core.
  void SetAllAppBodies(const AppBody& body);

  // Runs the system and returns the elapsed time: simulated time under the
  // simulator (bounded by `until`), wall-clock time under threads (where
  // `until` is ignored — bodies bound their own work, and the last
  // finishing app core shuts the service loops down).
  SimTime Run(SimTime until = UINT64_MAX);

  uint32_t num_app_cores() const { return system_->deployment().num_app(); }
  const TxStats& AppStats(uint32_t app_index) const;
  TxStats MergedStats() const;
  // The partition's live DtmService. CHECK-fails under the process
  // backend, where the host's copy is a stale pre-fork image: read
  // counters through ServiceStats() there.
  const DtmService& ServiceAt(uint32_t partition) const;

  // End-of-run invariant: once every application body has completed (all
  // transactions committed or abandoned and their releases processed), no
  // partition may still hold a lock. Returns true when all tables are
  // empty. Meaningless if the run was cut mid-transaction by a horizon.
  bool AllLockTablesEmpty() const;

  // Attaches an execution-trace recorder (typically a check::History) to
  // every runtime and service. Call before Run(); verification only.
  // Simulator: any sink. Process backend: the sink MUST be wrapped in a
  // MutexTraceSink (app threads and partition routers feed it
  // concurrently); partition-server durability events arrive over the
  // sockets as kTrace* frames and are replayed into it here. Thread
  // backend: unsupported (no per-event ordering to preserve them with).
  void AttachTrace(TxTraceSink* trace);

  // Backend-agnostic handles (work under sim and threads alike).
  SystemBackend& system() { return *system_; }
  const DeploymentPlan& deployment() const { return system_->deployment(); }
  SharedMemory& shmem() { return system_->shmem(); }
  ShmAllocator& allocator() { return system_->allocator(); }
  BackendKind backend() const { return config_.backend; }

  // Simulator-specific handle (engine, latency model, chaos). Checked:
  // only valid when backend() == BackendKind::kSim.
  SimSystem& sim();

  // Process-specific handle (kill/restart chaos, exit reports). Checked:
  // only valid when backend() == BackendKind::kProcesses.
  ProcessSystem& process();

  // SIGKILLs the partition's server process mid-run (process backend
  // only); its cold standby recovers the partition from the WAL.
  void KillPartition(uint32_t partition) { process().KillPartition(partition); }

  // Post-run service-side counters, on every backend. Under processes the
  // values come from the partition server's exit report (counters
  // accumulated before a kill die with the killed server; the report is
  // the successor's).
  DtmServiceStats ServiceStats(uint32_t partition) const;
  // ServiceStats summed over every partition.
  DtmServiceStats MergedServiceStats() const;

  // Durability handles (only valid when config.tm.durability != kOff;
  // one PartitionDurability per service partition, owned here so the log
  // image and checkpoints outlive the run for recovery).
  PartitionDurability& DurabilityAt(uint32_t partition);
  bool durability_enabled() const { return !durability_.empty(); }

  // Captures every registered owned range's current slab words as each
  // partition's checkpoint 0 (the post-load baseline image). Call after
  // the host-side load phase and before Run().
  void CaptureDurableCheckpoint0();

  const AddressMap& address_map() const { return map_; }
  // Mutable for setup-time AddressMap::AddOwnedRange registration (the
  // runtimes' and services' map copies share the ownership directory).
  AddressMap& address_map() { return map_; }
  const TmSystemConfig& config() const { return config_; }

 private:
  // Called by every app core main after its body returns; under the thread
  // backend the last one shuts down the cores still blocked in Recv.
  void OnAppBodyDone();

  // Installs the process backend's hooks (pre-fork WAL flush, child-side
  // trace/recovery, exit reports, host-side trace-frame replay).
  void WireProcessBackend();

  TmSystemConfig config_;
  std::unique_ptr<SystemBackend> system_;
  AddressMap map_;
  std::vector<std::unique_ptr<DtmService>> services_;   // per service core
  // Per-partition durability (empty when config.tm.durability == kOff).
  std::vector<std::unique_ptr<PartitionDurability>> durability_;
  std::vector<std::unique_ptr<TxRuntime>> runtimes_;    // per app core
  std::vector<AppBody> bodies_;                         // per app core
  std::atomic<uint32_t> apps_running_{0};
  // Sink from AttachTrace, consulted by the process backend's host-frame
  // replay (set before Run, read by router threads during it).
  TxTraceSink* attached_trace_ = nullptr;
};

}  // namespace tm2c

#endif  // TM2C_SRC_TM_TM_SYSTEM_H_
