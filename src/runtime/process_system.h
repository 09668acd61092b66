// Multi-process backend of the runtime — partitions as server processes.
//
// Each DTM partition's service loop runs in a forked child process, talking
// to the host over one Unix-domain stream socket with the explicit wire
// serialization of src/runtime/wire.h. Application cores stay host-side as
// threads (they share the transaction data through a MAP_SHARED memory
// region, exactly the paper's non-coherent shared memory); everything a
// partition owns privately — its lock table, its WAL tail, its counters —
// lives only in the server process and dies with it.
//
// That asymmetry is the point: a partition server can be SIGKILLed mid-run
// (KillPartition) and the backend restarts it from a pre-forked cold
// standby. The standby recovers the partition's state from the on-disk WAL
// (truncating the torn tail), the host retransmits the in-doubt commit
// records, refuses the dead server's other unanswered requests with
// ConflictKind::kOverload (the runtime's uniform back-off-and-retry path),
// and publishes a revocation fence for every transaction that had quoted an
// epoch at the dead partition — its granted locks died with the lock table.
// Committers already past their commit point ignore the fence, mirroring
// the abort-status semantics of contention-manager revocations.
//
// Per-core message FIFO order survives the topology: one socket per
// partition carries all of its traffic, a parent-side router thread
// demultiplexes replies into per-app-core mailboxes, and server-side trace
// and stats events ride the same socket addressed to kWireHostDst.
#ifndef TM2C_SRC_RUNTIME_PROCESS_SYSTEM_H_
#define TM2C_SRC_RUNTIME_PROCESS_SYSTEM_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/runtime/backend.h"
#include "src/runtime/core_env.h"
#include "src/runtime/host_core.h"
#include "src/runtime/wire.h"

namespace tm2c {

// The deployment is always dedicated: a partition server process cannot
// interleave an application main the way the multitasked simulator does.
// SystemConfig::run_dir is required (the socket files live there).
class ProcessSystem : public SystemBackend {
 public:
  // CHECK-fails on a multitasked strategy or an empty run_dir.
  explicit ProcessSystem(SystemConfig config);
  ~ProcessSystem() override;

  void SetCoreMain(uint32_t core, CoreMain main) override;

  // Forks the partition servers (one primary plus one cold standby each),
  // runs every app core's main on a host thread, joins, and reaps. `until`
  // is ignored — mains bound their own work, service loops exit on
  // kShutdown. Returns wall-clock picoseconds. Runs once.
  SimTime Run(SimTime until) override;

  // Service core: ships a kShutdown frame to its partition server (the
  // server flushes its commit log, reports stats, and exits). App core:
  // drops kShutdown into its mailbox.
  void RequestShutdown(uint32_t core) override;

  CoreEnv& env(uint32_t core) override;
  bool is_simulated() const override { return false; }

  // --- process-specific surface (wired up by TmSystem before Run) ---

  // Runs host-side immediately before the servers fork. The durability
  // layer uses it to flush buffered WAL file state: a stdio buffer
  // duplicated into every child would otherwise be written twice.
  void SetPreForkHook(std::function<void()> hook) { pre_fork_ = std::move(hook); }

  // Runs in the child process after its socket is connected and before its
  // service main. `is_restart` marks a standby activated to replace a
  // killed primary: the hook recovers the partition's WAL and primes the
  // service's recovered-commit table. It must also attach the child's
  // wire trace sink — `env` is the only conduit back to the host.
  void SetChildStart(std::function<void(uint32_t partition, bool is_restart, CoreEnv& env)> hook) {
    child_start_ = std::move(hook);
  }

  // Builds the child's exit report: a kHostStats message, sent to
  // kWireHostDst after the service main returns. The host keeps its extra
  // words verbatim and returns them from host_stats(); their layout belongs
  // to the hook's owner (TmSystem's is EncodeExitReport).
  void SetChildExitReport(std::function<Message(uint32_t partition)> hook) {
    child_exit_report_ = std::move(hook);
  }

  // Receives every kWireHostDst frame except kHostStats (trace events), on
  // the partition's router thread. The handler must be thread-safe across
  // partitions — TmSystem feeds a MutexTraceSink.
  void SetHostFrameHandler(std::function<void(uint32_t partition, const Message&)> handler) {
    host_frame_ = std::move(handler);
  }

  // Base of the per-core abort-status words (TmConfig::abort_status_base)
  // so the restart fence can publish revocations the same way contention
  // managers do. Required before Run.
  void SetAbortStatusBase(uint64_t base) { abort_status_base_ = base; }

  // SIGKILLs the partition's current server process mid-run. The partition
  // router detects the death, activates the cold standby, and resumes; a
  // second kill of the same partition is fatal (one standby each).
  void KillPartition(uint32_t partition);

  // Times the partition's server was killed and replaced so far.
  uint32_t restarts(uint32_t partition);

  // The partition's exit report (kHostStats extra words), empty until its
  // server exited cleanly.
  std::vector<uint64_t> host_stats(uint32_t partition);

  std::string SocketPath(uint32_t partition, uint32_t generation) const;

 private:
  class AppCore;
  class ServiceCore;
  friend class AppCore;
  friend class ServiceCore;

  struct Server {
    pid_t pid = -1;
    int control_wr = -1;  // one-byte command pipe: 'p' serve, 'r' serve as
                          // restart (recover first), 'q' quit unused
    bool reaped = false;
  };
  // A request the server has not answered yet. Kept host-side so a killed
  // server's obligations are explicit: commit records are retransmitted to
  // the successor, everything else is refused back to the requester.
  struct Outstanding {
    uint32_t src = 0;
    Message request;
  };
  // Host end of one partition's socket, plus the bookkeeping the death
  // protocol needs. Senders block on `cv` while the partition is down.
  struct Connection {
    std::mutex mu;
    std::condition_variable cv;
    int fd = -1;
    bool up = false;
    bool shutdown_sent = false;
    uint32_t generation = 0;  // index into servers of the live process
    uint32_t restarts = 0;
    std::vector<Server> servers;
    std::deque<Outstanding> outstanding;
    // Newest epoch each app core quoted at this partition — the revocation
    // fence published when the server dies.
    std::unordered_map<uint32_t, uint64_t> last_epoch;
    std::vector<uint64_t> host_stats;
    std::thread router;
  };

  Server ForkServer(uint32_t partition, uint32_t generation);
  [[noreturn]] void ChildMain(uint32_t partition, uint32_t generation, int control_rd);
  void RouterLoop(uint32_t partition);
  void DrainFrames(uint32_t partition, WireDecoder* decoder);
  void RetireOutstanding(Connection* c, uint32_t dst, const Message& msg);
  void RestartPartition(uint32_t partition);
  static Message SynthesizeRefusal(uint32_t service_core, const Message& req);
  void SendToPartition(uint32_t src_core, uint32_t dst_core, Message msg);
  void DeliverToApp(uint32_t core, Message msg);
  int ConnectWithRetry(const std::string& path);
  static void Reap(Server* server);

  std::vector<CoreMain> mains_;
  // Indexed by core id; exactly one of the two is non-null per core.
  std::vector<std::unique_ptr<AppCore>> app_cores_;
  std::vector<std::unique_ptr<ServiceCore>> service_cores_;
  std::vector<std::unique_ptr<Connection>> conns_;  // per partition

  std::function<void()> pre_fork_;
  std::function<void(uint32_t, bool, CoreEnv&)> child_start_;
  std::function<Message(uint32_t)> child_exit_report_;
  std::function<void(uint32_t, const Message&)> host_frame_;
  uint64_t abort_status_base_ = ~uint64_t{0};  // unset until SetAbortStatusBase

  bool started_ = false;

  HostBarrier barrier_;  // rendezvous of the app cores only
};

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_PROCESS_SYSTEM_H_
