// std::thread backend of the runtime — the Section 7 "port".
//
// The same protocol code that runs on the simulated SCC runs here on real
// OS threads. The transport is one lock-free SPSC ring per directed core
// pair (src/runtime/spsc_channel.h) — the port of the paper's cache-line
// channels: senders publish with a release store, receivers scan their
// incoming rings with acquire loads under an adaptive
// spin-then-yield-then-park policy (Backoff, host_core.h), and a full ring
// back-pressures the sender. Time is the host's steady clock; Compute
// spins.
#ifndef TM2C_SRC_RUNTIME_THREAD_SYSTEM_H_
#define TM2C_SRC_RUNTIME_THREAD_SYSTEM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/runtime/backend.h"
#include "src/runtime/core_env.h"
#include "src/runtime/host_core.h"
#include "src/runtime/spsc_channel.h"

namespace tm2c {

class ThreadSystem : public SystemBackend {
 public:
  explicit ThreadSystem(SystemConfig config);
  ~ThreadSystem() override;

  void SetCoreMain(uint32_t core, CoreMain main) override;

  // Spawns one thread per core, runs every core's main to completion, and
  // joins. Mains that loop forever (service loops) must exit on a
  // kShutdown message; SendShutdown() delivers those.
  void RunToCompletion();

  // SystemBackend: RunToCompletion measured on the host clock. `until` is
  // ignored — thread mains bound their own work.
  SimTime Run(SimTime until) override;

  // Delivers kShutdown to the given core (typically service cores, after
  // the app cores' mains have returned). Callable from any thread: the
  // message travels through a per-core injection lane, not the SPSC rings,
  // so it never violates their single-producer contract.
  void SendShutdown(uint32_t core);
  void RequestShutdown(uint32_t core) override { SendShutdown(core); }

  CoreEnv& env(uint32_t core) override;
  bool is_simulated() const override { return false; }

  // True while `core` is parked on its eventcount: its spin and yield
  // budgets ran out with nothing to receive. An observer for tests.
  bool parked(uint32_t core) const;

 private:
  class Core;
  friend class Core;

  SpscChannel& ring(uint32_t src, uint32_t dst) {
    return *rings_[static_cast<size_t>(src) * deployment().num_cores() + dst];
  }

  std::vector<std::unique_ptr<Core>> cores_;
  // num_cores^2 rings, indexed src * num_cores + dst.
  std::vector<std::unique_ptr<SpscChannel>> rings_;

  HostBarrier barrier_;  // rendezvous of all cores
};

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_THREAD_SYSTEM_H_
