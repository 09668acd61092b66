// Discrete-event simulator backend of the runtime.
//
// One SimEngine actor per simulated core. Message send occupies the sender,
// crosses the modelled mesh, and is handed to the receiver which pays the
// receive + poll-scan cost on pickup; shared-memory accesses go through the
// memory-controller occupancy model. The whole system is single-threaded
// and deterministic under a fixed seed.
#ifndef TM2C_SRC_RUNTIME_SIM_SYSTEM_H_
#define TM2C_SRC_RUNTIME_SIM_SYSTEM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/noc/latency.h"
#include "src/runtime/backend.h"
#include "src/runtime/core_env.h"
#include "src/sim/engine.h"

namespace tm2c {

class SimSystem : public SystemBackend {
 public:
  // The clock and chaos fields of SystemConfig apply here; CHECK-fails
  // when the platform has fewer than num_cores cores.
  explicit SimSystem(SystemConfig config);
  ~SimSystem() override;

  // Installs the program run by `core`. Must be called for every core
  // before Run (cores without a main simply finish immediately).
  void SetCoreMain(uint32_t core, CoreMain main) override;

  // Runs the simulation until `until` (simulated time) or until all cores
  // finish. Returns the final simulated time.
  SimTime Run(SimTime until = UINT64_MAX) override;

  CoreEnv& env(uint32_t core) override;
  SimEngine& engine() { return engine_; }
  const LatencyModel& latency() const { return latency_; }
  bool is_simulated() const override { return true; }

 private:
  class Core;  // CoreEnv implementation
  friend class Core;

  void BarrierWait(Core* core);

  LatencyModel latency_;
  SimEngine engine_;
  std::unique_ptr<MemControllerModel> mc_model_;
  std::vector<std::unique_ptr<Core>> cores_;
  bool started_actors_ = false;

  // Chaos bookkeeping: last scheduled arrival per (src, dst) pair, so
  // jittered wire delays can never reorder a pair's messages (indexed
  // src * num_cores + dst; only maintained when chaos is active).
  std::vector<SimTime> pair_last_arrival_;

  // Centralized zero-cost barrier.
  uint32_t barrier_waiting_ = 0;
  uint64_t barrier_generation_ = 0;
  std::vector<uint32_t> barrier_blocked_actors_;
};

}  // namespace tm2c

#endif  // TM2C_SRC_RUNTIME_SIM_SYSTEM_H_
