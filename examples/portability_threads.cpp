// Portability (Section 7): the exact same protocol code — DtmService,
// TxRuntime, contention managers — running on real OS threads instead of
// the simulator. The mailboxes stand in for the Barrelfish-style cache-line
// channels of the paper's multi-core port.
//
//   $ ./examples/portability_threads --cores=4 --service-cores=2
#include <atomic>
#include <cstdio>

#include "src/common/flags.h"
#include "src/runtime/thread_system.h"
#include "src/tm/dtm_service.h"
#include "src/tm/tx_runtime.h"

int main(int argc, char** argv) {
  using namespace tm2c;

  int cores = 4;
  int service_cores = 2;
  int increments = 2000;
  std::string channel = "spsc";
  bool pin = false;

  FlagSet flags;
  flags.Register("cores", &cores, "OS threads to spawn");
  flags.Register("service-cores", &service_cores, "how many of them run the DTM service");
  flags.Register("increments", &increments, "transactional increments per app thread");
  flags.Register("channel", &channel, "transport: spsc (lock-free rings) | mutex (v1 mailboxes)");
  flags.Register("pin", &pin, "pin each core thread to a host CPU");
  flags.Parse(argc, argv);

  ThreadSystemConfig config;
  config.platform = MakeOpteronPlatform();
  config.num_cores = static_cast<uint32_t>(cores);
  config.num_service = static_cast<uint32_t>(service_cores);
  config.shmem_bytes = 1 << 20;
  config.channel = ChannelKindByName(channel);
  config.pin_threads = pin;
  ThreadSystem system(config);

  TmConfig tm;
  tm.cm = CmKind::kBackoffRetry;  // the CM the paper ported first
  const AddressMap map(system.deployment(), tm.stripe_bytes);
  const uint64_t counter = system.allocator().AllocGlobal(8);

  // Service threads run the very same DtmService loop as the simulator.
  for (uint32_t core : system.deployment().service_cores()) {
    system.SetCoreMain(core, [tm](CoreEnv& env) {
      DtmService service(env, tm);
      service.RunLoop();  // exits on kShutdown
    });
  }
  // App threads run transactions through the very same TxRuntime. The last
  // app thread to finish shuts the service loops down.
  const auto& plan = system.deployment();
  std::vector<TxStats> stats(plan.num_app());
  std::atomic<uint32_t> running{plan.num_app()};
  for (uint32_t i = 0; i < plan.num_app(); ++i) {
    const uint32_t core = plan.app_cores()[i];
    system.SetCoreMain(core, [&, i, tm](CoreEnv& env) {
      TxRuntime rt(env, tm, map);
      for (int k = 0; k < increments; ++k) {
        rt.Execute([counter](Tx& tx) { tx.Write(counter, tx.Read(counter) + 1); });
      }
      stats[i] = rt.stats();
      if (running.fetch_sub(1) == 1) {
        for (uint32_t sc : plan.service_cores()) {
          system.SendShutdown(sc);
        }
      }
    });
  }
  system.RunToCompletion();

  TxStats total;
  for (const TxStats& s : stats) {
    total.Merge(s);
  }
  const uint64_t expected = static_cast<uint64_t>(plan.num_app()) * increments;
  const uint64_t value = system.shmem().LoadWord(counter);
  std::printf("threads=%d (%u app / %u dtm), %d increments each\n", cores, plan.num_app(),
              static_cast<uint32_t>(service_cores), increments);
  std::printf("counter = %llu (expected %llu) -> %s\n", static_cast<unsigned long long>(value),
              static_cast<unsigned long long>(expected), value == expected ? "OK" : "WRONG");
  std::printf("commits = %llu, aborts = %llu (real concurrency, real races)\n",
              static_cast<unsigned long long>(total.commits),
              static_cast<unsigned long long>(total.aborts));
  return value == expected ? 0 : 1;
}
