// Process-kill regression: SIGKILL a partition server mid-run, let the
// cold standby recover it from the on-disk WAL, and hold the surviving run
// to the crash-restart oracle's standard (src/check/process_kill.h). This
// is the real-death counterpart of the simulated crash cuts in
// tests/check_test.cc: the same oracle, wired to an actual process corpse
// instead of a post-hoc watermark.
//
// Failing seeds dump their full history JSON into failed_histories/ next
// to the test binary, same convention as the chaos suites.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "src/check/process_kill.h"
#include "src/runtime/process_system.h"
#include "src/shmem/abort_status.h"

namespace tm2c {
namespace {

std::string FreshRunDir(const std::string& tag) {
  std::string templ = ::testing::TempDir() + "tm2c_" + tag + "_XXXXXX";
  char* made = ::mkdtemp(templ.data());
  EXPECT_NE(made, nullptr);
  return templ;
}

void DumpOnFailure(const ProcessKillConfig& cfg, const ProcessKillResult& result) {
  if (result.report.violations.empty()) {
    return;
  }
  ::mkdir("failed_histories", 0755);
  const std::string path = "failed_histories/" + cfg.Name() + ".json";
  std::ofstream out(path);
  out << result.history.ToJson();
  ADD_FAILURE() << "history dumped to " << path;
}

// A partition server process cannot interleave an application task, so a
// multitasked SystemConfig is refused at construction.
TEST(ProcessSystemDeathTest, MultitaskedStrategyIsRejected) {
  SystemConfig cfg;
  cfg.platform = MakeSccPlatform(0);
  cfg.num_cores = 2;
  cfg.strategy = DeployStrategy::kMultitasked;
  cfg.shmem_bytes = 1 << 16;
  cfg.run_dir = FreshRunDir("multitasked");
  EXPECT_DEATH(ProcessSystem sys(cfg), "dedicated-only");
}

// Charge is free and Compute still waits on both kinds of process core:
// the host-side app core and the forked partition server's service core.
// The server reports its timings through the MAP_SHARED memory.
TEST(ProcessSystem, ChargeReturnsAtOnceComputeStillWaitsOnBothCoreKinds) {
  SystemConfig cfg;
  cfg.platform = MakeSccPlatform(0);
  cfg.num_cores = 2;
  cfg.num_service = 1;
  cfg.shmem_bytes = 1 << 16;
  cfg.run_dir = FreshRunDir("charge");
  ProcessSystem sys(cfg);
  sys.SetAbortStatusBase(AllocAbortStatusWords(sys.allocator(), sys.shmem(), cfg.num_cores));
  // Per core kind: [charge ns, compute ns], written as ns + 1 so 0 = unset.
  const uint64_t results = sys.allocator().AllocGlobal(4 * kWordBytes);
  for (uint64_t w = 0; w < 4; ++w) {
    sys.shmem().StoreWord(results + w * kWordBytes, 0);
  }
  const auto time_both = [](CoreEnv& env, uint64_t slot) {
    const SimTime t0 = HostNowPs();
    env.Charge(533000000);  // 1 s modelled at 533 MHz
    const SimTime t1 = HostNowPs();
    env.Compute(533000);  // 1 ms
    const SimTime t2 = HostNowPs();
    env.ShmemWrite(slot, (t1 - t0) / kPicosPerNano + 1);
    env.ShmemWrite(slot + kWordBytes, (t2 - t1) / kPicosPerNano + 1);
  };
  const uint32_t service = sys.deployment().ServiceCore(0);
  const uint32_t app = sys.deployment().app_cores()[0];
  sys.SetCoreMain(service, [&](CoreEnv& env) {
    time_both(env, results);
    while (env.Recv().type != MsgType::kShutdown) {
    }
  });
  sys.SetCoreMain(app, [&](CoreEnv& env) {
    time_both(env, results + 2 * kWordBytes);
    while (env.ShmemRead(results + kWordBytes) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    sys.RequestShutdown(service);
  });
  sys.Run(0);
  for (uint64_t kind = 0; kind < 2; ++kind) {
    const uint64_t charge_ns = sys.shmem().LoadWord(results + 2 * kind * kWordBytes) - 1;
    const uint64_t compute_ns = sys.shmem().LoadWord(results + (2 * kind + 1) * kWordBytes) - 1;
    const char* core = kind == 0 ? "service core" : "app core";
    EXPECT_LT(charge_ns, 100'000'000u) << core;
    EXPECT_GE(compute_ns, 1'000'000u) << core;
  }
}

TEST(ProcessKill, KilledPartitionRecoversAcrossFiveSeeds) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ProcessKillConfig cfg;
    cfg.seed = seed;
    cfg.run_dir = FreshRunDir("kill_s" + std::to_string(seed));
    const ProcessKillResult result = RunProcessKillWorkload(cfg);

    EXPECT_EQ(result.commits, result.expected_commits) << "seed " << seed;
    EXPECT_EQ(result.restarts, 1u) << "seed " << seed;
    EXPECT_TRUE(result.truncate_seen) << "seed " << seed;
    EXPECT_TRUE(result.tables_empty) << "seed " << seed;
    for (const OracleViolation& v : result.report.violations) {
      ADD_FAILURE() << "seed " << seed << ": [" << v.kind << "] " << v.detail;
    }
    DumpOnFailure(cfg, result);
  }
}

TEST(ProcessKill, KillingTheOtherPartitionRecoversToo) {
  // The kill target must not be special-cased: partition 1's server dies
  // under a different request mix (it is not app core 0's local target).
  ProcessKillConfig cfg;
  cfg.seed = 7;
  cfg.kill_partition = 1;
  cfg.run_dir = FreshRunDir("kill_p1");
  const ProcessKillResult result = RunProcessKillWorkload(cfg);

  EXPECT_EQ(result.commits, result.expected_commits);
  EXPECT_EQ(result.restarts, 1u);
  EXPECT_TRUE(result.truncate_seen);
  EXPECT_TRUE(result.tables_empty);
  for (const OracleViolation& v : result.report.violations) {
    ADD_FAILURE() << "[" << v.kind << "] " << v.detail;
  }
  DumpOnFailure(cfg, result);
}

TEST(ProcessKill, GroupCommitWindowsSurviveTheKill) {
  // Larger group-commit windows widen the in-doubt set at the kill: more
  // appended-but-unflushed records to void, more unacked kCommitLogs to
  // retransmit. With periodic checkpoints on top, the recovery replays
  // checkpoint + suffix instead of the whole log.
  ProcessKillConfig cfg;
  cfg.seed = 11;
  cfg.group_commit_txs = 8;
  cfg.checkpoint_every_records = 32;
  cfg.run_dir = FreshRunDir("kill_gc8");
  const ProcessKillResult result = RunProcessKillWorkload(cfg);

  EXPECT_EQ(result.commits, result.expected_commits);
  EXPECT_TRUE(result.truncate_seen);
  for (const OracleViolation& v : result.report.violations) {
    ADD_FAILURE() << "[" << v.kind << "] " << v.detail;
  }
  DumpOnFailure(cfg, result);
}

}  // namespace
}  // namespace tm2c
