// TM2C protocol on the std::thread backend: the same DtmService/TxRuntime
// code under real OS concurrency (the Section 7 port), over the lock-free
// SPSC rings. These tests are nondeterministic by nature and assert only
// safety and completion.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "src/runtime/thread_system.h"
#include "src/shmem/abort_status.h"
#include "src/tm/dtm_service.h"
#include "src/tm/tm_system.h"

namespace tm2c {
namespace {

// A thread-backend TmSystem, wired (abort-status words included) exactly as
// every real run is.
std::unique_ptr<TmSystem> MakeThreadTm(uint32_t cores, uint32_t service, CmKind cm) {
  TmSystemConfig cfg;
  cfg.backend = BackendKind::kThreads;
  cfg.sim.platform = MakeOpteronPlatform();
  cfg.sim.num_cores = cores;
  cfg.sim.num_service = service;
  cfg.sim.shmem_bytes = 1 << 20;
  cfg.tm.cm = cm;
  return std::make_unique<TmSystem>(cfg);
}

TEST(ThreadTm, ConcurrentIncrementsExact) {
  for (CmKind cm : {CmKind::kBackoffRetry, CmKind::kFairCm}) {
    const auto sys = MakeThreadTm(4, 2, cm);
    const uint64_t counter = sys->allocator().AllocGlobal(8);
    constexpr int kIncs = 500;
    sys->SetAllAppBodies([counter](CoreEnv&, TxRuntime& rt) {
      for (int k = 0; k < kIncs; ++k) {
        rt.Execute([counter](Tx& tx) { tx.Write(counter, tx.Read(counter) + 1); });
      }
    });
    sys->Run();
    EXPECT_EQ(sys->shmem().LoadWord(counter), uint64_t{sys->num_app_cores()} * kIncs)
        << "cm=" << CmKindName(cm);
  }
}

TEST(ThreadTm, BankTransfersConserveTotal) {
  const auto sys = MakeThreadTm(4, 1, CmKind::kFairCm);
  constexpr uint32_t kAccounts = 32;
  const uint64_t base = sys->allocator().AllocGlobal(kAccounts * 8);
  for (uint32_t a = 0; a < kAccounts; ++a) {
    sys->shmem().StoreWord(base + a * 8, 100);
  }
  std::atomic<uint32_t> next_seed{1};
  sys->SetAllAppBodies([base, &next_seed](CoreEnv&, TxRuntime& rt) {
    Rng rng(next_seed.fetch_add(1));
    for (int k = 0; k < 300; ++k) {
      const uint64_t from = base + rng.NextBelow(kAccounts) * 8;
      uint64_t to = base + rng.NextBelow(kAccounts) * 8;
      if (to == from) {
        to = base + ((to - base) / 8 + 1) % kAccounts * 8;
      }
      rt.Execute([from, to](Tx& tx) {
        tx.Write(from, tx.Read(from) - 1);
        tx.Write(to, tx.Read(to) + 1);
      });
    }
  });
  sys->Run();
  uint64_t total = 0;
  for (uint32_t a = 0; a < kAccounts; ++a) {
    total += sys->shmem().LoadWord(base + a * 8);
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kAccounts) * 100);
}

TEST(ThreadTm, ScansSeeConsistentPairs) {
  const auto sys = MakeThreadTm(4, 2, CmKind::kFairCm);
  const uint64_t base = sys->allocator().AllocGlobal(16);
  sys->shmem().StoreWord(base, 500);
  sys->shmem().StoreWord(base + 8, 500);
  std::atomic<bool> violation{false};
  std::atomic<uint32_t> role{0};
  sys->SetAllAppBodies([base, &violation, &role](CoreEnv&, TxRuntime& rt) {
    const uint32_t my_role = role.fetch_add(1);
    if (my_role % 2 == 0) {
      Rng rng(my_role + 10);
      for (int k = 0; k < 200; ++k) {
        const uint64_t d = rng.NextBelow(5);
        rt.Execute([base, d](Tx& tx) {
          tx.Write(base, tx.Read(base) - d);
          tx.Write(base + 8, tx.Read(base + 8) + d);
        });
      }
    } else {
      for (int k = 0; k < 200; ++k) {
        uint64_t a = 0;
        uint64_t b = 0;
        rt.Execute([&](Tx& tx) {
          a = tx.Read(base);
          b = tx.Read(base + 8);
        });
        if (a + b != 1000) {
          violation.store(true);
        }
      }
    }
  });
  sys->Run();
  EXPECT_FALSE(violation.load());
}

// The lost update a revocation could cause on real threads: a committer
// past its abort-status check but not yet done storing its write set is
// revoked, the winner is granted the lock and reads the old value. The
// committer holds its status word at the persisting marker for exactly
// that window; the service must wait it out before the grant is sent, and
// then publish the victim's epoch.
TEST(ThreadTmLostUpdate, RevocationWaitsOutAPersistInProgress) {
  SystemConfig cfg;
  cfg.platform = MakeOpteronPlatform();
  cfg.num_cores = 3;
  cfg.num_service = 1;  // core 0
  cfg.shmem_bytes = 1 << 16;
  ThreadSystem sys(cfg);
  TmConfig tm;
  tm.cm = CmKind::kFairCm;  // lower metric wins
  tm.abort_status_base = 0x1000;
  constexpr uint32_t kVictim = 2;
  constexpr uint64_t kStripe = 0x2000;
  constexpr uint64_t kVictimEpoch = (uint64_t{kVictim} << 32) | 1;
  const uint64_t status_addr = tm.abort_status_base + kVictim * kWordBytes;

  auto acquire = [](uint64_t epoch, uint64_t metric, bool is_write) {
    Message m;
    m.type = MsgType::kBatchAcquire;
    m.w0 = is_write ? kBatchFlagWrite : 0;
    m.w1 = epoch;
    m.w2 = metric;
    m.w3 = kStripe;
    return m;
  };
  std::atomic<int> phase{0};  // 1: victim in its persist window, 2: window closed
  std::atomic<bool> granted_inside_window{false};
  std::atomic<bool> granted{false};
  std::atomic<uint32_t> running{2};
  auto finish = [&]() {
    if (running.fetch_sub(1) == 1) {
      sys.SendShutdown(0);
    }
  };
  sys.SetCoreMain(0, [&tm](CoreEnv& env) {
    DtmService service(env, tm);
    service.RunLoop();
  });
  sys.SetCoreMain(kVictim, [&](CoreEnv& env) {
    env.Send(0, acquire(kVictimEpoch, /*metric=*/100, /*is_write=*/false));
    EXPECT_EQ(static_cast<ConflictKind>(env.Recv().w2), ConflictKind::kNone);
    uint64_t prior = 0;
    ASSERT_TRUE(BeginPersist(env.shmem(), status_addr, kVictimEpoch, &prior));
    phase.store(1);
    while (phase.load() != 2) {
      std::this_thread::yield();
    }
    EndPersist(env.shmem(), status_addr, prior);
    finish();
  });
  sys.SetCoreMain(1, [&](CoreEnv& env) {
    while (phase.load() != 1) {
      std::this_thread::yield();
    }
    env.Send(0, acquire((uint64_t{1} << 32) | 1, /*metric=*/1, /*is_write=*/true));
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    Message rsp;
    while (std::chrono::steady_clock::now() < deadline) {
      if (env.TryRecv(&rsp)) {
        granted_inside_window.store(true);
        break;
      }
      std::this_thread::yield();
    }
    phase.store(2);
    if (!granted_inside_window.load()) {
      rsp = env.Recv();
    }
    granted.store(rsp.type == MsgType::kBatchReply &&
                  static_cast<ConflictKind>(rsp.w2) == ConflictKind::kNone);
    finish();
  });
  sys.RunToCompletion();
  EXPECT_FALSE(granted_inside_window.load()) << "grant sent while the victim was persisting";
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(sys.shmem().LoadWord(status_addr), kVictimEpoch);
}

}  // namespace
}  // namespace tm2c
