// TM2C protocol on the std::thread backend: the same DtmService/TxRuntime
// code under real OS concurrency (the Section 7 port), over both the
// lock-free SPSC rings and the mutex-mailbox baseline. These tests are
// nondeterministic by nature and assert only safety and completion.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/runtime/thread_system.h"
#include "src/shmem/abort_status.h"
#include "src/tm/dtm_service.h"
#include "src/tm/tx_runtime.h"

namespace tm2c {
namespace {

constexpr ChannelKind kBothChannels[] = {ChannelKind::kSpscRing, ChannelKind::kMutexMailbox};

struct ThreadTmHarness {
  ThreadTmHarness(uint32_t cores, uint32_t service, TmConfig tm_config,
                  ChannelKind channel = ChannelKind::kSpscRing)
      : tm(tm_config) {
    ThreadSystemConfig cfg;
    cfg.platform = MakeOpteronPlatform();
    cfg.num_cores = cores;
    cfg.num_service = service;
    cfg.shmem_bytes = 1 << 20;
    cfg.channel = channel;
    sys = std::make_unique<ThreadSystem>(cfg);
    map = std::make_unique<AddressMap>(sys->deployment(), tm.stripe_bytes);
    for (uint32_t core : sys->deployment().service_cores()) {
      sys->SetCoreMain(core, [this](CoreEnv& env) {
        DtmService service_loop(env, tm);
        service_loop.RunLoop();
      });
    }
    running.store(sys->deployment().num_app());
  }

  // Installs `body` on every app thread; the last to finish shuts the
  // services down.
  void SetAppBodies(const std::function<void(CoreEnv&, TxRuntime&)>& body) {
    const auto& plan = sys->deployment();
    for (uint32_t i = 0; i < plan.num_app(); ++i) {
      const uint32_t core = plan.app_cores()[i];
      sys->SetCoreMain(core, [this, body](CoreEnv& env) {
        TxRuntime rt(env, tm, *map);
        body(env, rt);
        if (running.fetch_sub(1) == 1) {
          for (uint32_t sc : sys->deployment().service_cores()) {
            sys->SendShutdown(sc);
          }
        }
      });
    }
  }

  TmConfig tm;
  std::unique_ptr<ThreadSystem> sys;
  std::unique_ptr<AddressMap> map;
  std::atomic<uint32_t> running{0};
};

TEST(ThreadTm, ConcurrentIncrementsExact) {
  for (const ChannelKind channel : kBothChannels) {
    for (CmKind cm : {CmKind::kBackoffRetry, CmKind::kFairCm}) {
      TmConfig tm;
      tm.cm = cm;
      ThreadTmHarness h(4, 2, tm, channel);
      const uint64_t counter = h.sys->allocator().AllocGlobal(8);
      constexpr int kIncs = 500;
      h.SetAppBodies([counter](CoreEnv&, TxRuntime& rt) {
        for (int k = 0; k < kIncs; ++k) {
          rt.Execute([counter](Tx& tx) { tx.Write(counter, tx.Read(counter) + 1); });
        }
      });
      h.sys->RunToCompletion();
      EXPECT_EQ(h.sys->shmem().LoadWord(counter),
                static_cast<uint64_t>(h.sys->deployment().num_app()) * kIncs)
          << "cm=" << CmKindName(cm) << " channel=" << ChannelKindName(channel);
    }
  }
}

TEST(ThreadTm, BankTransfersConserveTotal) {
  for (const ChannelKind channel : kBothChannels) {
    TmConfig tm;
    tm.cm = CmKind::kFairCm;
    ThreadTmHarness h(4, 1, tm, channel);
    constexpr uint32_t kAccounts = 32;
    const uint64_t base = h.sys->allocator().AllocGlobal(kAccounts * 8);
    for (uint32_t a = 0; a < kAccounts; ++a) {
      h.sys->shmem().StoreWord(base + a * 8, 100);
    }
    std::atomic<uint32_t> next_seed{1};
    h.SetAppBodies([base, &next_seed](CoreEnv&, TxRuntime& rt) {
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
    h.sys->RunToCompletion();
    uint64_t total = 0;
    for (uint32_t a = 0; a < kAccounts; ++a) {
      total += h.sys->shmem().LoadWord(base + a * 8);
    }
    EXPECT_EQ(total, static_cast<uint64_t>(kAccounts) * 100) << ChannelKindName(channel);
  }
}

TEST(ThreadTm, ScansSeeConsistentPairs) {
  TmConfig tm;
  tm.cm = CmKind::kFairCm;
  ThreadTmHarness h(4, 2, tm);
  const uint64_t base = h.sys->allocator().AllocGlobal(16);
  h.sys->shmem().StoreWord(base, 500);
  h.sys->shmem().StoreWord(base + 8, 500);
  std::atomic<bool> violation{false};
  std::atomic<uint32_t> role{0};
  h.SetAppBodies([base, &violation, &role](CoreEnv&, TxRuntime& rt) {
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
  h.sys->RunToCompletion();
  EXPECT_FALSE(violation.load());
}

// The lost update a revocation could cause on real threads: a committer
// past its abort-status check but not yet done storing its write set is
// revoked, the winner is granted the lock and reads the old value. The
// committer holds its status word at the persisting marker for exactly
// that window; the service must wait it out before the grant is sent, and
// then publish the victim's epoch.
TEST(ThreadTmLostUpdate, RevocationWaitsOutAPersistInProgress) {
  ThreadSystemConfig cfg;
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
