// End-to-end protocol tests of TM2C on the simulated many-core.
#include <gtest/gtest.h>

#include <numeric>

#include "src/tm/tm_system.h"

namespace tm2c {
namespace {

// Generous safety horizon: tests assert completion, so a livelocked
// configuration fails visibly instead of hanging the suite.
constexpr SimTime kTestHorizon = MillisToSim(2000);

TmSystemConfig BaseConfig(uint32_t cores = 8, uint32_t service = 4,
                          CmKind cm = CmKind::kFairCm) {
  TmSystemConfig cfg;
  cfg.sim.platform = MakeSccPlatform(0);
  cfg.sim.num_cores = cores;
  cfg.sim.num_service = service;
  cfg.sim.shmem_bytes = 1 << 20;
  cfg.sim.seed = 42;
  cfg.tm.cm = cm;
  return cfg;
}

TEST(TmBasic, SingleTransactionReadsAndWrites) {
  TmSystem sys(BaseConfig());
  sys.SetAppBody(0, [](CoreEnv& env, TxRuntime& rt) {
    rt.Execute([](Tx& tx) {
      tx.Write(0x100, 7);
      tx.Write(0x108, 35);
    });
    rt.Execute([&env](Tx& tx) {
      const uint64_t sum = tx.Read(0x100) + tx.Read(0x108);
      tx.Write(0x110, sum);
    });
  });
  sys.Run(kTestHorizon);
  EXPECT_EQ(sys.shmem().LoadWord(0x110), 42u);
  EXPECT_EQ(sys.MergedStats().commits, 2u);
  EXPECT_EQ(sys.MergedStats().aborts, 0u);
}

TEST(TmBasic, ReadYourOwnWrites) {
  TmSystem sys(BaseConfig());
  uint64_t observed = 0;
  sys.SetAppBody(0, [&observed](CoreEnv&, TxRuntime& rt) {
    rt.Execute([&observed](Tx& tx) {
      tx.Write(0x200, 5);
      observed = tx.Read(0x200);  // must see the buffered write
      tx.Write(0x200, observed + 1);
      observed = tx.Read(0x200);
    });
  });
  sys.Run(kTestHorizon);
  EXPECT_EQ(observed, 6u);
  EXPECT_EQ(sys.shmem().LoadWord(0x200), 6u);
}

TEST(TmBasic, DeferredWritesInvisibleBeforeCommit) {
  // Core A writes then spins inside the transaction; core B (non-
  // transactionally, weak atomicity) must not see the value until commit.
  TmSystem sys(BaseConfig());
  uint64_t seen_mid_tx = 1;
  sys.SetAppBody(0, [](CoreEnv& env, TxRuntime& rt) {
    rt.Execute([&env](Tx& tx) {
      tx.Write(0x300, 77);
      env.Compute(500000);  // hold the transaction open ~1ms
    });
  });
  sys.SetAppBody(1, [&seen_mid_tx](CoreEnv& env, TxRuntime& /*rt*/) {
    env.Compute(100000);  // inside core A's window
    seen_mid_tx = env.ShmemRead(0x300);
  });
  sys.Run(kTestHorizon);
  EXPECT_EQ(seen_mid_tx, 0u);
  EXPECT_EQ(sys.shmem().LoadWord(0x300), 77u);
}

// The canonical atomicity check: concurrent increments never lose updates.
// kNone is excluded: it livelocks on symmetric contention by design (see
// NoCmLivelocksUnderSymmetricContention below).
TEST(TmConcurrency, ConcurrentIncrementsAllApplied) {
  for (CmKind cm : {CmKind::kBackoffRetry, CmKind::kOffsetGreedy,
                    CmKind::kWholly, CmKind::kFairCm}) {
    TmSystem sys(BaseConfig(8, 4, cm));
    constexpr uint64_t kCounter = 0x400;
    constexpr int kIncsPerCore = 25;
    for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
      sys.SetAppBody(i, [](CoreEnv&, TxRuntime& rt) {
        for (int k = 0; k < kIncsPerCore; ++k) {
          rt.Execute([](Tx& tx) { tx.Write(kCounter, tx.Read(kCounter) + 1); });
        }
      });
    }
    sys.Run(kTestHorizon);
    EXPECT_EQ(sys.shmem().LoadWord(kCounter),
              static_cast<uint64_t>(sys.num_app_cores()) * kIncsPerCore)
        << "lost updates under CM " << CmKindName(cm);
    EXPECT_EQ(sys.MergedStats().commits,
              static_cast<uint64_t>(sys.num_app_cores()) * kIncsPerCore);
  }
}

// Without any contention management, symmetric conflicts (every core reads
// then writes the same counter) abort each other forever — the livelock the
// paper's Figure 5(a) shows and the reason TM2C ships contention managers.
// Atomicity still holds: the counter equals the number of commits.
TEST(TmConcurrency, NoCmLivelocksUnderSymmetricContention) {
  TmSystem sys(BaseConfig(8, 4, CmKind::kNone));
  constexpr uint64_t kCounter = 0x400;
  std::vector<uint64_t> committed(sys.num_app_cores(), 0);
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [i, &committed](CoreEnv&, TxRuntime& rt) {
      for (int k = 0; k < 10; ++k) {
        if (rt.TryExecute([](Tx& tx) { tx.Write(kCounter, tx.Read(kCounter) + 1); },
                          /*max_attempts=*/50)) {
          ++committed[i];
        }
      }
    });
  }
  sys.Run(kTestHorizon);
  const uint64_t total_commits =
      std::accumulate(committed.begin(), committed.end(), uint64_t{0});
  EXPECT_EQ(sys.shmem().LoadWord(kCounter), total_commits);
  // The livelock manifests as a large abort count relative to commits.
  const TxStats stats = sys.MergedStats();
  EXPECT_GT(stats.aborts, stats.commits);
}

// Bank-style invariant: transfers conserve the total. This exercises
// multi-location transactions, WAR/WAW conflicts and revocations.
void RunBankInvariantTest(TmSystemConfig cfg, int transfers_per_core) {
  constexpr uint32_t kAccounts = 64;
  constexpr uint64_t kInitial = 1000;
  TmSystem sys(std::move(cfg));
  auto addr = [](uint32_t account) { return 0x1000 + account * 8; };
  for (uint32_t a = 0; a < kAccounts; ++a) {
    sys.shmem().StoreWord(addr(a), kInitial);
  }
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [i, transfers_per_core, &addr](CoreEnv& /*env*/, TxRuntime& rt) {
      Rng rng(1000 + i);
      for (int k = 0; k < transfers_per_core; ++k) {
        const uint32_t from = static_cast<uint32_t>(rng.NextBelow(kAccounts));
        uint32_t to = static_cast<uint32_t>(rng.NextBelow(kAccounts));
        if (to == from) {
          to = (to + 1) % kAccounts;
        }
        rt.Execute([&](Tx& tx) {
          const uint64_t fv = tx.Read(addr(from));
          const uint64_t tv = tx.Read(addr(to));
          tx.Write(addr(from), fv - 1);
          tx.Write(addr(to), tv + 1);
        });
      }
      // One balance scan (long read-only transaction) at the end.
      uint64_t total = 0;
      rt.Execute([&](Tx& tx) {
        total = 0;
        for (uint32_t a = 0; a < kAccounts; ++a) {
          total += tx.Read(addr(a));
        }
      });
      ASSERT_EQ(total, static_cast<uint64_t>(kAccounts) * kInitial);
    });
  }
  sys.Run(kTestHorizon);
  uint64_t total = 0;
  for (uint32_t a = 0; a < kAccounts; ++a) {
    total += sys.shmem().LoadWord(addr(a));
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kAccounts) * kInitial);
}

TEST(TmConcurrency, BankInvariantFairCm) { RunBankInvariantTest(BaseConfig(8, 4, CmKind::kFairCm), 40); }
TEST(TmConcurrency, BankInvariantWholly) { RunBankInvariantTest(BaseConfig(8, 4, CmKind::kWholly), 40); }
TEST(TmConcurrency, BankInvariantOffsetGreedy) {
  RunBankInvariantTest(BaseConfig(8, 4, CmKind::kOffsetGreedy), 40);
}
TEST(TmConcurrency, BankInvariantBackoff) {
  RunBankInvariantTest(BaseConfig(8, 4, CmKind::kBackoffRetry), 40);
}

TEST(TmConcurrency, BankInvariantEagerAcquisition) {
  TmSystemConfig cfg = BaseConfig(8, 4, CmKind::kFairCm);
  cfg.tm.write_acquire = WriteAcquire::kEager;
  RunBankInvariantTest(std::move(cfg), 30);
}

TEST(TmConcurrency, BankInvariantUnbatched) {
  TmSystemConfig cfg = BaseConfig(8, 4, CmKind::kFairCm);
  cfg.tm.max_batch = 1;  // scalar lock requests only
  RunBankInvariantTest(std::move(cfg), 30);
}

TEST(TmConcurrency, BankInvariantBatched) {
  TmSystemConfig cfg = BaseConfig(8, 4, CmKind::kFairCm);
  cfg.tm.max_batch = 8;  // commit write-sets travel as kBatchAcquire
  RunBankInvariantTest(std::move(cfg), 30);
}

TEST(TmConcurrency, BankInvariantMultitasked) {
  TmSystemConfig cfg = BaseConfig(6, 0, CmKind::kFairCm);
  cfg.sim.strategy = DeployStrategy::kMultitasked;
  RunBankInvariantTest(std::move(cfg), 25);
}

TEST(TmConcurrency, BankInvariantSingleServiceCore) {
  RunBankInvariantTest(BaseConfig(5, 1, CmKind::kFairCm), 30);
}

TEST(TmConflicts, VisibleReadsDetectWarEagerly) {
  // The defining property of TM2C's visible reads: a writer conflicts with
  // concurrent readers at write-lock time (WAR), not at the readers' commit
  // validation. With scanners continuously read-locking a region, writers
  // must record WAR conflicts (either refused or by revoking the readers).
  TmSystem sys(BaseConfig(4, 2, CmKind::kFairCm));
  constexpr uint64_t kBase = 0x2000;
  for (uint32_t a = 0; a < 16; ++a) {
    sys.shmem().StoreWord(kBase + a * 8, 1);
  }
  sys.SetAppBody(0, [](CoreEnv&, TxRuntime& rt) {
    for (int k = 0; k < 40; ++k) {
      rt.Execute([](Tx& tx) {
        for (uint32_t a = 0; a < 16; ++a) {
          (void)tx.Read(kBase + a * 8);
        }
      });
    }
  });
  sys.SetAppBody(1, [](CoreEnv&, TxRuntime& rt) {
    Rng rng(5);
    for (int k = 0; k < 40; ++k) {
      const uint64_t a = rng.NextBelow(16);
      rt.Execute([a](Tx& tx) { tx.Write(kBase + a * 8, tx.Read(kBase + a * 8) + 1); });
    }
  });
  sys.Run(kTestHorizon);
  const TxStats stats = sys.MergedStats();
  // WAR shows up either as refusals on the writer side or as notify-aborts
  // on the revoked reader side.
  EXPECT_GT(stats.war_conflicts + stats.notify_aborts, 0u);
}

TEST(TmConflicts, ScanSeesConsistentSnapshot) {
  // Writers keep two cells summing to a constant; scanners must never
  // observe a half-updated pair (opacity of visible reads + 2PL commit).
  TmSystem sys(BaseConfig(6, 3, CmKind::kFairCm));
  constexpr uint64_t kA = 0x3000;
  constexpr uint64_t kB = 0x3008;
  sys.shmem().StoreWord(kA, 100);
  sys.shmem().StoreWord(kB, 100);
  bool violation = false;
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    if (i % 2 == 0) {
      sys.SetAppBody(i, [i](CoreEnv&, TxRuntime& rt) {
        Rng rng(7 * (i + 1));
        for (int k = 0; k < 30; ++k) {
          const uint64_t delta = rng.NextBelow(10);
          rt.Execute([delta](Tx& tx) {
            const uint64_t a = tx.Read(kA);
            const uint64_t b = tx.Read(kB);
            tx.Write(kA, a - delta);
            tx.Write(kB, b + delta);
          });
        }
      });
    } else {
      sys.SetAppBody(i, [&violation](CoreEnv&, TxRuntime& rt) {
        for (int k = 0; k < 30; ++k) {
          uint64_t a = 0;
          uint64_t b = 0;
          rt.Execute([&a, &b](Tx& tx) {
            a = tx.Read(kA);
            b = tx.Read(kB);
          });
          if (a + b != 200) {
            violation = true;
          }
        }
      });
    }
  }
  sys.Run(kTestHorizon);
  EXPECT_FALSE(violation);
  EXPECT_EQ(sys.shmem().LoadWord(kA) + sys.shmem().LoadWord(kB), 200u);
}

TEST(TmElastic, ElasticReadTraversalCorrect) {
  // A linked-list-style chain traversed with elastic-read while another
  // core mutates values transactionally: the traversal must abort/retry on
  // changes within the validation window but still terminate and the chain
  // stays intact.
  TmSystemConfig cfg = BaseConfig(4, 2, CmKind::kFairCm);
  cfg.tm.tx_mode = TxMode::kElasticRead;
  TmSystem sys(std::move(cfg));
  // Chain of 32 nodes: node i at 0x4000+i*16, [value, next_index].
  auto node_addr = [](uint64_t i) { return 0x4000 + i * 16; };
  for (uint64_t i = 0; i < 32; ++i) {
    sys.shmem().StoreWord(node_addr(i), i * 10);
    sys.shmem().StoreWord(node_addr(i) + 8, i + 1 < 32 ? i + 1 : UINT64_MAX);
  }
  uint64_t traversals = 0;
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    for (int k = 0; k < 20; ++k) {
      uint64_t count = 0;
      rt.Execute([&](Tx& tx) {
        count = 0;
        uint64_t idx = 0;
        while (idx != UINT64_MAX) {
          (void)tx.Read(node_addr(idx));
          idx = tx.Read(node_addr(idx) + 8);
          ++count;
        }
      });
      ASSERT_EQ(count, 32u);
      ++traversals;
    }
  });
  sys.SetAppBody(1, [&](CoreEnv&, TxRuntime& rt) {
    Rng rng(3);
    for (int k = 0; k < 40; ++k) {
      const uint64_t i = rng.NextBelow(32);
      rt.Execute([&](Tx& tx) {
        tx.Write(node_addr(i), tx.Read(node_addr(i)) + 1);
      });
    }
  });
  sys.Run(kTestHorizon);
  EXPECT_EQ(traversals, 20u);
}

TEST(TmElastic, ElasticEarlyReleasesLocks) {
  TmSystemConfig cfg = BaseConfig(4, 2, CmKind::kFairCm);
  cfg.tm.tx_mode = TxMode::kElasticEarly;
  cfg.tm.elastic_window = 2;
  TmSystem sys(std::move(cfg));
  for (uint64_t i = 0; i < 16; ++i) {
    sys.shmem().StoreWord(0x5000 + i * 8, i);
  }
  sys.SetAppBody(0, [](CoreEnv&, TxRuntime& rt) {
    rt.Execute([](Tx& tx) {
      for (uint64_t i = 0; i < 16; ++i) {
        (void)tx.Read(0x5000 + i * 8);
      }
    });
  });
  sys.Run(kTestHorizon);
  const TxStats stats = sys.MergedStats();
  // 16 reads, window of 2: at least a dozen early releases.
  EXPECT_GE(stats.early_releases, 12u);
  EXPECT_EQ(stats.commits, 1u);
}

TEST(TmMigration, LiveHandoffKeepsCountersExact) {
  // Counters live in an owned range pinned to partition 0; halfway through
  // its workload, app core 0 requests a live handoff to partition 1 while
  // every core keeps incrementing. No increment may be lost across the
  // drain, the flip, or the post-flip re-routing.
  TmSystem sys(BaseConfig(8, 4, CmKind::kFairCm));
  constexpr uint64_t kBase = 0x10000;
  constexpr uint64_t kBytes = 0x200;
  constexpr uint64_t kWords = 8;
  constexpr int kIncsPerCore = 25;
  sys.address_map().AddOwnedRange(kBase, kBytes, 0);
  for (uint64_t a = 0; a < kWords; ++a) {
    sys.shmem().StoreWord(kBase + a * 8, 0);
  }
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [i](CoreEnv&, TxRuntime& rt) {
      Rng rng(100 + i);
      for (int k = 0; k < kIncsPerCore; ++k) {
        if (i == 0 && k == kIncsPerCore / 2) {
          rt.RequestMigration(kBase, kBytes, 1);
        }
        const uint64_t addr = kBase + rng.NextBelow(kWords) * 8;
        rt.Execute([addr](Tx& tx) { tx.Write(addr, tx.Read(addr) + 1); });
      }
    });
  }
  sys.Run(kTestHorizon);
  uint64_t total = 0;
  for (uint64_t a = 0; a < kWords; ++a) {
    total += sys.shmem().LoadWord(kBase + a * 8);
  }
  EXPECT_EQ(total, static_cast<uint64_t>(sys.num_app_cores()) * kIncsPerCore);
  EXPECT_EQ(sys.MergedStats().commits,
            static_cast<uint64_t>(sys.num_app_cores()) * kIncsPerCore);
  EXPECT_EQ(sys.address_map().PartitionOf(kBase), 1u);
  EXPECT_EQ(sys.ServiceAt(0).stats().migrations_started, 1u);
  EXPECT_EQ(sys.ServiceAt(0).stats().migrations_completed, 1u);
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

TEST(TmMigration, PolicyMovesHotRangeAndLeavesColdOneAlone) {
  // The policy loop: with migrate_check_every/hot_threshold armed, the
  // service partition that owns the hammered range must migrate it off on
  // its own, while the idle range it also owns stays put.
  TmSystemConfig cfg = BaseConfig(8, 4, CmKind::kFairCm);
  cfg.tm.migrate_check_every = 64;
  cfg.tm.migrate_hot_threshold = 32;
  TmSystem sys(std::move(cfg));
  constexpr uint64_t kHot = 0x20000;
  constexpr uint64_t kCold = 0x30000;
  sys.address_map().AddOwnedRange(kHot, 0x100, 0);
  sys.address_map().AddOwnedRange(kCold, 0x100, 0);
  constexpr int kIncsPerCore = 25;
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [i](CoreEnv&, TxRuntime& rt) {
      Rng rng(200 + i);
      for (int k = 0; k < kIncsPerCore; ++k) {
        const uint64_t addr = kHot + rng.NextBelow(8) * 8;
        rt.Execute([addr](Tx& tx) { tx.Write(addr, tx.Read(addr) + 1); });
      }
    });
  }
  sys.Run(kTestHorizon);
  uint64_t total = 0;
  for (uint64_t a = 0; a < 8; ++a) {
    total += sys.shmem().LoadWord(kHot + a * 8);
  }
  EXPECT_EQ(total, static_cast<uint64_t>(sys.num_app_cores()) * kIncsPerCore);
  uint64_t started = 0;
  uint64_t completed = 0;
  for (uint32_t p = 0; p < 4; ++p) {
    started += sys.ServiceAt(p).stats().migrations_started;
    completed += sys.ServiceAt(p).stats().migrations_completed;
  }
  // The hot range moved at least once, and successive owners keep passing
  // it along (each sees the same heat): every completed hop goes to the
  // next partition, so the final owner is the hop count mod the partition
  // count. The cold range never moved.
  EXPECT_GE(started, 1u);
  EXPECT_GE(completed, 1u);
  EXPECT_EQ(sys.address_map().version(), completed);
  EXPECT_EQ(sys.address_map().PartitionOf(kHot), completed % 4);
  EXPECT_EQ(sys.address_map().PartitionOf(kCold), 0u);
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

TEST(TmFastPath, StaleRefusalAccountingParityWithWirePath) {
  // The owner-local fast path (a direct DtmService::Admit) must account a request
  // from an already-revoked attempt exactly like the wire path does:
  // counted as stale_requests_refused, refused with the original conflict
  // kind. Same multitasked hot-counter workload, fast path off then on:
  // both runs complete exactly, and both account stale refusals from the
  // revocations the contention necessarily produces.
  for (const bool fast_path : {false, true}) {
    TmSystemConfig cfg = BaseConfig(6, 0, CmKind::kFairCm);
    cfg.sim.strategy = DeployStrategy::kMultitasked;
    cfg.tm.local_fast_path = fast_path;
    TmSystem sys(std::move(cfg));
    constexpr uint64_t kBase = 0x40000;
    constexpr uint64_t kWords = 4;
    constexpr int kIncsPerCore = 30;
    sys.address_map().AddOwnedRange(kBase, kWords * 8, 0);
    for (uint64_t a = 0; a < kWords; ++a) {
      sys.shmem().StoreWord(kBase + a * 8, 0);
    }
    for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
      sys.SetAppBody(i, [i](CoreEnv&, TxRuntime& rt) {
        Rng rng(300 + i);
        for (int k = 0; k < kIncsPerCore; ++k) {
          const uint64_t addr = kBase + rng.NextBelow(kWords) * 8;
          rt.Execute([addr](Tx& tx) { tx.Write(addr, tx.Read(addr) + 1); });
        }
      });
    }
    sys.Run(kTestHorizon);
    uint64_t total = 0;
    for (uint64_t a = 0; a < kWords; ++a) {
      total += sys.shmem().LoadWord(kBase + a * 8);
    }
    EXPECT_EQ(total, static_cast<uint64_t>(sys.num_app_cores()) * kIncsPerCore)
        << "fast_path=" << fast_path;
    uint64_t stale = 0;
    uint64_t direct = 0;
    for (uint32_t p = 0; p < sys.deployment().num_service(); ++p) {
      stale += sys.ServiceAt(p).stats().stale_requests_refused;
      direct += sys.ServiceAt(p).stats().local_direct_requests;
    }
    EXPECT_GT(stale, 0u) << "fast_path=" << fast_path;
    if (fast_path) {
      EXPECT_GT(direct, 0u);
    } else {
      EXPECT_EQ(direct, 0u);
    }
  }
}

TEST(TmProgress, FairCmStarvationFree) {
  // Adversarial workload: one long scanner vs 5 writers hammering the same
  // region. Under FairCM every transaction must commit within a bounded
  // number of attempts.
  TmSystem sys(BaseConfig(8, 2, CmKind::kFairCm));
  for (uint32_t a = 0; a < 32; ++a) {
    sys.shmem().StoreWord(0x6000 + a * 8, 0);
  }
  bool scanner_ok = false;
  sys.SetAppBody(0, [&scanner_ok](CoreEnv&, TxRuntime& rt) {
    for (int k = 0; k < 10; ++k) {
      const bool committed = rt.TryExecute(
          [](Tx& tx) {
            for (uint32_t a = 0; a < 32; ++a) {
              (void)tx.Read(0x6000 + a * 8);
            }
          },
          /*max_attempts=*/200);
      ASSERT_TRUE(committed) << "scanner starved at iteration " << k;
    }
    scanner_ok = true;
  });
  for (uint32_t i = 1; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [i](CoreEnv&, TxRuntime& rt) {
      Rng rng(i);
      for (int k = 0; k < 150; ++k) {
        const uint64_t a = rng.NextBelow(32);
        rt.Execute([a](Tx& tx) { tx.Write(0x6000 + a * 8, tx.Read(0x6000 + a * 8) + 1); });
      }
    });
  }
  sys.Run(kTestHorizon);
  EXPECT_TRUE(scanner_ok);
}

TEST(TmProgress, WhollyStarvationFree) {
  TmSystem sys(BaseConfig(8, 2, CmKind::kWholly));
  for (uint32_t a = 0; a < 32; ++a) {
    sys.shmem().StoreWord(0x6000 + a * 8, 0);
  }
  bool scanner_ok = false;
  sys.SetAppBody(0, [&scanner_ok](CoreEnv&, TxRuntime& rt) {
    for (int k = 0; k < 5; ++k) {
      const bool committed = rt.TryExecute(
          [](Tx& tx) {
            for (uint32_t a = 0; a < 32; ++a) {
              (void)tx.Read(0x6000 + a * 8);
            }
          },
          /*max_attempts=*/500);
      ASSERT_TRUE(committed) << "scanner starved at iteration " << k;
    }
    scanner_ok = true;
  });
  for (uint32_t i = 1; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [i](CoreEnv&, TxRuntime& rt) {
      Rng rng(i);
      for (int k = 0; k < 120; ++k) {
        const uint64_t a = rng.NextBelow(32);
        rt.Execute([a](Tx& tx) { tx.Write(0x6000 + a * 8, tx.Read(0x6000 + a * 8) + 1); });
      }
    });
  }
  sys.Run(kTestHorizon);
  EXPECT_TRUE(scanner_ok);
}

TEST(TmStats, AbortsAndConflictsAreCounted) {
  TmSystem sys(BaseConfig(8, 4, CmKind::kBackoffRetry));
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [](CoreEnv&, TxRuntime& rt) {
      for (int k = 0; k < 30; ++k) {
        rt.Execute([](Tx& tx) { tx.Write(0x7000, tx.Read(0x7000) + 1); });
      }
    });
  }
  sys.Run(kTestHorizon);
  const TxStats stats = sys.MergedStats();
  EXPECT_EQ(stats.commits, static_cast<uint64_t>(sys.num_app_cores()) * 30);
  EXPECT_GT(stats.aborts, 0u);  // contention on one word must cause aborts
  EXPECT_GT(stats.raw_conflicts + stats.waw_conflicts + stats.war_conflicts +
                stats.notify_aborts,
            0u);
  EXPECT_GT(stats.messages_sent, 0u);
  EXPECT_LT(stats.CommitRate(), 1.0);
}

}  // namespace
}  // namespace tm2c
