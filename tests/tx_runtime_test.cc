// Behavioural tests of the transaction runtime on top of TmSystem.
#include <gtest/gtest.h>

#include "src/tm/tm_system.h"

namespace tm2c {
namespace {

constexpr SimTime kHorizon = MillisToSim(2000);

TmSystemConfig Config(CmKind cm = CmKind::kFairCm) {
  TmSystemConfig cfg;
  cfg.sim.platform = MakeSccPlatform(0);
  cfg.sim.num_cores = 6;
  cfg.sim.num_service = 3;
  cfg.sim.shmem_bytes = 1 << 20;
  cfg.sim.seed = 17;
  cfg.tm.cm = cm;
  return cfg;
}

TEST(TxRuntime, ReadCachingSendsNoSecondMessage) {
  TmSystem sys(Config());
  uint64_t msgs_first = 0;
  uint64_t msgs_second = 0;
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    rt.Execute([&](Tx& tx) {
      (void)tx.Read(0x100);
      msgs_first = rt.stats().messages_sent;
      (void)tx.Read(0x100);  // cached: same value, no message
      msgs_second = rt.stats().messages_sent;
    });
  });
  sys.Run(kHorizon);
  EXPECT_GT(msgs_first, 0u);
  EXPECT_EQ(msgs_second, msgs_first);
}

TEST(TxRuntime, WriteIsBufferedUntilCommit) {
  TmSystem sys(Config());
  uint64_t mid_tx_value = 1;
  sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime& rt) {
    rt.Execute([&](Tx& tx) {
      tx.Write(0x200, 9);
      mid_tx_value = env.shmem().LoadWord(0x200);  // host peek: not yet visible
    });
  });
  sys.Run(kHorizon);
  EXPECT_EQ(mid_tx_value, 0u);
  EXPECT_EQ(sys.shmem().LoadWord(0x200), 9u);
}

TEST(TxRuntime, EagerModeTakesWriteLockAtWriteTime) {
  TmSystemConfig cfg = Config();
  cfg.tm.write_acquire = WriteAcquire::kEager;
  TmSystem sys(std::move(cfg));
  bool locked_mid_tx = false;
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    const uint64_t addr = 0x300;
    const uint32_t partition = sys.address_map().PartitionOf(addr);
    rt.Execute([&](Tx& tx) {
      tx.Write(addr, 1);
      // The simulator is single-threaded: it is safe to inspect the remote
      // lock table from inside the transaction body.
      locked_mid_tx = sys.ServiceAt(partition).lock_table().HasWriter(addr, nullptr);
    });
  });
  sys.Run(kHorizon);
  EXPECT_TRUE(locked_mid_tx);
}

TEST(TxRuntime, LazyModeDelaysWriteLockToCommit) {
  TmSystem sys(Config());
  bool locked_mid_tx = true;
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    const uint64_t addr = 0x300;
    const uint32_t partition = sys.address_map().PartitionOf(addr);
    rt.Execute([&](Tx& tx) {
      tx.Write(addr, 1);
      locked_mid_tx = sys.ServiceAt(partition).lock_table().HasWriter(addr, nullptr);
    });
  });
  sys.Run(kHorizon);
  EXPECT_FALSE(locked_mid_tx);
}

TEST(TxRuntime, LocksDrainAfterCompletion) {
  TmSystem sys(Config());
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [i](CoreEnv&, TxRuntime& rt) {
      Rng rng(i);
      for (int k = 0; k < 50; ++k) {
        const uint64_t a = 0x400 + rng.NextBelow(32) * 8;
        const uint64_t b = 0x400 + rng.NextBelow(32) * 8;
        rt.Execute([a, b](Tx& tx) {
          const uint64_t va = tx.Read(a);
          tx.Write(b, va + tx.Read(b));
        });
      }
    });
  }
  sys.Run(kHorizon);
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

TEST(TxRuntime, FairCmEffectiveTimeCountsOnlyCommits) {
  TmSystem sys(Config(CmKind::kFairCm));
  SimTime eff_after_commit = 0;
  sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime& rt) {
    EXPECT_EQ(rt.effective_tx_time(), 0u);
    rt.Execute([&env](Tx& tx) {
      tx.Write(0x500, 1);
      env.Compute(100000);
    });
    eff_after_commit = rt.effective_tx_time();
    EXPECT_EQ(rt.commits_count(), 1u);
  });
  sys.Run(kHorizon);
  // At least the explicit compute time must be accounted.
  EXPECT_GE(eff_after_commit, MakeSccPlatform(0).CoreCyclesToPs(100000));
}

TEST(TxRuntime, TryExecuteGivesUpAfterMaxAttempts) {
  // A transaction that always hits a foreign writer under no-CM: core 1
  // parks an (eagerly acquired) write lock on the word for the whole test,
  // so core 0's reads keep being refused.
  TmSystemConfig cfg = Config(CmKind::kNone);
  cfg.tm.write_acquire = WriteAcquire::kEager;
  TmSystem sys(std::move(cfg));
  uint64_t attempts_used = 0;
  bool committed = true;
  sys.SetAppBody(1, [](CoreEnv& env, TxRuntime& rt) {
    rt.Execute([&env](Tx& tx) {
      tx.Write(0x600, 1);          // eager: write lock held from here on
      env.Compute(100000000);      // ~187 ms of simulated hold time
    });
  });
  sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime& rt) {
    env.Compute(1000000);  // let core 1 acquire its read lock first
    committed = rt.TryExecute([](Tx& tx) { (void)tx.Read(0x600); }, /*max_attempts=*/7);
    attempts_used = rt.stats().aborts;
  });
  sys.Run(kHorizon);
  EXPECT_FALSE(committed);
  EXPECT_EQ(attempts_used, 7u);
}

TEST(TxRuntime, ElasticEarlyKeepsOnlyWindowLocks) {
  TmSystemConfig cfg = Config();
  cfg.tm.tx_mode = TxMode::kElasticEarly;
  cfg.tm.elastic_window = 2;
  TmSystem sys(std::move(cfg));
  size_t held_after_ten_reads = 99;
  sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime& rt) {
    rt.Execute([&](Tx& tx) {
      for (uint64_t i = 0; i < 10; ++i) {
        (void)tx.Read(0x700 + i * 8);
      }
      size_t held = 0;
      for (uint64_t i = 0; i < 10; ++i) {
        const uint64_t addr = 0x700 + i * 8;
        if (sys.ServiceAt(sys.address_map().PartitionOf(addr))
                .lock_table()
                .HasReader(addr, env.core_id())) {
          ++held;
        }
      }
      held_after_ten_reads = held;
    });
  });
  sys.Run(kHorizon);
  // Early releases are fire-and-forget messages: a release may still be in
  // flight when we count, so allow window..window+2.
  EXPECT_GE(held_after_ten_reads, 2u);
  EXPECT_LE(held_after_ten_reads, 4u);
}

TEST(TxRuntime, ElasticReadTakesNoReadLocks) {
  TmSystemConfig cfg = Config();
  cfg.tm.tx_mode = TxMode::kElasticRead;
  TmSystem sys(std::move(cfg));
  size_t read_locks_seen = 99;
  sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime& rt) {
    rt.Execute([&](Tx& tx) {
      for (uint64_t i = 0; i < 8; ++i) {
        (void)tx.Read(0x800 + i * 8);
      }
      size_t held = 0;
      for (uint64_t i = 0; i < 8; ++i) {
        const uint64_t addr = 0x800 + i * 8;
        if (sys.ServiceAt(sys.address_map().PartitionOf(addr))
                .lock_table()
                .HasReader(addr, env.core_id())) {
          ++held;
        }
      }
      read_locks_seen = held;
    });
  });
  sys.Run(kHorizon);
  EXPECT_EQ(read_locks_seen, 0u);
}

TEST(TxRuntime, ElasticReadValidationFailureAborts) {
  TmSystemConfig cfg = Config();
  cfg.tm.tx_mode = TxMode::kElasticRead;
  cfg.tm.elastic_window = 2;
  TmSystem sys(std::move(cfg));
  sys.shmem().StoreWord(0x900, 5);
  uint64_t failures = 0;
  sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime& rt) {
    int attempt = 0;
    rt.Execute([&](Tx& tx) {
      ++attempt;
      (void)tx.Read(0x900);
      if (attempt == 1) {
        // A "concurrent" writer changes the word inside the window —
        // host-side poke stands in for a committed foreign transaction
        // (weak atomicity makes this legal).
        env.shmem().StoreWord(0x900, 6);
      }
      (void)tx.Read(0x908);  // validates 0x900: fails on attempt 1
    });
    failures = rt.stats().validation_failures;
  });
  sys.Run(kHorizon);
  EXPECT_EQ(failures, 1u);
}

TEST(TxRuntime, PrivatizationBarrierSynchronizesAppCores) {
  TmSystem sys(Config());
  const uint32_t n = sys.num_app_cores();
  std::vector<uint64_t> seen_sum(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    sys.SetAppBody(i, [&, i](CoreEnv& env, TxRuntime& rt) {
      // Phase 1: every core transactionally publishes a value.
      rt.Execute([&, i](Tx& tx) { tx.Write(0xA00 + i * 8, i + 1); });
      env.Compute(1000 * (i + 1));  // desynchronize arrival
      rt.PrivatizationBarrier();
      // Phase 2: data is private; read it without transactions.
      uint64_t sum = 0;
      for (uint32_t j = 0; j < n; ++j) {
        sum += env.ShmemRead(0xA00 + j * 8);
      }
      seen_sum[i] = sum;
    });
  }
  sys.Run(kHorizon);
  const uint64_t expected = static_cast<uint64_t>(n) * (n + 1) / 2;
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(seen_sum[i], expected) << "core " << i;
  }
}

TEST(TxRuntime, PrivatizationBarrierReusableAcrossGenerations) {
  TmSystem sys(Config());
  const uint32_t n = sys.num_app_cores();
  std::vector<int> rounds_done(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    sys.SetAppBody(i, [&, i](CoreEnv& env, TxRuntime& rt) {
      Rng rng(i + 1);
      for (int round = 0; round < 5; ++round) {
        rt.Execute([&](Tx& tx) { tx.Write(0xB00 + i * 8, rng.Next()); });
        env.Compute(rng.NextBelow(50000));  // races between generations
        rt.PrivatizationBarrier();
        ++rounds_done[i];
      }
    });
  }
  sys.Run(kHorizon);
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(rounds_done[i], 5) << "core " << i;
  }
}

// The determinism regressions compare whole TxStats values, so equality and
// Merge must see every field — in particular the pipelining additions
// (local/remote acquire split, in-flight depth histogram). A field missed
// here would make two genuinely different runs compare equal.
TEST(TxStatsValue, EqualityDistinguishesPipelineFields) {
  TxStats base;
  base.commits = 3;
  base.lock_acquires = 10;
  base.remote_acquires = 10;
  base.inflight_depth_hist[0] = 10;

  TxStats same = base;
  EXPECT_TRUE(base == same);

  TxStats local_differs = base;
  local_differs.local_acquires = 1;
  EXPECT_TRUE(base != local_differs);

  TxStats remote_differs = base;
  remote_differs.remote_acquires = 9;
  EXPECT_TRUE(base != remote_differs);

  TxStats hist_differs = base;
  hist_differs.inflight_depth_hist[0] = 9;
  hist_differs.inflight_depth_hist[3] = 1;
  EXPECT_TRUE(base != hist_differs);
}

TEST(TxStatsValue, MergeSumsPipelineFieldsAndKeepsMaxAttempts) {
  TxStats a;
  a.lock_acquires = 8;
  a.local_acquires = 5;
  a.remote_acquires = 3;
  a.inflight_depth_hist[0] = 2;
  a.inflight_depth_hist[2] = 1;
  a.max_attempts_per_tx = 4;

  TxStats b;
  b.lock_acquires = 6;
  b.local_acquires = 1;
  b.remote_acquires = 5;
  b.inflight_depth_hist[2] = 3;
  b.inflight_depth_hist[7] = 2;
  b.max_attempts_per_tx = 2;

  a.Merge(b);
  EXPECT_EQ(a.lock_acquires, 14u);
  EXPECT_EQ(a.local_acquires, 6u);
  EXPECT_EQ(a.remote_acquires, 8u);
  EXPECT_EQ(a.local_acquires + a.remote_acquires, a.lock_acquires);
  EXPECT_EQ(a.inflight_depth_hist[0], 2u);
  EXPECT_EQ(a.inflight_depth_hist[2], 4u);
  EXPECT_EQ(a.inflight_depth_hist[7], 2u);
  EXPECT_EQ(a.max_attempts_per_tx, 4u);  // max, not sum
}

// Shared multi-address workload: every core runs transactions that touch
// several stripes, so commit-time write-lock acquisition has something to
// batch.
TxStats RunBatchWorkload(TmSystemConfig cfg) {
  TmSystem sys(std::move(cfg));
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [i](CoreEnv&, TxRuntime& rt) {
      Rng rng(1000 + i);
      for (int k = 0; k < 30; ++k) {
        const uint64_t base = 0x1000 + rng.NextBelow(256) * 8;
        rt.Execute([base](Tx& tx) {
          for (uint64_t w = 0; w < 6; ++w) {
            const uint64_t addr = base + w * 8;
            tx.Write(addr, tx.Read(addr) + 1);
          }
        });
      }
    });
  }
  sys.Run(kHorizon);
  return sys.MergedStats();
}

TEST(TxRuntime, MaxBatchOneIsByteIdenticalToUnbatchedDefault) {
  // TmConfig's default (max_batch unset) IS the unbatched path; an
  // explicit max_batch = 1 must not engage any part of the batch protocol,
  // down to every timing-sensitive statistic.
  TmSystemConfig defaults = Config();
  TmSystemConfig explicit_one = Config();
  explicit_one.tm.max_batch = 1;
  const TxStats a = RunBatchWorkload(std::move(defaults));
  const TxStats b = RunBatchWorkload(std::move(explicit_one));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.batch_messages, 0u);  // the batch protocol never fired
  EXPECT_GT(a.commits, 0u);
}

TEST(TxRuntime, BatchedCommitSendsFewerMessages) {
  TmSystemConfig unbatched = Config();
  unbatched.tm.max_batch = 1;
  TmSystemConfig batched = Config();
  batched.tm.max_batch = 8;
  const TxStats a = RunBatchWorkload(std::move(unbatched));
  const TxStats b = RunBatchWorkload(std::move(batched));
  ASSERT_GT(a.commits, 0u);
  ASSERT_GT(b.commits, 0u);
  EXPECT_GT(b.batch_messages, 0u);
  // Same number of stripes acquired per committed transaction, carried by
  // fewer messages: compare per-commit message rates (commit counts differ
  // because batching changes the timing).
  const double msgs_per_commit_unbatched =
      static_cast<double>(a.messages_sent) / static_cast<double>(a.commits);
  const double msgs_per_commit_batched =
      static_cast<double>(b.messages_sent) / static_cast<double>(b.commits);
  EXPECT_LT(msgs_per_commit_batched, msgs_per_commit_unbatched);
  // And the per-stripe mean acquire latency drops: one round trip covers
  // several stripes.
  const double mean_acquire_unbatched =
      static_cast<double>(a.acquire_time) / static_cast<double>(a.lock_acquires);
  const double mean_acquire_batched =
      static_cast<double>(b.acquire_time) / static_cast<double>(b.lock_acquires);
  EXPECT_LT(mean_acquire_batched, mean_acquire_unbatched);
}

TEST(TxRuntime, BatchedRunDrainsAllLocks) {
  TmSystemConfig cfg = Config();
  cfg.tm.max_batch = 8;
  TmSystem sys(std::move(cfg));
  for (uint32_t i = 0; i < sys.num_app_cores(); ++i) {
    sys.SetAppBody(i, [i](CoreEnv&, TxRuntime& rt) {
      Rng rng(i);
      for (int k = 0; k < 50; ++k) {
        const uint64_t a = 0x400 + rng.NextBelow(32) * 8;
        const uint64_t b = 0x400 + rng.NextBelow(32) * 8;
        rt.Execute([a, b](Tx& tx) {
          const uint64_t va = tx.Read(a);
          tx.Write(b, va + tx.Read(b));
        });
      }
    });
  }
  sys.Run(kHorizon);
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

TEST(TxRuntime, ReadManyMatchesScalarReadsAndBatchesLocks) {
  TmSystemConfig cfg = Config();
  cfg.tm.max_batch = 8;
  TmSystem sys(std::move(cfg));
  std::vector<uint64_t> addrs;
  for (uint64_t i = 0; i < 12; ++i) {
    const uint64_t addr = 0x2000 + i * 8;
    addrs.push_back(addr);
    sys.shmem().StoreWord(addr, 100 + i);
  }
  std::vector<uint64_t> batched_values;
  std::vector<uint64_t> scalar_values;
  uint64_t batch_msgs = 0;
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    rt.Execute([&](Tx& tx) { batched_values = tx.ReadMany(addrs); });
    batch_msgs = rt.stats().batch_messages;
    rt.Execute([&](Tx& tx) {
      scalar_values.clear();  // aborts would otherwise accumulate
      for (uint64_t addr : addrs) {
        scalar_values.push_back(tx.Read(addr));
      }
    });
  });
  sys.Run(kHorizon);
  EXPECT_EQ(batched_values, scalar_values);
  ASSERT_EQ(batched_values.size(), addrs.size());
  for (uint64_t i = 0; i < addrs.size(); ++i) {
    EXPECT_EQ(batched_values[i], 100 + i);
  }
  EXPECT_GT(batch_msgs, 0u);
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

TEST(TxRuntime, ReadManyFallsBackToScalarWhenUnbatched) {
  TmSystem sys(Config());  // max_batch defaults to 1
  std::vector<uint64_t> values;
  uint64_t batch_msgs = 99;
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    rt.Execute([&](Tx& tx) { values = tx.ReadMany({0x3000, 0x3008, 0x3010}); });
    batch_msgs = rt.stats().batch_messages;
  });
  sys.Run(kHorizon);
  EXPECT_EQ(values.size(), 3u);
  EXPECT_EQ(batch_msgs, 0u);
}

// ---------------------------------------------------------------------------
// Elastic-mode edge cases: degenerate windows and the interplay between
// early release and ReadMany (the kEarlyReadRelease path).
// ---------------------------------------------------------------------------

TEST(TxElasticEdge, WindowZeroPinsEveryReadLock) {
  // elastic_window = 0 degenerates to normal-mode locking: the
  // just-acquired stripe is popped from the order list but is "still
  // needed", so it stays locked (and untracked for release) until commit.
  // No early release is ever sent.
  TmSystemConfig cfg = Config();
  cfg.tm.tx_mode = TxMode::kElasticEarly;
  cfg.tm.elastic_window = 0;
  TmSystem sys(std::move(cfg));
  size_t held_mid_tx = 0;
  uint64_t releases = 99;
  sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime& rt) {
    rt.Execute([&](Tx& tx) {
      for (uint64_t i = 0; i < 8; ++i) {
        (void)tx.Read(0x700 + i * 8);
      }
      held_mid_tx = 0;
      for (uint64_t i = 0; i < 8; ++i) {
        const uint64_t addr = 0x700 + i * 8;
        if (sys.ServiceAt(sys.address_map().PartitionOf(addr))
                .lock_table()
                .HasReader(addr, env.core_id())) {
          ++held_mid_tx;
        }
      }
    });
    releases = rt.stats().early_releases;
  });
  sys.Run(kHorizon);
  EXPECT_EQ(held_mid_tx, 8u);
  EXPECT_EQ(releases, 0u);
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

TEST(TxElasticEdge, WindowLargerThanReadSetReleasesNothing) {
  TmSystemConfig cfg = Config();
  cfg.tm.tx_mode = TxMode::kElasticEarly;
  cfg.tm.elastic_window = 64;  // far larger than the 8-read set
  TmSystem sys(std::move(cfg));
  size_t held_mid_tx = 0;
  uint64_t releases = 99;
  sys.SetAppBody(0, [&](CoreEnv& env, TxRuntime& rt) {
    rt.Execute([&](Tx& tx) {
      for (uint64_t i = 0; i < 8; ++i) {
        (void)tx.Read(0x700 + i * 8);
      }
      held_mid_tx = 0;
      for (uint64_t i = 0; i < 8; ++i) {
        const uint64_t addr = 0x700 + i * 8;
        if (sys.ServiceAt(sys.address_map().PartitionOf(addr))
                .lock_table()
                .HasReader(addr, env.core_id())) {
          ++held_mid_tx;
        }
      }
    });
    releases = rt.stats().early_releases;
  });
  sys.Run(kHorizon);
  // The window never fills: behaviour is exactly normal-mode visible reads.
  EXPECT_EQ(held_mid_tx, 8u);
  EXPECT_EQ(releases, 0u);
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

TEST(TxElasticEdge, ReadManyUnderElasticEarlyMatchesScalarReads) {
  // Elastic modes keep their per-read window semantics: ReadMany must fall
  // back to the scalar path even when batching is enabled, down to every
  // statistic (batching the acquisitions would change which reads are
  // protected when).
  auto run = [](bool use_read_many) {
    TmSystemConfig cfg = Config();
    cfg.tm.tx_mode = TxMode::kElasticEarly;
    cfg.tm.elastic_window = 2;
    cfg.tm.max_batch = 8;
    TmSystem sys(std::move(cfg));
    std::vector<uint64_t> addrs;
    for (uint64_t i = 0; i < 10; ++i) {
      addrs.push_back(0x900 + i * 8);
      sys.shmem().StoreWord(0x900 + i * 8, 500 + i);
    }
    std::vector<uint64_t> values;
    sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
      rt.Execute([&](Tx& tx) {
        if (use_read_many) {
          values = tx.ReadMany(addrs);
        } else {
          values.clear();
          for (uint64_t addr : addrs) {
            values.push_back(tx.Read(addr));
          }
        }
      });
    });
    sys.Run(kHorizon);
    return std::make_pair(values, sys.MergedStats());
  };
  const auto [many_values, many_stats] = run(true);
  const auto [scalar_values, scalar_stats] = run(false);
  EXPECT_EQ(many_values, scalar_values);
  EXPECT_EQ(many_stats, scalar_stats);
  EXPECT_EQ(many_stats.batch_messages, 0u);  // fallback: no batch protocol
  EXPECT_GT(many_stats.early_releases, 0u);  // the window did slide
}

TEST(TxElasticEdge, EarlyReleaseInterleavesWithReadManyWindow) {
  // Scalar reads fill the window, then a ReadMany continues sliding it:
  // with window = 2, reads r0..r5 early-release r0..r3 (each read beyond
  // the second evicts the then-oldest).
  TmSystemConfig cfg = Config();
  cfg.tm.tx_mode = TxMode::kElasticEarly;
  cfg.tm.elastic_window = 2;
  cfg.tm.max_batch = 8;
  TmSystem sys(std::move(cfg));
  for (uint64_t i = 0; i < 6; ++i) {
    sys.shmem().StoreWord(0xA00 + i * 8, 30 + i);
  }
  std::vector<uint64_t> values;
  uint64_t releases = 0;
  sys.SetAppBody(0, [&](CoreEnv&, TxRuntime& rt) {
    rt.Execute([&](Tx& tx) {
      values.clear();
      values.push_back(tx.Read(0xA00));
      values.push_back(tx.Read(0xA08));
      values.push_back(tx.Read(0xA10));  // evicts 0xA00
      const std::vector<uint64_t> tail = tx.ReadMany({0xA18, 0xA20, 0xA28});
      values.insert(values.end(), tail.begin(), tail.end());
    });
    releases = rt.stats().early_releases;
  });
  sys.Run(kHorizon);
  ASSERT_EQ(values.size(), 6u);
  for (uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(values[i], 30 + i);
  }
  EXPECT_EQ(releases, 4u);
  EXPECT_TRUE(sys.AllLockTablesEmpty());
}

TEST(TxRuntime, NestedTransactionsRejected) {
  TmSystem sys(Config());
  sys.SetAppBody(0, [](CoreEnv&, TxRuntime& rt) {
    rt.Execute([&rt](Tx&) {
      EXPECT_DEATH(rt.Execute([](Tx&) {}), "nested");
    });
  });
  sys.Run(kHorizon);
}


}  // namespace
}  // namespace tm2c
