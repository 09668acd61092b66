// Micro-benchmarks of the host-side building blocks: lock-table
// operations, the contention managers' decision path, the CoreSet, the
// allocator, the fiber switch, the event engine and the RNG. These measure
// real CPU cost, not simulated time — they bound how fast the simulator
// itself can run experiments.
//
// Each micro-op runs in timed batches on the host clock; a sample is the
// per-op time of one batch, so the reported percentiles are host-side
// latencies in microseconds and throughput is host ops/ms. Nothing can
// abort here, so commit_rate is 1 by construction.
//
// Under --backend=threads the bench instead measures the native transport
// itself: the same tiny-transaction workload (per-core counter increments,
// conflict-free, so every operation is pure protocol messaging) run once
// over the v1 mutex-and-condvar mailboxes and once over the lock-free SPSC
// rings, on real OS threads with wall-clock timing. The spsc row carries
// the channel speedup as extra `speedup_vs_mutex`.
#include <chrono>

#include "bench/bench_util.h"
#include "src/cm/contention_manager.h"
#include "src/common/core_set.h"
#include "src/common/rng.h"
#include "src/dslock/lock_table.h"
#include "src/noc/topology.h"
#include "src/shmem/allocator.h"
#include "src/sim/engine.h"

namespace tm2c {
namespace {

TxInfo Info(uint32_t core, uint64_t metric) {
  TxInfo info;
  info.core = core;
  info.epoch = (static_cast<uint64_t>(core) << 32) | 1;
  info.metric = metric;
  return info;
}

double HostNowUs() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  return static_cast<double>(ns) / 1000.0;
}

// Runs `op` in `batches` timed batches of `batch` calls and reports one
// standard row: each latency sample is one batch's mean per-op time.
template <typename Op>
void Measure(BenchContext& ctx, const char* name, uint64_t batch, uint64_t batches, Op op) {
  // Warm up caches and branch predictors outside the timed region.
  for (uint64_t i = 0; i < batch; ++i) {
    op();
  }
  LatencySampler lat;
  const uint64_t rounds = ctx.Iterations(batches);
  const double start_us = HostNowUs();
  for (uint64_t b = 0; b < rounds; ++b) {
    const double t0 = HostNowUs();
    for (uint64_t i = 0; i < batch; ++i) {
      op();
    }
    lat.Add((HostNowUs() - t0) / static_cast<double>(batch));
  }
  const double elapsed_ms = (HostNowUs() - start_us) / 1000.0;
  BenchRow row;
  row.Param("micro", name);
  row.ops_per_ms =
      elapsed_ms > 0.0 ? static_cast<double>(rounds * batch) / elapsed_ms : 0.0;
  row.commits = rounds * batch;
  row.latency = SummarizeLatency(lat);
  ctx.Report(row);
}

// Native transport comparison (--backend=threads): commit throughput of
// the TM protocol over mutex mailboxes vs SPSC rings on this host. The
// workload is message-bound by construction — single-word read-modify-write
// transactions on per-core counters, no contention, no synthetic compute —
// so the row ratio is the channel speedup the v2 backend exists for.
void RunNativeChannels(BenchContext& ctx) {
  const uint32_t cores = ctx.Cores(4);
  const uint32_t service = ctx.ServiceCores(cores >= 2 ? cores / 2 : 1);
  double mutex_ops_per_ms = 0.0;
  for (const ChannelKind channel : {ChannelKind::kMutexMailbox, ChannelKind::kSpscRing}) {
    RunSpec spec = ctx.Spec(200, 21, CmKind::kBackoffRetry);
    spec.total_cores = cores;
    spec.service_cores = service;
    spec.backend = BackendKind::kThreads;
    spec.channel = channel;  // the sweep dimension; overrides --channel
    TmSystem sys(MakeConfig(spec));
    const uint64_t base = sys.allocator().AllocGlobal(uint64_t{cores} * kCacheLineBytes);
    LatencySampler lat;
    InstallLoopBodies(sys, spec.duration, spec.seed,
                      [base](CoreEnv& env, TxRuntime& rt, Rng&) {
                        const uint64_t addr = base + env.core_id() * kCacheLineBytes;
                        rt.Execute([addr](Tx& tx) { tx.Write(addr, tx.Read(addr) + 1); });
                      },
                      &lat);
    sys.Run();
    BenchRow row;
    row.Param("micro", "tm_counter")
        .Param("channel", ChannelKindName(channel))
        .Param("cores", uint64_t{cores})
        .Param("service_cores", uint64_t{service})
        .Tx(sys, spec.duration, lat);
    if (channel == ChannelKind::kMutexMailbox) {
      mutex_ops_per_ms = row.ops_per_ms;
    } else if (mutex_ops_per_ms > 0.0) {
      row.Extra("speedup_vs_mutex", row.ops_per_ms / mutex_ops_per_ms);
    }
    ctx.Report(row);
  }
}

void Run(BenchContext& ctx) {
  if (ctx.native()) {
    RunNativeChannels(ctx);
    return;
  }
  {
    LockTable table;
    const auto cm = MakeContentionManager(CmKind::kFairCm);
    uint64_t addr = 0;
    Measure(ctx, "lock_table_read_acquire_release", 64, 2000, [&]() {
      table.ReadLock(Info(1, 0), addr, *cm);
      table.ReleaseRead(1, addr);
      addr = (addr + 8) & 0xffff;
    });
  }
  {
    LockTable table;
    const auto cm = MakeContentionManager(CmKind::kFairCm);
    // Ten readers on the contested word; the writer must beat all of them.
    for (uint32_t r = 2; r < 12; ++r) {
      table.ReadLock(Info(r, 100), 0x100, *cm);
    }
    volatile int refused = 0;
    Measure(ctx, "lock_table_write_conflict", 64, 2000, [&]() {
      refused = static_cast<int>(table.WriteLock(Info(1, 1000), 0x100, *cm).refused);
    });
  }
  {
    const auto cm = MakeContentionManager(CmKind::kFairCm);
    std::vector<TxInfo> holders;
    for (uint32_t r = 0; r < 10; ++r) {
      holders.push_back(Info(r + 2, 50 + r));
    }
    volatile int decision = 0;
    Measure(ctx, "cm_decide_ten_holders", 64, 2000, [&]() {
      decision = static_cast<int>(cm->Decide(Info(1, 10), holders, ConflictKind::kWriteAfterRead));
    });
  }
  {
    CoreSet set;
    volatile uint64_t sink = 0;
    Measure(ctx, "core_set_insert_foreach_clear", 8, 2000, [&]() {
      for (uint32_t c = 0; c < 48; c += 3) {
        set.Insert(c);
      }
      uint64_t sum = 0;
      set.ForEach([&sum](uint32_t c) { sum += c; });
      sink = sink + sum;
      set.Clear();
    });
  }
  {
    SharedMemory mem(8 << 20);
    Topology topo(MakeSccPlatform(0));
    ShmAllocator alloc(&mem, topo);
    Measure(ctx, "allocator_alloc_free", 64, 2000, [&]() {
      const uint64_t a = alloc.Alloc(64, 7);
      const uint64_t b = alloc.Alloc(128, 23);
      alloc.Free(a);
      alloc.Free(b);
    });
  }
  {
    volatile uint64_t sink = 0;
    // One op = a 1000-event cascade through a fresh engine.
    Measure(ctx, "engine_1000_event_cascade", 1, 300, [&]() {
      SimEngine engine;
      int remaining = 1000;
      std::function<void()> tick = [&engine, &remaining, &tick]() {
        if (--remaining > 0) {
          engine.ScheduleAfter(10, tick);
        }
      };
      engine.ScheduleAfter(10, tick);
      engine.Run();
      sink = sink + engine.events_executed();
    });
  }
  {
    // One op = one Resume + Yield round trip, the switch pair every
    // simulated blocking step pays, with no engine around it.
    Fiber* handle = nullptr;
    Fiber fiber([&handle]() {
      for (;;) {
        handle->Yield();
      }
    });
    handle = &fiber;
    Measure(ctx, "fiber_resume_yield", 256, 2000, [&]() { fiber.Resume(); });
  }
  {
    volatile uint64_t sink = 0;
    // One op = a fresh engine whose one actor Sleeps 1000 times: the
    // event-queue + fiber-switch path of a simulated core, which the
    // callback-only cascade above never takes.
    Measure(ctx, "engine_actor_sleep_1000", 1, 300, [&]() {
      SimEngine engine;
      engine.AddActor([&engine]() {
        for (int i = 0; i < 1000; ++i) {
          engine.Sleep(10);
        }
      });
      engine.Run();
      sink = sink + engine.events_executed();
    });
  }
  {
    Rng rng(1);
    volatile uint64_t sink = 0;
    Measure(ctx, "rng_next", 1024, 2000, [&]() { sink = sink + rng.Next(); });
  }
}

TM2C_REGISTER_BENCH_THREADS_ONLY(  // sweeps channel kinds: a thread-transport dimension
    "micro", "host",
    "host-side micro costs; with --backend=threads, mutex-vs-spsc channel throughput", &Run);

}  // namespace
}  // namespace tm2c
