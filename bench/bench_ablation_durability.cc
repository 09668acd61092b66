// Ablation: the durability layer's cost and the group-commit remedy.
//
// Sweeps DurabilityMode {off, buffered, fsync} x group_commit_txs
// {1, 4, 16} over a write-heavy KV workload (every transaction is a
// read-modify-write, so every commit appends to its partition's
// write-ahead log). `off` is the paper's in-memory DTM — the commit path
// is byte-identical to the pre-durability protocol, so its row is the
// true baseline. `buffered` pays the append plus a cheap library-buffer
// flush; `fsync` pays a simulated disk round trip per flush, which is
// exactly what group commit amortizes: with group_commit_txs = N the
// service defers acks and flushes once per N records instead of per
// transaction.
//
// Each row reports throughput plus the log traffic behind it: appended
// commit records, group-commit flushes, and records per flush.
//
// The bench asserts the ordering it exists to measure (on default runs;
// overrides and --smoke reshape the sweep): at every group-commit depth,
// off >= buffered >= fsync throughput, and group commit strictly cuts the
// flush count (flushes at depth 4 below the one-flush-per-record
// baseline).
#include <map>

#include "bench/workloads.h"

namespace tm2c {
namespace {

constexpr uint32_t kGroupSweep[] = {1, 4, 16};
constexpr uint64_t kNumKeys = 2048;

struct SweepPoint {
  double ops_per_ms = 0.0;
  uint64_t commit_records = 0;
  uint64_t log_flushes = 0;
};

const char* ModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kOff:
      return "off";
    case DurabilityMode::kBuffered:
      return "buffered";
    case DurabilityMode::kFsync:
      return "fsync";
  }
  return "?";
}

BenchRow RunPoint(BenchContext& ctx, const std::string& platform, DurabilityMode mode,
                  uint32_t group_commit, SweepPoint* point) {
  RunSpec spec = ctx.Spec(30, 23);
  spec.platform_name = platform;
  spec.total_cores = ctx.Cores(16);
  TmSystemConfig cfg = MakeConfig(spec);
  // Durability knobs live on TmConfig, not RunSpec: set them after
  // MakeConfig so the shared overrides still apply.
  cfg.tm.durability = mode;
  cfg.tm.group_commit_txs = group_commit;
  cfg.tm.checkpoint_every_records = 0;  // the log cost alone, no checkpoints

  TmSystem sys(cfg);
  KvStoreConfig kv;
  kv.capacity_per_partition = 2 * kNumKeys;
  KvStore store(sys.allocator(), sys.shmem(), sys.address_map(), sys.deployment(), kv);
  FillStore(store, kNumKeys);
  if (sys.durability_enabled()) {
    sys.CaptureDurableCheckpoint0();
  }

  LatencySampler lat;
  InstallLoopBodies(sys, spec.duration, spec.seed,
                    [&store](CoreEnv& env, TxRuntime& rt, Rng& rng) {
                      env.Compute(kOpOverheadCycles);
                      const uint64_t key = 1 + rng.NextBelow(kNumKeys);
                      store.ReadModifyWrite(rt, key, [](uint64_t* v) { v[0] += 1; });
                    },
                    &lat);
  sys.Run(spec.duration);

  const DtmServiceStats svc = sys.MergedServiceStats();
  const ThroughputResult r = Summarize(sys, spec.duration);
  point->ops_per_ms = r.ops_per_ms;
  point->commit_records = svc.commit_records;
  point->log_flushes = svc.log_flushes;

  BenchRow row;
  row.Param("platform", platform)
      .Param("durability", ModeName(mode))
      .Param("group_commit", uint64_t{group_commit})
      .Param("cores", uint64_t{spec.total_cores});
  row.TxMerged(r.stats, r.ops_per_ms, lat);
  row.Extra("commit_records", static_cast<double>(svc.commit_records));
  row.Extra("log_flushes", static_cast<double>(svc.log_flushes));
  if (svc.log_flushes > 0) {
    row.Extra("records_per_flush",
              static_cast<double>(svc.commit_records) / static_cast<double>(svc.log_flushes));
  }
  return row;
}

void Run(BenchContext& ctx) {
  // The asserts encode the default sweep's expected ordering; arbitrary
  // overrides (fewer cores, shorter horizons, other CMs) can legitimately
  // flatten adjacent points, so they only arm on default sim runs —
  // mirroring the other ablations.
  const BenchOptions& o = ctx.opts();
  const bool assert_curve = o.cores == 0 && o.service_cores == 0 && o.duration_ms == 0.0 &&
                            o.seed == 0 && o.cm.empty() && !ctx.native();

  for (const std::string& platform : ctx.PlatformSweep({"scc", "opteron"})) {
    // mode -> group_commit -> measured point. `off` has no log to group,
    // so it runs at depth 1 only and serves as the per-depth baseline.
    std::map<DurabilityMode, std::map<uint32_t, SweepPoint>> curve;
    for (const DurabilityMode mode :
         {DurabilityMode::kOff, DurabilityMode::kBuffered, DurabilityMode::kFsync}) {
      for (const uint32_t group : kGroupSweep) {
        if (mode == DurabilityMode::kOff && group != 1) {
          continue;
        }
        SweepPoint point;
        ctx.Report(RunPoint(ctx, platform, mode, group, &point));
        curve[mode][group] = point;
      }
    }
    if (!assert_curve) {
      continue;
    }
    const SweepPoint& off = curve.at(DurabilityMode::kOff).at(1);
    for (const uint32_t group : kGroupSweep) {
      const SweepPoint& buffered = curve.at(DurabilityMode::kBuffered).at(group);
      const SweepPoint& fsync = curve.at(DurabilityMode::kFsync).at(group);
      // Durability is never free, and a buffered flush is never dearer
      // than an fsync: the cost ordering this ablation exists to show.
      TM2C_CHECK_MSG(off.ops_per_ms >= buffered.ops_per_ms,
                     "buffered logging outran the no-durability baseline");
      TM2C_CHECK_MSG(buffered.ops_per_ms >= fsync.ops_per_ms,
                     "fsync logging outran buffered logging");
    }
    // Group commit must strictly cut the flush count: one flush per record
    // at depth 1, strictly fewer at depth 4.
    for (const DurabilityMode mode : {DurabilityMode::kBuffered, DurabilityMode::kFsync}) {
      const SweepPoint& per_tx = curve.at(mode).at(1);
      const SweepPoint& grouped = curve.at(mode).at(4);
      // Depth 1 flushes exactly once per record: a fiber the horizon froze
      // between append and flush is settled by the post-run quiesce flush,
      // so there is no slack to forgive.
      TM2C_CHECK_MSG(per_tx.log_flushes == per_tx.commit_records,
                     "depth-1 group commit did not flush exactly once per record");
      TM2C_CHECK_MSG(grouped.log_flushes < grouped.commit_records,
                     "group commit did not batch any flush");
      TM2C_CHECK_MSG(grouped.log_flushes < per_tx.log_flushes,
                     "group commit did not cut the flush count");
    }
  }
}

TM2C_REGISTER_BENCH("ablation_durability", "ablation",
                    "write-ahead log cost: durability mode x group-commit sweep", &Run);

}  // namespace
}  // namespace tm2c
