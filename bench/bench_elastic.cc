// Elasticity: live stripe migration under a skew shift.
//
// Two identical skew-shift runs, differing only in whether the migration
// policy is armed. The workload is a YCSB-F-style read-modify-write mix
// over three arrays: one large hash-routed array that spreads across both
// partitions, and two stripe-aligned hot ranges pinned to partition 0
// (the share-little layout a partitioned application would choose). For
// the first 40% of the horizon every core draws uniformly from the large
// array — balanced load, the baseline phase. Then the skew shifts: 90% of
// operations start hammering the two hot ranges, both served by partition
// 0, whose service core saturates while partition 1 idles.
//
//   static   migrate_check_every = 0: nobody rescues partition 0; the
//            post-shift window measures the saturated steady state T_sat.
//   elastic  the policy loop tallies per-range traffic and migrates the
//            hottest range off the saturated core; the two hot ranges end
//            up split across the partitions (the policy keeps shuttling
//            them, but the split states dominate the schedule) and the
//            post-shift window measures the recovered throughput T_rec.
//
// Both runs keep admission control armed (overload_high_water), so the
// saturated phase degrades by shedding instead of queueing without bound;
// each row reports the refusal counts behind its throughput.
//
// The bench self-asserts the claim it exists to measure (on default sim
// runs; overrides reshape the workload): T_rec >= 1.3 x T_sat, the shift
// really saturated the static run (post < pre), and the elastic run really
// migrated. A schedule-independent accounting check — every commit is one
// increment, so the array sum may trail the commit count only by the ops
// the horizon froze mid-flight — runs unconditionally.
#include "bench/workloads.h"

namespace tm2c {
namespace {

constexpr uint32_t kHotRanges = 2;
constexpr uint64_t kHotWords = 1024;     // per hot range; stripes = words here
constexpr uint64_t kUniformWords = 8192;  // hash-routed background array

struct PhasePoint {
  double pre_ops_per_ms = 0.0;   // balanced phase, before the skew shift
  double post_ops_per_ms = 0.0;  // measured window after shift + settle
  uint64_t migrations_completed = 0;
  uint64_t overload_refused = 0;
  uint64_t migrating_refused = 0;
};

BenchRow RunOne(BenchContext& ctx, bool elastic, PhasePoint* point) {
  RunSpec spec = ctx.Spec(40, 41);
  spec.total_cores = ctx.Cores(16);
  spec.service_cores = ctx.ServiceCores(2);
  TmSystemConfig cfg = MakeConfig(spec);
  // Elasticity knobs live on TmConfig, not RunSpec: set them after
  // MakeConfig so the shared overrides still apply. The policy window and
  // threshold are sized so a saturated service fires within a fraction of
  // the measurement window even under --smoke's 5 ms horizon.
  cfg.tm.migrate_check_every = elastic ? 128 : 0;
  cfg.tm.migrate_hot_threshold = elastic ? 48 : 0;
  cfg.tm.overload_high_water = 12;

  TmSystem sys(cfg);
  const uint64_t stripe = sys.address_map().stripe_bytes();

  // Hot ranges: stripe-aligned (over-allocate by one stripe, as the KV
  // store does for its slabs) and both pinned to partition 0 — the
  // colocation the skew shift turns into a hotspot.
  uint64_t hot_base[kHotRanges];
  for (uint32_t r = 0; r < kHotRanges; ++r) {
    const uint64_t bytes = kHotWords * kWordBytes;
    const uint64_t raw = sys.allocator().AllocGlobal(bytes + stripe);
    hot_base[r] = (raw + stripe - 1) / stripe * stripe;
    sys.address_map().AddOwnedRange(hot_base[r], bytes, 0);
    for (uint64_t w = 0; w < kHotWords; ++w) {
      sys.shmem().StoreWord(hot_base[r] + w * kWordBytes, 0);
    }
  }
  const uint64_t uniform_base = sys.allocator().AllocGlobal(kUniformWords * kWordBytes);
  for (uint64_t w = 0; w < kUniformWords; ++w) {
    sys.shmem().StoreWord(uniform_base + w * kWordBytes, 0);
  }

  // Phase boundaries in simulated time (bodies start at 0 on the sim
  // backend, so GlobalNow is phase position). The settle gap between the
  // shift and the measured window gives the elastic run its convergence
  // time — and is excluded from the static run's window identically.
  const SimTime shift_at = spec.duration * 2 / 5;
  const SimTime measure_from = shift_at + spec.duration / 5;
  const double pre_ms = SimToMillis(shift_at);
  const double post_ms = SimToMillis(spec.duration - measure_from);

  // Shared per-phase commit counters: the simulator is single-threaded,
  // and this bench is registered sim-only.
  uint64_t pre_ops = 0;
  uint64_t post_ops = 0;

  LatencySampler lat;
  InstallLoopBodies(
      sys, spec.duration, spec.seed,
      [&, uniform_base, shift_at, measure_from](CoreEnv& env, TxRuntime& rt, Rng& rng) {
        env.Compute(kOpOverheadCycles);
        uint64_t addr;
        if (env.GlobalNow() >= shift_at && !rng.NextPercent(10)) {
          const uint64_t r = rng.NextBelow(kHotRanges);
          addr = hot_base[r] + rng.NextBelow(kHotWords) * kWordBytes;
        } else {
          addr = uniform_base + rng.NextBelow(kUniformWords) * kWordBytes;
        }
        rt.Execute([addr](Tx& tx) { tx.Write(addr, tx.Read(addr) + 1); });
        const SimTime done = env.GlobalNow();
        if (done < shift_at) {
          ++pre_ops;
        } else if (done >= measure_from) {
          ++post_ops;
        }
      },
      &lat);
  sys.Run(spec.duration);

  // Exact accounting, schedule-independent: every commit incremented one
  // word by one, and the horizon can freeze at most one op per app core
  // between its write-back and its commit being counted.
  uint64_t sum = 0;
  for (uint32_t r = 0; r < kHotRanges; ++r) {
    for (uint64_t w = 0; w < kHotWords; ++w) {
      sum += sys.shmem().LoadWord(hot_base[r] + w * kWordBytes);
    }
  }
  for (uint64_t w = 0; w < kUniformWords; ++w) {
    sum += sys.shmem().LoadWord(uniform_base + w * kWordBytes);
  }
  const uint64_t commits = sys.MergedStats().commits;
  TM2C_CHECK_MSG(sum >= commits && sum - commits <= sys.num_app_cores(),
                 "increment sum does not account for every commit");

  point->pre_ops_per_ms = static_cast<double>(pre_ops) / pre_ms;
  point->post_ops_per_ms = static_cast<double>(post_ops) / post_ms;
  const DtmServiceStats svc = sys.MergedServiceStats();
  point->migrations_completed = svc.migrations_completed;
  point->overload_refused = svc.overload_refused;
  point->migrating_refused = svc.migrating_refused;

  BenchRow row;
  row.Param("policy", elastic ? "elastic" : "static")
      .Param("cores", uint64_t{spec.total_cores})
      .Param("migration", uint64_t{1});  // excluded from regression compare
  row.Tx(sys, spec.duration, lat);
  row.Extra("pre_shift_ops_per_ms", point->pre_ops_per_ms);
  row.Extra("post_shift_ops_per_ms", point->post_ops_per_ms);
  row.Extra("migrations_completed", static_cast<double>(point->migrations_completed));
  row.Extra("overload_refused", static_cast<double>(point->overload_refused));
  row.Extra("migrating_refused", static_cast<double>(point->migrating_refused));
  return row;
}

void Run(BenchContext& ctx) {
  // The asserts encode the default workload's expected shape; arbitrary
  // overrides (fewer cores, other CMs, pinned seeds) can legitimately
  // reshape it, so they only arm on default sim runs — mirroring the
  // ablation benches.
  const BenchOptions& o = ctx.opts();
  const bool assert_curve = o.cores == 0 && o.service_cores == 0 && o.duration_ms == 0.0 &&
                            o.seed == 0 && o.cm.empty() && !ctx.native();

  PhasePoint stat;
  ctx.Report(RunOne(ctx, /*elastic=*/false, &stat));
  PhasePoint elas;
  BenchRow row = RunOne(ctx, /*elastic=*/true, &elas);
  if (stat.post_ops_per_ms > 0.0) {
    row.Extra("recovery_ratio", elas.post_ops_per_ms / stat.post_ops_per_ms);
  }
  ctx.Report(std::move(row));

  if (!assert_curve) {
    return;
  }
  // The static run must actually be hurt by the shift (otherwise T_sat is
  // not a saturated steady state and the comparison is vacuous), and must
  // not migrate; the elastic run must.
  TM2C_CHECK_MSG(stat.post_ops_per_ms < stat.pre_ops_per_ms,
                 "the skew shift did not saturate the static run");
  TM2C_CHECK_MSG(stat.migrations_completed == 0,
                 "the static run migrated with the policy disabled");
  TM2C_CHECK_MSG(elas.migrations_completed >= 1, "the elastic run never migrated");
  // Until the first migration the two runs are byte-identical schedules,
  // so the balanced phase must measure identically.
  TM2C_CHECK_MSG(elas.pre_ops_per_ms == stat.pre_ops_per_ms,
                 "pre-shift schedules diverged before any migration");
  // The claim: migrating the hot ranges apart recovers at least 1.3x the
  // saturated throughput.
  TM2C_CHECK_MSG(elas.post_ops_per_ms >= 1.3 * stat.post_ops_per_ms,
                 "migration did not recover 1.3x the saturated throughput");
}

TM2C_REGISTER_BENCH("elastic", "ablation",
                    "skew-shift recovery: live stripe migration off a saturated core", &Run);

}  // namespace
}  // namespace tm2c
