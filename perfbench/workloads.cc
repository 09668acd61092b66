// The three workloads and their rounds: set up a TmSystem and a store,
// run a closed loop of one store call per operation on every app core,
// check every result, tear down. A run is several rounds, so set-up is
// timed several times and its median reported.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>

#include "perfbench/bench.h"
#include "perfbench/ledger.h"
#include "src/apps/kvstore.h"
#include "src/apps/ordered_index.h"
#include "src/common/rng.h"
#include "src/durability/wal.h"
#include "src/tm/tm_system.h"

namespace tm2c {
namespace perfbench {
namespace {

// Rounds per host thread per run. Rates and latency percentiles are the
// median over the untraced rounds, so a round caught in a slow spell of
// the host does not move them. Traced runs alternate untraced and traced
// rounds so the tracing overhead is measured inside one run.
constexpr uint32_t kRoundsPerThread = 8;

// Modelled milliseconds per requested second and simulator thread,
// chosen so one run takes about --seconds of host time on a 4-CPU x86
// host. Fixed, so the modelled metrics are a function of the seed alone.
constexpr double kSimModelledMsPerSecond = 60.0;

const WorkloadSpec kWorkloads[] = {
    // Pure message + lock-table path: threads over SPSC rings, uniform
    // reads of a store larger than L2, no conflicts, no WAL, no wire.
    {"kv-read", BackendKind::kThreads, 3, 1, false, 262144, 4, 0.0, 100, 0, 0,
     DurabilityMode::kOff, 1, 64, 3},
    // Writes beside reads: zipfian RMW conflicts the CM must decide, and
    // a commit-log append per RMW with group commit of 4. Threads, not
    // forked partition servers, and buffered, not fsync: on a shared
    // virtual machine both blocking wake-ups and fsync swing several-fold
    // for minutes at a time (README.md has the figures); the ledger's
    // wire, socket and fsync probes measure those layers on their own.
    {"kv-rmw-wal", BackendKind::kThreads, 3, 1, false, 16384, 4, 0.99, 50, 50, 0,
     DurabilityMode::kBuffered, 4, 8, 3},
    // The simulator's own speed: 16 modelled cores (8 service), ordered
    // range scans that cross partitions in key order, zipfian RMWs.
    {"tree-mix-sim", BackendKind::kSim, 16, 8, true, 32768, 4, 0.99, 0, 20, 16,
     DurabilityMode::kOff, 1, 32, 3},
};

enum OpType : uint8_t { kGet = 0, kRmw = 1, kScan = 2, kNumOpTypes = 3 };
const char* const kOpNames[kNumOpTypes] = {"get", "rmw", "scan"};

// The loaded value of word `w` of `key`; word 0 is what RMWs increment.
uint64_t Loaded(uint64_t key, uint32_t w) { return key * 1000003 + w; }

// Keys in [1, n], uniform or scrambled zipfian (Gray et al.'s generator,
// as YCSB draws them; the scramble spreads hot keys over partitions).
class KeyChooser {
 public:
  KeyChooser(uint64_t n, double theta) : n_(n), theta_(theta) {
    if (theta_ == 0.0) {
      return;
    }
    zetan_ = Zeta(n, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - Zeta(2, theta) / zetan_);
  }

  uint64_t Next(Rng& rng) const {
    if (theta_ == 0.0) {
      return 1 + rng.NextBelow(n_);
    }
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    uint64_t rank = 0;
    if (uz >= 1.0) {
      rank = uz < 1.0 + std::pow(0.5, theta_)
                 ? 1
                 : static_cast<uint64_t>(static_cast<double>(n_) *
                                         std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    uint64_t h = std::min(rank, n_ - 1) * 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return 1 + h % n_;
  }

 private:
  static double Zeta(uint64_t n, double theta) {
    double sum = 0.0;
    for (uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }

  uint64_t n_;
  double theta_;
  double zetan_ = 0.0, alpha_ = 0.0, eta_ = 0.0;
};

struct Span {
  uint64_t start_ps = 0;  // env.GlobalNow(): simulated on sim, wall otherwise
  float dur_us = 0.0f;
  uint8_t op = 0;
  uint8_t core = 0;
  uint8_t round = 0;
};

// Written only by its app core's thread (or fiber) during the run.
struct CoreLog {
  uint64_t host_start_ns = 0;
  SimTime start_ps = 0;
  SimTime end_ps = 0;
  uint64_t ops[kNumOpTypes] = {};
  uint64_t rmw_found = 0;
  uint64_t failed = 0;
  std::string first_failure;
  std::vector<float> lat_us;
  std::vector<Span> spans;

  void Fail(std::string what) {
    if (failed++ == 0) {
      first_failure = std::move(what);
    }
  }
};

struct RoundOut {
  bool traced = false;
  double build_s = 0.0, load_s = 0.0, start_s = 0.0;
  double measured_s = 0.0;  // wall (native) or host time of Run() (sim)
  uint64_t ops = 0;
  uint64_t samples = 0;
  double p50_us = 0.0, p99_us = 0.0;
  TxStats tx;
  DtmServiceStats svc;  // summed over partitions
  uint64_t events = 0;
  uint64_t wal_bytes = 0;
  uint64_t user_bytes = 0;
  uint64_t op_count[kNumOpTypes] = {};
  double op_us[kNumOpTypes] = {};
};

double SecondsSince(uint64_t t0_ns) { return static_cast<double>(NowNs() - t0_ns) / 1e9; }

void AddServiceStats(const DtmServiceStats& s, DtmServiceStats* sum) {
  sum->requests += s.requests;
  sum->batch_requests += s.batch_requests;
  sum->batch_entries += s.batch_entries;
  sum->commit_records += s.commit_records;
  sum->log_flushes += s.log_flushes;
}

std::unique_ptr<TxStoreApi> MakeStore(const WorkloadSpec& spec, uint64_t keys, TmSystem& sys) {
  const uint32_t parts = sys.deployment().num_service();
  if (spec.ordered) {
    OrderedIndexConfig cfg;
    cfg.key_min = 1;
    cfg.key_max = keys;
    cfg.value_words = spec.value_words;
    cfg.capacity_per_partition = static_cast<uint32_t>(keys / parts + 64);
    return std::make_unique<OrderedIndex>(sys.allocator(), sys.shmem(), sys.address_map(),
                                          sys.deployment(), cfg);
  }
  KvStoreConfig cfg;
  cfg.value_words = spec.value_words;
  cfg.buckets_per_partition =
      static_cast<uint32_t>(std::max<uint64_t>(16, keys / (uint64_t{parts} * 4)));
  // Headroom for hash imbalance only when keys spread over partitions.
  cfg.capacity_per_partition =
      static_cast<uint32_t>((parts == 1 ? keys : 2 * keys / parts) + 64);
  return std::make_unique<KvStore>(sys.allocator(), sys.shmem(), sys.address_map(),
                                   sys.deployment(), cfg);
}

// Every value word except word 0 must be as loaded; word 0 too when the
// mix has no RMW, otherwise it may only have grown.
bool ValueOk(uint64_t key, const uint64_t* v, uint32_t words, bool exact_first) {
  if (exact_first ? v[0] != Loaded(key, 0) : v[0] < Loaded(key, 0)) {
    return false;
  }
  for (uint32_t w = 1; w < words; ++w) {
    if (v[w] != Loaded(key, w)) {
      return false;
    }
  }
  return true;
}

// Stripe addresses spread evenly over every partition's slab (the
// lock-table probes walk them).
std::vector<uint64_t> StoreLockAddrs(const TxStoreApi& store) {
  constexpr uint64_t kWanted = 1 << 16;
  std::vector<uint64_t> addrs;
  const uint32_t parts = store.num_partitions();
  for (uint32_t p = 0; p < parts; ++p) {
    const auto [base, bytes] = store.SlabRange(p);
    const uint64_t stripes = bytes / kWordBytes;
    const uint64_t step = std::max<uint64_t>(1, stripes / (kWanted / parts));
    for (uint64_t s = 0; s < stripes && addrs.size() < kWanted * (p + 1) / parts; s += step) {
      addrs.push_back(base + s * kWordBytes);
    }
  }
  return addrs;
}

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const Options& opts, Result* result)
      : spec_(spec),
        opts_(opts),
        result_(result),
        keys_(opts.tiny ? (spec.ordered ? 512 : 256) : spec.keys),
        chooser_(keys_, spec.theta) {
    // A commit record of one written value: [core, epoch, n, n pairs].
    ledger_.record_words = 3 + 2 * spec.value_words;
  }

  void Run();

 private:
  RoundOut RunRound(uint32_t round, bool traced);
  TmSystem::AppBody MakeBody(uint32_t app, uint32_t round, bool traced, SimTime duration,
                             TxStoreApi* store, std::vector<CoreLog>* logs) const;
  void CheckStore(const TxStoreApi& store, uint64_t first_words_before, uint64_t rmw_found);
  void Report(const std::vector<RoundOut>& rounds);
  void WriteSpans() const;
  void Fail(const std::string& what, uint64_t count = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    result_->Fail(what, count);
  }

  const WorkloadSpec& spec_;
  const Options& opts_;
  Result* result_;
  const uint64_t keys_;
  const KeyChooser chooser_;
  // Guards result_ failures, spans_ and ledger_ while rounds run on
  // several threads.
  std::mutex mu_;
  std::vector<Span> spans_;  // pooled over traced rounds
  LedgerInputs ledger_;
};

TmSystem::AppBody Runner::MakeBody(uint32_t app, uint32_t round, bool traced, SimTime duration,
                                   TxStoreApi* store, std::vector<CoreLog>* logs) const {
  return [this, app, round, traced, duration, store, logs](CoreEnv& env, TxRuntime& rt) {
    CoreLog& log = (*logs)[app];
    log.host_start_ns = NowNs();
    Rng rng(opts_.seed * 0x9e3779b97f4a7c15ull + round * 1009 + app);
    const bool exact_first = spec_.rmw_pct == 0;
    const std::function<void(uint64_t*)> increment = [](uint64_t* v) { v[0] += 1; };
    std::vector<uint64_t> value;
    log.start_ps = env.GlobalNow();
    for (;;) {
      const SimTime t0 = env.GlobalNow();
      if (t0 - log.start_ps >= duration) {
        break;
      }
      const uint64_t key = chooser_.Next(rng);
      const uint64_t roll = rng.NextBelow(100);
      const OpType op =
          roll < spec_.get_pct ? kGet : roll < spec_.get_pct + spec_.rmw_pct ? kRmw : kScan;
      bool ok = true;
      std::vector<KvEntry> scanned;
      switch (op) {
        case kGet:
          ok = store->Get(rt, key, &value);
          break;
        case kRmw:
          ok = store->ReadModifyWrite(rt, key, increment);
          break;
        case kScan:
          scanned = store->Scan(rt, key, spec_.scan_len);
          break;
        case kNumOpTypes:
          break;
      }
      const SimTime t1 = env.GlobalNow();
      const float us = static_cast<float>(SimToMicros(t1 - t0));
      log.lat_us.push_back(us);
      if (traced) {
        log.spans.push_back({t0, us, op, static_cast<uint8_t>(app), static_cast<uint8_t>(round)});
      }
      ++log.ops[op];
      // Checks, outside the timed span.
      if (op == kGet && !(ok && ValueOk(key, value.data(), spec_.value_words, exact_first))) {
        log.Fail("get of key " + std::to_string(key) + " returned a wrong value");
      } else if (op == kRmw) {
        if (ok) {
          ++log.rmw_found;
        } else {
          log.Fail("rmw of key " + std::to_string(key) + " found no key");
        }
      } else if (op == kScan) {
        const uint64_t want = std::min<uint64_t>(spec_.scan_len, keys_ - key + 1);
        bool good = scanned.size() == want;
        for (uint64_t j = 0; good && j < want; ++j) {
          good = scanned[j].key == key + j && scanned[j].value.size() == spec_.value_words &&
                 ValueOk(key + j, scanned[j].value.data(), spec_.value_words, exact_first);
        }
        if (!good) {
          log.Fail("scan from key " + std::to_string(key) +
                   " was not ascending, full-length and as loaded");
        }
      }
    }
    log.end_ps = env.GlobalNow();
  };
}

void Runner::CheckStore(const TxStoreApi& store, uint64_t first_words_before,
                        uint64_t rmw_found) {
  if (store.HostSize() != keys_) {
    Fail("store holds " + std::to_string(store.HostSize()) + " keys, loaded " +
         std::to_string(keys_));
  }
  uint64_t bad = 0;
  uint64_t first_words = 0;
  std::vector<uint64_t> v(spec_.value_words);
  for (uint64_t key = 1; key <= keys_; ++key) {
    if (!store.HostGet(key, v.data()) ||
        !ValueOk(key, v.data(), spec_.value_words, spec_.rmw_pct == 0)) {
      ++bad;
      continue;
    }
    first_words += v[0];
  }
  if (bad != 0) {
    Fail("store audit: " + std::to_string(bad) + " keys missing or not as loaded", bad);
  } else if (first_words - first_words_before != rmw_found) {
    Fail("sum of first words grew by " + std::to_string(first_words - first_words_before) +
         " but " + std::to_string(rmw_found) + " RMWs completed");
  }
}

RoundOut Runner::RunRound(uint32_t round, bool traced) {
  RoundOut out;
  out.traced = traced;
  const bool sim = spec_.backend == BackendKind::kSim;
  const SimTime duration =
      sim ? static_cast<SimTime>(opts_.seconds * kSimModelledMsPerSecond / kRoundsPerThread *
                                 static_cast<double>(kPicosPerMilli))
          : static_cast<SimTime>(opts_.seconds / kRoundsPerThread *
                                 static_cast<double>(kPicosPerSecond));

  // --- Set-up: system build, store build + load, start. -----------------
  const uint64_t t_build = NowNs();
  TmSystemConfig cfg;
  cfg.sim.platform = PlatformByName("scc");
  cfg.sim.num_cores = spec_.cores;
  cfg.sim.num_service = spec_.service_cores;
  cfg.sim.shmem_bytes = uint64_t{spec_.shmem_mb} << 20;
  cfg.sim.seed = opts_.seed * 1000 + round;
  cfg.tm.cm = CmKind::kFairCm;
  cfg.tm.max_batch = 16;
  cfg.tm.durability = spec_.durability;
  cfg.tm.group_commit_txs = spec_.group_commit_txs;
  cfg.backend = spec_.backend;
  auto sys = std::make_unique<TmSystem>(cfg);
  std::unique_ptr<TxStoreApi> store = MakeStore(spec_, keys_, *sys);
  out.build_s = SecondsSince(t_build);

  const uint64_t t_load = NowNs();
  std::vector<uint64_t> value(spec_.value_words);
  uint64_t first_words_before = 0;
  for (uint64_t key = 1; key <= keys_; ++key) {
    for (uint32_t w = 0; w < spec_.value_words; ++w) {
      value[w] = Loaded(key, w);
    }
    store->HostPut(key, value.data());
    first_words_before += value[0];
  }
  if (opts_.plant_fault) {
    // One corrupted store word; the per-op checks and the audit must see it.
    const uint64_t key = 1 + opts_.seed % keys_;
    store->HostGet(key, value.data());
    value[spec_.value_words - 1] ^= 1;
    store->HostPut(key, value.data());
  }
  if (spec_.durability != DurabilityMode::kOff) {
    sys->CaptureDurableCheckpoint0();
  }
  out.load_s = SecondsSince(t_load);

  std::vector<CoreLog> logs(sys->num_app_cores());
  for (uint32_t i = 0; i < sys->num_app_cores(); ++i) {
    sys->SetAppBody(i, MakeBody(i, round, traced, duration, store.get(), &logs));
  }
  const uint64_t t_run = NowNs();
  sys->Run();
  const double run_s = SecondsSince(t_run);

  uint64_t first_start_ns = UINT64_MAX;
  SimTime min_start = UINT64_MAX, max_end = 0;
  uint64_t rmw_found = 0;
  std::vector<float> lat_us;
  for (CoreLog& log : logs) {
    first_start_ns = std::min(first_start_ns, log.host_start_ns);
    min_start = std::min(min_start, log.start_ps);
    max_end = std::max(max_end, log.end_ps);
    rmw_found += log.rmw_found;
    for (int op = 0; op < kNumOpTypes; ++op) {
      out.ops += log.ops[op];
      out.op_count[op] += log.ops[op];
    }
    if (log.failed != 0) {
      const std::string more =
          log.failed > 1 ? " (and " + std::to_string(log.failed - 1) + " more on this core)" : "";
      Fail(log.first_failure + more, log.failed);
    }
    if (traced) {
      for (const Span& s : log.spans) {
        out.op_us[s.op] += s.dur_us;
      }
      std::lock_guard<std::mutex> lock(mu_);
      spans_.insert(spans_.end(), log.spans.begin(), log.spans.end());
    }
    lat_us.insert(lat_us.end(), log.lat_us.begin(), log.lat_us.end());
  }
  out.samples = lat_us.size();
  out.p50_us = Percentile(&lat_us, 0.50);
  out.p99_us = Percentile(&lat_us, 0.99);
  out.start_s = static_cast<double>(first_start_ns - t_run) / 1e9;
  out.measured_s = sim ? run_s : SimToMicros(max_end - min_start) / 1e6;

  // --- Post-run checks and counters. -------------------------------------
  out.tx = sys->MergedStats();
  for (uint32_t p = 0; p < sys->deployment().num_service(); ++p) {
    AddServiceStats(sys->ServiceStats(p), &out.svc);
  }
  if (sim) {
    out.events = sys->sim().engine().events_executed();
  }
  if (out.tx.commits != out.ops) {
    Fail(std::to_string(out.tx.commits) + " commits for " + std::to_string(out.ops) +
         " store calls");
  }
  if (!sys->AllLockTablesEmpty()) {
    Fail("a lock table still holds entries after the run");
  }
  CheckStore(*store, first_words_before, rmw_found);
  if (spec_.durability != DurabilityMode::kOff) {
    // Every appended record must be durable after the run, and the log
    // must read back whole: one record per completed RMW.
    for (uint32_t p = 0; p < sys->deployment().num_service(); ++p) {
      const Wal& wal = sys->DurabilityAt(p).wal();
      const WalReadResult back = ReadWal(wal.image());
      if (!back.clean() || back.records.size() != wal.durable_records()) {
        Fail("partition " + std::to_string(p) + " log does not read back whole");
      }
      if (wal.durable_records() != wal.appended_records() ||
          wal.appended_records() != sys->ServiceStats(p).commit_records) {
        Fail("partition " + std::to_string(p) + " durable records " +
             std::to_string(wal.durable_records()) + " != appended records " +
             std::to_string(wal.appended_records()));
      }
      out.wal_bytes += wal.durable_bytes() - kWalHeaderBytes;
    }
    if (out.svc.commit_records != rmw_found) {
      Fail(std::to_string(out.svc.commit_records) + " commit records for " +
           std::to_string(rmw_found) + " completed RMWs");
    }
    out.user_bytes = rmw_found * spec_.value_words * kWordBytes;
  }
  if (round == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    ledger_.lock_addrs = StoreLockAddrs(*store);
  }
  store.reset();
  sys.reset();
  return out;
}

void Runner::Run() {
  // Simulator rounds are independent single-threaded simulations, so they
  // run on busy_threads host threads at once; native rounds own the host.
  const uint32_t threads = spec_.backend == BackendKind::kSim ? spec_.busy_threads : 1;
  std::vector<RoundOut> rounds(kRoundsPerThread * threads);
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([this, t, threads, &rounds]() {
      for (uint32_t r = t; r < rounds.size(); r += threads) {
        rounds[r] = RunRound(r, opts_.trace && r % 2 == 1);
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  Report(rounds);
  if (opts_.trace) {
    ledger_.tiny = opts_.tiny;
    ledger_.probe_dir = "perfbench-probe-" + std::to_string(::getpid());
    std::filesystem::create_directories(ledger_.probe_dir);
    RunLedgerProbes(ledger_, result_);
    std::filesystem::remove_all(ledger_.probe_dir);
    WriteSpans();
  }
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void Runner::Report(const std::vector<RoundOut>& rounds) {
  const bool sim = spec_.backend == BackendKind::kSim;
  std::vector<double> setup, build, load;
  // Index 0: untraced rounds, 1: traced rounds.
  std::vector<double> tx_per_s[2], p50[2], p99[2];
  uint64_t samples = 0, commits = 0;
  RoundOut sum;  // counters of the traced rounds
  for (const RoundOut& r : rounds) {
    setup.push_back(r.build_s + r.load_s + r.start_s);
    build.push_back(r.build_s);
    load.push_back(r.load_s);
    tx_per_s[r.traced].push_back(Ratio(static_cast<double>(r.tx.commits), r.measured_s));
    p50[r.traced].push_back(r.p50_us);
    p99[r.traced].push_back(r.p99_us);
    result_->attempted += r.ops;
    if (!r.traced) {
      samples += r.samples;
      commits += r.tx.commits;
      continue;
    }
    sum.ops += r.ops;
    sum.tx.Merge(r.tx);
    AddServiceStats(r.svc, &sum.svc);
    sum.events += r.events;
    sum.measured_s += r.measured_s;
    sum.wal_bytes += r.wal_bytes;
    sum.user_bytes += r.user_bytes;
    for (int op = 0; op < kNumOpTypes; ++op) {
      sum.op_count[op] += r.op_count[op];
      sum.op_us[op] += r.op_us[op];
    }
  }
  char line[256];
  for (const RoundOut& r : rounds) {
    std::snprintf(line, sizeof(line),
                  "round traced=%d setup_s=%.4f (build %.4f load %.4f start %.4f) "
                  "measured_s=%.3f commits=%llu tx_per_s=%.1f p50_us=%.3f p99_us=%.3f "
                  "(%llu samples)",
                  r.traced ? 1 : 0, r.build_s + r.load_s + r.start_s, r.build_s, r.load_s,
                  r.start_s, r.measured_s, static_cast<unsigned long long>(r.tx.commits),
                  Ratio(static_cast<double>(r.tx.commits), r.measured_s), r.p50_us, r.p99_us,
                  static_cast<unsigned long long>(r.samples));
    result_->notes.push_back(line);
  }

  if (!opts_.trace) {
    result_->Add("tx_per_s", Median(tx_per_s[0]), "1/s");
    result_->Add("lat_p50_us", Median(p50[0]), "us");
    result_->Add("lat_p99_us", Median(p99[0]), "us");
    result_->Add("setup_s", Median(setup), "s");
    result_->Add("peak_rss_mb", PeakRssMb(), "MiB");
    result_->notes.push_back("latency samples: " + std::to_string(samples) + " over " +
                             std::to_string(rounds.size()) + " rounds" +
                             (sim ? " (modelled time)" : " (wall time)"));
    if (sim) {
      std::snprintf(line, sizeof(line), "model_tx_per_ms=%.6f",
                    static_cast<double>(commits) /
                        (opts_.seconds * kSimModelledMsPerSecond / kRoundsPerThread *
                         static_cast<double>(rounds.size())));
      result_->notes.push_back(line);
    }
    return;
  }

  // Per-layer ledger from the traced rounds. Times from TxStats and spans
  // are modelled on the simulator and wall time on native backends.
  const double tx = static_cast<double>(sum.tx.commits);
  result_->Add("runtime.msgs_per_tx", Ratio(static_cast<double>(sum.tx.messages_sent), tx),
               "count");
  result_->Add("tm.abort_share",
               Ratio(static_cast<double>(sum.tx.aborts),
                     static_cast<double>(sum.tx.commits + sum.tx.aborts)),
               "ratio");
  result_->Add("tm.acquire_us_per_tx", Ratio(SimToMicros(sum.tx.acquire_time), tx), "us");
  result_->Add("tm.commit_log_wait_us_per_tx", Ratio(SimToMicros(sum.tx.commit_log_wait), tx),
               "us");
  result_->Add("tm.lock_acquires_per_tx", Ratio(static_cast<double>(sum.tx.lock_acquires), tx),
               "count");
  result_->Add("svc.batch_entries_per_request",
               Ratio(static_cast<double>(sum.svc.batch_entries),
                     static_cast<double>(sum.svc.batch_requests)),
               "count");
  result_->Add("wal.records_per_flush",
               Ratio(static_cast<double>(sum.svc.commit_records),
                     static_cast<double>(sum.svc.log_flushes)),
               "count");
  result_->Add("wal.bytes_per_user_byte",
               Ratio(static_cast<double>(sum.wal_bytes), static_cast<double>(sum.user_bytes)),
               "ratio");
  result_->Add("sim.events_per_tx", Ratio(static_cast<double>(sum.events), tx), "count");
  result_->Add("sim.host_ns_per_event",
               Ratio(sum.measured_s * 1e9, static_cast<double>(sum.events)), "ns");
  result_->Add("apps.words_read_per_op",
               Ratio(static_cast<double>(sum.tx.reads), static_cast<double>(sum.ops)), "count");
  for (int op = 0; op < kNumOpTypes; ++op) {
    result_->Add(std::string("apps.") + kOpNames[op] + "_us",
                 Ratio(sum.op_us[op], static_cast<double>(sum.op_count[op])), "us");
  }
  result_->Add("setup.build_s", Median(build), "s");
  result_->Add("setup.load_s", Median(load), "s");
  const double untraced = Median(tx_per_s[0]);
  const double traced = Median(tx_per_s[1]);
  result_->Add("trace.overhead_share", Ratio(untraced - traced, untraced), "ratio");
  result_->notes.push_back("traced tx_per_s=" + std::to_string(traced) +
                           " untraced tx_per_s=" + std::to_string(untraced) + " spans=" +
                           std::to_string(spans_.size()));

  // Workload-sized probe inputs: the mean batch the service saw.
  ledger_.batch_entries = static_cast<uint32_t>(std::max(
      1.0, std::round(Ratio(static_cast<double>(sum.svc.batch_entries),
                            static_cast<double>(sum.svc.batch_requests)))));
}

// Spans stay in memory during the run and are written once, at exit.
void Runner::WriteSpans() const {
  const std::string path = std::string("perfbench-trace-") + spec_.name + ".csv";
  std::ofstream f(path, std::ios::trunc);
  f << "round,core,op,start_us,dur_us\n";
  char line[128];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line), "%u,%u,%s,%.3f,%.3f\n", s.round, s.core, kOpNames[s.op],
                  SimToMicros(s.start_ps), static_cast<double>(s.dur_us));
    f << line;
  }
  result_->notes.push_back("spans written to " + path);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

void RunWorkload(const WorkloadSpec& spec, const Options& opts, Result* result) {
  Runner(spec, opts, result).Run();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double Percentile(std::vector<float>* v, double q) {
  if (v->empty()) {
    return 0.0;
  }
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(idx), v->end());
  return (*v)[idx];
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double PeakRssMb() {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
}  // namespace tm2c
