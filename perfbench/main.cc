// tm2c_perfbench: runs one named workload and prints its metrics.
//
//   tm2c_perfbench --workload=<kv-read|kv-rmw-wal|tree-mix-sim>
//                  --seed=<n> --seconds=<s> --trace=<0|1>
//                  [--tiny] [--plant-fault]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace=0) or the per-layer ledger
// (--trace=1). Lines before it start with '#': the host block, per-round
// figures and any failed checks. Exits 1 when a check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench/bench.h"

#ifndef TM2C_PERFBENCH_BUILD_TYPE
#define TM2C_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace tm2c {
namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "tm2c_perfbench: %s\nusage: tm2c_perfbench --workload=NAME --seed=N "
               "--seconds=S --trace=0|1 [--tiny] [--plant-fault]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      opts.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), &end);
      if (!(opts.seconds > 0.0)) {
        Usage("--seconds must be positive");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") {
        Usage("--trace must be 0 or 1");
      }
      opts.trace = val == "1";
    } else if (key == "--tiny") {
      opts.tiny = true;
    } else if (key == "--plant-fault") {
      opts.plant_fault = true;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value in " + arg).c_str());
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  return opts;
}

// Unscored host-speed reading: ns per step of a fixed dependent integer
// chain, so drift of the host can be seen next to the numbers.
double HostProbeNs() {
  constexpr uint64_t kSteps = 20000000;
  const uint64_t t0 = NowNs();
  uint64_t x = 0x243f6a8885a308d3ull;
  for (uint64_t i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ns = static_cast<double>(NowNs() - t0) / static_cast<double>(kSteps);
  return x == 0 ? -ns : ns;  // x is never 0; keeps the chain live
}

void PrintJsonNumber(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  std::printf("%.10g", v);
}

}  // namespace
}  // namespace perfbench
}  // namespace tm2c

int main(int argc, char** argv) {
  using namespace tm2c::perfbench;
  const Options opts = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(opts.workload);
  if (spec == nullptr) {
    Usage(("unknown workload " + opts.workload).c_str());
  }
  const double probe_before = HostProbeNs();
  Result result;
  RunWorkload(*spec, opts, &result);
  const double probe_after = HostProbeNs();

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf(
      "# host {\"nproc\": %u, \"busy_threads\": %u, \"oversubscribed\": %s, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"host_probe_ns_before\": %.4f, \"host_probe_ns_after\": %.4f}\n",
      nproc, spec->busy_threads, spec->busy_threads > nproc ? "true" : "false", __VERSION__,
      TM2C_PERFBENCH_BUILD_TYPE, probe_before, probe_after);
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# error_share=%.6g (%llu failed checks / %llu ops)\n",
              result.attempted == 0 ? 0.0
                                    : static_cast<double>(result.failed) /
                                          static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const std::string& f : result.failures) {
    std::printf("# FAILED: %s\n", f.c_str());
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    PrintJsonNumber(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
