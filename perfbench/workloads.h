// The benchmark's workloads: each is a base ExperimentSpec plus the offered
// loads of its points and the analytic expectations the output checks use.
// Everything here derives from the workload name and the --seed argument, so
// one (name, seed) pair always yields the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/spec.h"

namespace hxwar::perfbench {

struct Workload {
  std::string name;
  harness::ExperimentSpec base;  // per-point load and seeds via sweepPointConfig
  std::vector<double> loads;     // ascending; the last one is the "highest offered"
  std::string routing;           // registry names the traced run wraps
  std::string pattern;
  bool observed = false;  // metrics JSON, timeline and sampled trace written
  bool faulted = false;
  // Mean minimal router distance of the pattern over the fault-free HyperX
  // (0 = no hop check: faulted networks detour by design).
  double minimalHops = 0.0;
  // Standard deviation of that distance, for the sampling-error tolerance.
  double minimalHopsSd = 0.0;
  // Zero-load latency lower bound in cycles from the configured hop,
  // channel, crossbar and terminal latencies and minimalHops (or the
  // degraded network's mean distance when faulted, filled in at run time).
  double zeroLoadLatency(double meanHops) const;
  // Loads at or above this offered rate are expected to saturate.
  double saturatesFrom = 2.0;
};

const std::vector<std::string>& workloadNames();

// Builds the named workload for `seed`; `outDir` receives observed outputs.
// Exits with a message on an unknown name.
Workload makeWorkload(const std::string& name, std::uint64_t seed, const std::string& outDir);

// The spec the traced run uses for the same point: routing and pattern
// swapped for the timing decorators that wrap the same registered entries.
harness::ExperimentSpec tracedSpec(const Workload& w, const harness::ExperimentSpec& point);

// The spec with every observer detached (obs.hook_overhead_s baseline).
harness::ExperimentSpec unobservedSpec(const harness::ExperimentSpec& point);

}  // namespace hxwar::perfbench
