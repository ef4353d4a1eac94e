// hxbench: runs one benchmark workload through the public harness API
// (ExperimentSpec, Experiment, harness::write*), checks its outputs, and
// prints the metrics as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   hxbench --workload=NAME --seed=N --seconds=S --trace=0|1
//           --out-dir=DIR --tools-dir=DIR --source=ID
//   hxbench --self-test --out-dir=DIR
//
// --trace=0 reports the end-to-end metrics from untraced rounds. --trace=1
// runs one untraced round, one traced round (routing and pattern decorators,
// layer probes) and, on the observed workload, one round with the observers
// detached, and reports the per-layer metrics. See README.md.
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/flags.h"
#include "fault/degraded_topology.h"
#include "harness/experiment.h"
#include "harness/obs_io.h"
#include "harness/registry.h"
#include "layers.h"
#include "obs/json.h"
#include "stamp.h"
#include "tracing.h"
#include "workloads.h"

extern char** environ;

namespace hxwar::perfbench {
namespace {

enum class Mode { kPlain, kTraced, kUnobserved };

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Mean router distance between a node and a uniformly drawn other node,
// over whatever topology the network simulates (the degraded one when
// faulted): every ordered router pair carries K*K node pairs.
double urMeanDistance(const topo::Topology& topo) {
  const double k = static_cast<double>(topo.numNodes()) / topo.numRouters();
  double sum = 0.0;
  for (RouterId a = 0; a < topo.numRouters(); ++a) {
    for (RouterId b = 0; b < topo.numRouters(); ++b) {
      if (a != b) sum += topo.minHops(a, b);
    }
  }
  const double n = topo.numNodes();
  return sum * k * k / (n * (n - 1.0));
}

// Everything one sweep point yields: the harness's SweepPoint (result plus
// obs captures, the writers' input) and what the benchmark reads around it.
struct PointRun {
  harness::SweepPoint point;
  double setupS = 0.0;
  double setupCpuS = 0.0;
  double runS = 0.0;
  std::uint64_t events = 0;
  std::uint64_t flitHops = 0;
  std::uint32_t lanes = 1;
  double bytesPerTerminal = 0.0;
  std::uint64_t backlogFlits = 0;
  double degradedMeanHops = 0.0;  // faulted networks only
  CallStats route;
  CallStats dest;
  double packetAllocNs = 0.0;  // traced runs only
};

PointRun runPoint(const harness::ExperimentSpec& spec, std::size_t index, SpanLog& log,
                  bool probes) {
  ScopedSpan pointSpan(log, "point");
  PointRun pr;
  pr.point.load = spec.injection.rate;
  pr.point.index = index;
  // Decorator slots belong to the experiment built below; the previous one
  // is gone, so its slots can be dropped.
  routeStats().reset();
  destStats().reset();
  std::unique_ptr<harness::Experiment> exp;
  {
    ScopedSpan s(log, "setup");
    const double c0 = cpuSeconds();
    exp = std::make_unique<harness::Experiment>(spec);
    pr.setupCpuS = cpuSeconds() - c0;
    pr.setupS = s.close();
  }
  try {
    ScopedSpan s(log, "run");
    pr.point.result = exp->run();
    pr.runS = s.close();
  } catch (const Error& e) {
    pr.point.status = "failed";
    pr.point.message = e.what();
    return pr;
  }
  ScopedSpan capture(log, "capture");
  net::Network& net = exp->network();
  pr.events = exp->backend().eventsProcessed();
  pr.flitHops = net.flitMovements();
  pr.lanes = net.numLanes();
  pr.backlogFlits = net.totalSourceBacklogFlits();
  pr.bytesPerTerminal = net.memoryFootprint().bytesPerTerminal;
  pr.point.pointJobs = exp->pointJobs();  // the metrics writer reads it
  if (spec.fault.active()) pr.degradedMeanHops = urMeanDistance(exp->effectiveTopology());
  // The same captures runSweepPoint takes, so the writers see what hxsim's
  // would: per-lane traces merged and canonicalized, lane-0 sampler rows,
  // flight-recorder windows.
  if constexpr (obs::kCompiledIn) {
    if (exp->observer() != nullptr) {
      for (const auto& o : exp->observers()) {
        for (const obs::TraceEvent& e : o->trace().events()) pr.point.trace.add(e);
      }
      obs::canonicalize(pr.point.trace);
      pr.point.samples = exp->observer()->samples();
    }
    if (exp->recorder() != nullptr) {
      pr.point.windows = exp->recorder()->windows();
      pr.point.shardWindows = exp->recorder()->shardWindows();
    }
  }
  pr.route = routeStats().total();
  pr.dest = destStats().total();
  if (probes) pr.packetAllocNs = packetAllocNs(net);
  return pr;
}

struct Round {
  std::vector<PointRun> points;
  double wallS = 0.0;  // first run to last output written, set-up excluded
  double cpuS = 0.0;
  double setupS = 0.0;
  double runS = 0.0;
  std::uint64_t flitHops = 0;
  double writeS = 0.0;
  std::uint64_t outputBytes = 0;
  std::uint64_t timelineWindows = 0;
  bool written = true;  // every writer succeeded
};

std::uint64_t fileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<std::uint64_t>(f.tellg()) : 0;
}

harness::ExperimentSpec specFor(const Workload& w, const harness::ExperimentSpec& point,
                                Mode mode) {
  if (mode == Mode::kTraced) return tracedSpec(w, point);
  if (mode == Mode::kUnobserved) return unobservedSpec(point);
  return point;
}

Round runRound(const Workload& w, const std::vector<harness::ExperimentSpec>& specs, Mode mode,
               SpanLog& log) {
  ScopedSpan roundSpan(log, "round");
  Round r;
  const Clock::time_point t0 = Clock::now();
  const double c0 = cpuSeconds();
  double setupCpu = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    r.points.push_back(runPoint(specFor(w, specs[i], mode), i, log, mode == Mode::kTraced));
    const PointRun& p = r.points.back();
    r.setupS += p.setupS;
    setupCpu += p.setupCpuS;
    r.runS += p.runS;
    r.flitHops += p.flitHops;
  }
  if (w.observed && mode != Mode::kUnobserved) {
    std::vector<harness::SweepPoint> points;
    for (const PointRun& p : r.points) points.push_back(p.point);
    const harness::ExperimentSpec& spec = specFor(w, w.base, mode);
    const Clock::time_point tw = Clock::now();
    {
      ScopedSpan s(log, "write.trace");
      r.written = harness::writeTraceJson(spec.obs.traceOut, spec, points);
    }
    {
      ScopedSpan s(log, "write.metrics");
      r.written &= harness::writeMetricsJson(spec.obs.metricsJson, spec, points);
    }
    {
      ScopedSpan s(log, "write.timeline");
      r.written &= harness::writeTimelineJsonl(spec.obs.timelineOut, spec, points);
    }
    r.writeS = secondsSince(tw);
    r.outputBytes = fileBytes(spec.obs.traceOut) + fileBytes(spec.obs.metricsJson) +
                    fileBytes(spec.obs.timelineOut);
    for (const PointRun& p : r.points) r.timelineWindows += p.point.windows.size();
  }
  r.wallS = secondsSince(t0) - r.setupS;
  r.cpuS = cpuSeconds() - c0 - setupCpu;
  return r;
}

// ---------------------------------------------------------------------------
// Output checks. Each returns an empty string when the check holds.

std::string runTool(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, args[0], nullptr, nullptr, args.data(), environ) != 0) {
    return "cannot start " + argv[0];
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return "cannot wait for " + argv[0];
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return argv[0] + " rejected " + argv[1];
  return "";
}

std::string checkPoint(const Workload& w, const PointRun& p) {
  if (p.point.failed()) return "point raised: " + p.point.message;
  const metrics::SteadyStateResult& r = p.point.result;
  char buf[256];
  const double load = p.point.load;
  if (load >= w.saturatesFrom) {
    if (!r.saturated || !(r.accepted < r.offered)) {
      std::snprintf(buf, sizeof(buf), "load %.2f should saturate (accepted %.4f)", load,
                    r.accepted);
      return buf;
    }
    return "";
  }
  // Stable points accept what they are offered (3% covers the sampling
  // noise of a 1,000-cycle window over thousands of nodes).
  if (r.saturated || std::abs(r.accepted - r.offered) > 0.03 * r.offered) {
    std::snprintf(buf, sizeof(buf), "load %.2f: saturated=%d accepted %.4f", load,
                  r.saturated ? 1 : 0, r.accepted);
    return buf;
  }
  if (r.packetsMeasured == 0) return "no packets measured";
  double meanHops = w.minimalHops;
  if (w.minimalHops > 0.0) {
    // Every deroute of DimWAR/OmniWAR adds exactly one hop to a minimal path.
    const double minimal = r.avgHops - r.avgDeroutes;
    const double tol =
        5.0 * w.minimalHopsSd / std::sqrt(static_cast<double>(r.packetsMeasured)) + 1e-3;
    if (std::abs(minimal - w.minimalHops) > tol) {
      std::snprintf(buf, sizeof(buf), "hops - deroutes = %.4f, expected %.4f +- %.4f", minimal,
                    w.minimalHops, tol);
      return buf;
    }
  }
  if (w.faulted) {
    meanHops = p.degradedMeanHops;
    if (r.packetsDropped != 0 || r.unreachablePairs != 0 || !(r.avgStretch >= 1.0)) {
      std::snprintf(buf, sizeof(buf), "faulted: dropped %llu unreachable %llu stretch %.4f",
                    static_cast<unsigned long long>(r.packetsDropped),
                    static_cast<unsigned long long>(r.unreachablePairs), r.avgStretch);
      return buf;
    }
  }
  const double floor = w.zeroLoadLatency(meanHops);
  if (r.latencyMean < floor) {
    std::snprintf(buf, sizeof(buf), "mean latency %.2f below zero-load %.2f", r.latencyMean,
                  floor);
    return buf;
  }
  return "";
}

// The observed outputs: the repository's validators, plus the metrics-JSON
// histogram total against packetsMeasured.
std::string checkOutputs(const Workload& w, const Round& r, const std::string& toolsDir) {
  if (!r.written) return "an output file could not be written";
  const obs::ObsOptions& o = w.base.obs;
  std::string err = runTool({toolsDir + "/trace_check", o.traceOut});
  if (err.empty()) err = runTool({toolsDir + "/trace_check", "--metrics", o.metricsJson});
  if (err.empty()) err = runTool({toolsDir + "/timeline_check", o.timelineOut});
  if (!err.empty()) return err;
  std::ifstream f(o.metricsJson);
  std::stringstream text;
  text << f.rdbuf();
  obs::JsonValue root;
  std::string parseError;
  if (!obs::parseJson(text.str(), root, parseError)) return "metrics JSON: " + parseError;
  const obs::JsonValue* points = root.get("points");
  if (points == nullptr || points->array.size() != r.points.size()) {
    return "metrics JSON: wrong point count";
  }
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    std::uint64_t total = 0;
    const obs::JsonValue* hist = points->array[i].get("latency_histogram");
    if (hist == nullptr) return "metrics JSON: no histogram";
    for (const obs::JsonValue& b : hist->array) {
      if (const obs::JsonValue* c = b.get("count")) total += static_cast<std::uint64_t>(c->number);
    }
    if (total != r.points[i].point.result.packetsMeasured) {
      return "metrics JSON: histogram total differs from packetsMeasured";
    }
  }
  return "";
}

// Values that must repeat exactly for the same seed, whatever the engine
// timing: compared across rounds and between traced and untraced rounds.
// Event counts are compared only between rounds with the same observers:
// the flight recorder's window closes are events of their own.
struct SimSignature {
  std::vector<std::uint64_t> flitHops;
  std::vector<double> accepted, latency;
  bool operator==(const SimSignature&) const = default;
};

SimSignature signature(const Round& r) {
  SimSignature s;
  for (const PointRun& p : r.points) {
    s.flitHops.push_back(p.flitHops);
    s.accepted.push_back(p.point.result.accepted);
    s.latency.push_back(p.point.result.latencyMean);
  }
  return s;
}

std::vector<std::uint64_t> eventCounts(const Round& r) {
  std::vector<std::uint64_t> e;
  for (const PointRun& p : r.points) e.push_back(p.events);
  return e;
}

// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char v[64];
    std::snprintf(v, sizeof(v), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + v +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selfTest = false;
  std::string outDir = ".bench_build/perfbench-out";
  std::string toolsDir = ".";
  std::string source = "unknown";
};

// Hands pages freed by earlier Experiments back to the system before a round,
// so the peak resident set does not depend on how many rounds fit in a run.
void releaseFreedMemory() { malloc_trim(0); }

// Runs rounds, checks them, and keeps the bookkeeping every mode shares.
class Bench {
 public:
  Bench(const Args& args, const Workload& w) : args_(args), w_(w) {
    ScopedSpan s(log_, "spec");
    for (std::size_t i = 0; i < w.loads.size(); ++i) {
      specs_.push_back(harness::sweepPointConfig(w.base, w.loads[i], i));
    }
  }

  // Builds every point's Experiment once and returns the summed seconds.
  double setupPass() {
    ScopedSpan pass(log_, "setup_pass");
    double total = 0.0;
    for (const harness::ExperimentSpec& spec : specs_) {
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan s(log_, "setup");
        harness::Experiment exp(spec);
      }
      total += secondsSince(t0);
    }
    return total;
  }

  Round round(Mode mode) {
    Round r = runRound(w_, specs_, mode, log_);
    releaseFreedMemory();
    ScopedSpan s(log_, "check");
    // A bad output file fails every point the round wrote into it.
    const std::string outputErr = w_.observed && mode != Mode::kUnobserved
                                      ? checkOutputs(w_, r, args_.toolsDir)
                                      : std::string();
    for (const PointRun& p : r.points) {
      attempted_ += 1;
      std::string err = checkPoint(w_, p);
      if (err.empty()) err = outputErr;
      const metrics::SteadyStateResult& res = p.point.result;
      std::fprintf(stderr,
                   "hxbench: %s point %zu load %.2f: setup %.4f s run %.3f s, %llu flit-hops, "
                   "%llu events, warmup %llu cycles, accepted %.4f, latency %.2f%s\n",
                   w_.name.c_str(), p.point.index, p.point.load, p.setupS, p.runS,
                   static_cast<unsigned long long>(p.flitHops),
                   static_cast<unsigned long long>(p.events),
                   static_cast<unsigned long long>(res.warmupCycles), res.accepted,
                   res.latencyMean, res.saturated ? " (saturated)" : "");
      if (!err.empty()) {
        failed_ += 1;
        std::fprintf(stderr, "hxbench: %s point %zu (load %.2f) FAILED: %s\n",
                     w_.name.c_str(), p.point.index, p.point.load, err.c_str());
      }
    }
    const SimSignature sig = signature(r);
    if (!reference_) reference_ = std::make_unique<SimSignature>(sig);
    auto& events = referenceEvents_[mode == Mode::kUnobserved];
    if (events.empty()) events = eventCounts(r);
    if (!(sig == *reference_) || events != eventCounts(r)) {
      deterministic_ = false;
      std::fprintf(stderr, "hxbench: %s: simulated results differ between rounds\n",
                   w_.name.c_str());
    }
    return r;
  }

  const std::vector<harness::ExperimentSpec>& specs() const { return specs_; }
  SpanLog& log() { return log_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool deterministic() const { return deterministic_; }

 private:
  const Args& args_;
  const Workload& w_;
  SpanLog log_;
  std::vector<harness::ExperimentSpec> specs_;
  std::unique_ptr<SimSignature> reference_;
  std::map<bool, std::vector<std::uint64_t>> referenceEvents_;  // by "observers detached"
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool deterministic_ = true;
};

// sim_accepted: accepted rate at the highest offered load; sim_latency_mean:
// mean latency at the lowest load (always a stable point).
double simAccepted(const Round& r) { return r.points.back().point.result.accepted; }
double simLatency(const Round& r) { return r.points.front().point.result.latencyMean; }

int runEndToEnd(const Args& args, const Workload& w) {
  Bench bench(args, w);
  // Set-up passes first: the first Experiment a process builds pays for
  // page faults and allocator growth the later ones do not, and the median
  // over several builds keeps that, and the machine's noise, out of setup_s.
  constexpr int kSetupPasses = 10;
  std::vector<double> setups;
  for (int i = 0; i < kSetupPasses; ++i) setups.push_back(bench.setupPass());
  releaseFreedMemory();

  const Clock::time_point start = Clock::now();
  std::vector<Round> rounds;
  double last = 0.0;
  // Whole rounds only; start another while it is expected to end in time.
  while (rounds.empty() || secondsSince(start) + last <= args.seconds) {
    const Clock::time_point r0 = Clock::now();
    rounds.push_back(bench.round(Mode::kPlain));
    last = secondsSince(r0);
    setups.push_back(rounds.back().setupS);
  }
  std::vector<double> wall, cpu, nsHop;
  for (const Round& r : rounds) {
    wall.push_back(r.wallS);
    cpu.push_back(r.cpuS);
    nsHop.push_back(r.flitHops > 0 ? r.runS * 1e9 / static_cast<double>(r.flitHops) : 0.0);
  }
  const Round& first = rounds.front();
  std::uint64_t events = 0;
  for (const std::uint64_t e : eventCounts(first)) events += e;
  // The simulated values a same-seed run must reproduce exactly.
  std::printf("{\"rounds\": %zu, \"sim\": {\"events\": %llu, \"flit_hops\": %llu, "
              "\"accepted\": %.17g, \"latency\": %.17g}}\n",
              rounds.size(), static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(first.flitHops), simAccepted(first),
              simLatency(first));
  printResult(bench.deterministic(), bench.attempted(), bench.failed(),
              {{"wall_s", median(wall), "s"},
               {"cpu_s", median(cpu), "s"},
               {"ns_per_flit_hop", median(nsHop), "ns"},
               {"setup_s", median(setups), "s"},
               {"peak_rss_mib", peakRssMib(), "MiB"},
               {"sim_accepted", simAccepted(first), "flits/node/cycle"},
               {"sim_latency_mean", simLatency(first), "cycles"}});
  return 0;
}

int runTraced(const Args& args, const Workload& w) {
  Bench bench(args, w);
  bench.setupPass();  // warm the allocator like the untraced runs do
  releaseFreedMemory();
  const Round plain = bench.round(Mode::kPlain);
  const Round traced = bench.round(Mode::kTraced);
  double hookOverhead = 0.0;
  if (w.observed) hookOverhead = plain.wallS - bench.round(Mode::kUnobserved).wallS;

  SpanLog& log = bench.log();
  ScopedSpan probes(log, "probes");
  const harness::ExperimentSpec& spec = bench.specs().front();
  auto& registry = harness::ExperimentRegistry::instance();
  const std::unique_ptr<topo::Topology> topo =
      registry.topology(spec.topology).build(spec.paramFlags());
  double topoBuild, routingBuild, lookup, queueNs;
  double faultBuild = 0.0, degradedLookup = 0.0;
  {
    ScopedSpan s(log, "probe.topo");
    topoBuild = topologyBuildSeconds(spec, 5);
    lookup = lookupNs(*topo, args.seed);
  }
  {
    ScopedSpan s(log, "probe.routing");
    routingBuild = routingBuildSeconds(spec, *topo, 5);
  }
  if (w.faulted) {
    ScopedSpan s(log, "probe.fault");
    faultBuild = faultBuildSeconds(spec, *topo, 3);
    const fault::FaultSet set = fault::buildFaultSet(*topo, spec.fault);
    std::uint32_t maxPorts = 0;
    for (RouterId r = 0; r < topo->numRouters(); ++r) {
      maxPorts = std::max(maxPorts, topo->numPorts(r));
    }
    fault::DeadPortMask mask(topo->numRouters(), maxPorts);
    mask.apply(set.ports);
    const fault::DegradedTopology degraded(*topo, mask, spec.fault.toleratesPartition());
    degradedLookup = lookupNs(degraded, args.seed);
  }
  {
    ScopedSpan s(log, "probe.queue");
    // The delays the network schedules: router and terminal channels, the
    // crossbar, and next-cycle retries.
    const std::vector<Tick> delays = {spec.net.channelLatencyRouter, 1,
                                      spec.net.router.crossbarLatency,
                                      spec.net.channelLatencyTerminal};
    std::size_t pending = 0;
    {
      harness::Experiment exp(spec);
      pending = exp.network().numChannels();
    }
    queueNs = queueNsPerOp(delays, pending);
  }
  probes.close();

  std::uint64_t events = 0, flitHops = 0, warmup = 0, packets = 0, backlog = 0;
  double runS = 0.0, bytesPerTerminal = 0.0, allocNs = 0.0;
  CallStats route, dest;
  for (const PointRun& p : traced.points) {
    events += p.events;
    flitHops += p.flitHops;
    warmup += p.point.result.warmupCycles;
    packets += p.point.result.packetsMeasured;
    backlog += p.backlogFlits;
    runS += p.runS;
    bytesPerTerminal = std::max(bytesPerTerminal, p.bytesPerTerminal);
    allocNs = std::max(allocNs, p.packetAllocNs);
    route.calls += p.route.calls;
    route.ns += p.route.ns;
    dest.calls += p.dest.calls;
    dest.ns += p.dest.ns;
  }
  const double routeS = 1e-9 * static_cast<double>(route.ns);
  const double destS = 1e-9 * static_cast<double>(dest.ns);
  // Route and dest calls are the run span's only timed children.
  const double loopSelf = runS - routeS - destS;
  const double hops = static_cast<double>(std::max<std::uint64_t>(flitHops, 1));
  const std::vector<Metric> metrics = {
      {"topo.build_s", topoBuild, "s"},
      {"topo.lookup_ns", lookup, "ns"},
      {"fault.build_s", faultBuild, "s"},
      {"fault.degraded_lookup_ns", degradedLookup, "ns"},
      {"routing.build_s", routingBuild, "s"},
      {"routing.calls", static_cast<double>(route.calls), "count"},
      {"routing.calls_per_flit_hop", static_cast<double>(route.calls) / hops, "ratio"},
      {"routing.ns_per_call",
       route.calls > 0 ? static_cast<double>(route.ns) / static_cast<double>(route.calls) : 0.0,
       "ns"},
      {"routing.self_s", routeS, "s"},
      {"traffic.dest_calls", static_cast<double>(dest.calls), "count"},
      {"traffic.self_s", destS, "s"},
      {"sim.events", static_cast<double>(events), "count"},
      {"sim.events_per_flit_hop", static_cast<double>(events) / hops, "ratio"},
      {"sim.ns_per_event", events > 0 ? loopSelf * 1e9 / static_cast<double>(events) : 0.0,
       "ns"},
      {"sim.queue_ns_per_op", queueNs, "ns"},
      {"net.flit_hops", static_cast<double>(flitHops), "count"},
      {"net.loop_self_s", loopSelf, "s"},
      {"net.bytes_per_terminal", bytesPerTerminal, "B"},
      {"net.source_backlog_flits", static_cast<double>(backlog), "flits"},
      {"net.packet_alloc_ns", allocNs, "ns"},
      {"metrics.warmup_cycles", static_cast<double>(warmup), "cycles"},
      {"metrics.packets_measured", static_cast<double>(packets), "count"},
      {"obs.hook_overhead_s", hookOverhead, "s"},
      {"obs.write_s", traced.writeS, "s"},
      {"obs.output_bytes", static_cast<double>(traced.outputBytes), "B"},
      {"obs.timeline_windows", static_cast<double>(traced.timelineWindows), "count"},
      {"bench.tracing_overhead_s", traced.wallS - plain.wallS, "s"},
      {"bench.reference_loop_s", referenceLoopSeconds(), "s"},
  };
  for (const Metric& m : metrics) {
    std::printf("%-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  log.write(args.outDir + "/" + w.name + ".spans.json");
  printResult(bench.deterministic(), bench.attempted(), bench.failed(), metrics);
  return 0;
}

// The sharded workload's simulated results must equal a serial run of the
// same spec, and a traced run must equal an untraced one.
int runSelfTest(const Args& args) {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  const auto readFile = [](const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    std::stringstream s;
    s << f.rdbuf();
    return s.str();
  };
  const auto sameResult = [](const metrics::SteadyStateResult& a,
                             const metrics::SteadyStateResult& b) {
    return a.saturated == b.saturated && a.accepted == b.accepted &&
           a.latencyMean == b.latencyMean && a.latencyP99 == b.latencyP99 &&
           a.latencyMax == b.latencyMax && a.avgHops == b.avgHops &&
           a.avgDeroutes == b.avgDeroutes && a.packetsMeasured == b.packetsMeasured &&
           a.warmupCycles == b.warmupCycles && a.avgStretch == b.avgStretch &&
           a.routing.decisions == b.routing.decisions;
  };
  {
    // Sharded over at most four workers, never fewer than two.
    Workload sharded = makeWorkload("paper_faulted_observed", args.seed, args.outDir);
    sharded.base.pointJobs = std::clamp<std::uint32_t>(usableCpus(), 2, 4);
    Workload serial = makeWorkload("paper_faulted_observed", args.seed, args.outDir + "/serial");
    SpanLog log;
    const double load = sharded.loads.front();
    const Round a = runRound(sharded, {harness::sweepPointConfig(sharded.base, load, 0)},
                             Mode::kPlain, log);
    const Round b =
        runRound(serial, {harness::sweepPointConfig(serial.base, load, 0)}, Mode::kPlain, log);
    expect(a.points[0].lanes > 1 && b.points[0].lanes == 1, "sharded run used several lanes");
    expect(sameResult(a.points[0].point.result, b.points[0].point.result),
           "sharded steady-state result equals serial");
    expect(a.points[0].flitHops == b.points[0].flitHops, "sharded flit-hops equal serial");
    expect(readFile(sharded.base.obs.traceOut) == readFile(serial.base.obs.traceOut),
           "sharded trace JSON byte-identical to serial");
    expect(readFile(sharded.base.obs.timelineOut) == readFile(serial.base.obs.timelineOut),
           "sharded timeline byte-identical to serial");
  }
  {
    Workload w = makeWorkload("small_urby_sweep", args.seed, args.outDir);
    Bench bench(args, w);
    bench.round(Mode::kPlain);
    const Round traced1 = bench.round(Mode::kTraced);
    const std::uint64_t calls1 = traced1.points.back().route.calls;
    const Round traced2 = bench.round(Mode::kTraced);
    expect(bench.deterministic(), "traced rounds simulate identically to the untraced one");
    expect(calls1 > 0 && calls1 == traced2.points.back().route.calls,
           "route call count repeats exactly");
    expect(bench.failed() == 0, "every small_urby_sweep point passes its checks");
  }
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hxwar::perfbench

int main(int argc, char** argv) {
  using namespace hxwar::perfbench;
  hxwar::Flags flags;
  if (!flags.parse(argc, argv)) return 2;
  Args args;
  args.workload = flags.str("workload", "");
  args.seed = flags.u64("seed", 1);
  args.seconds = flags.f64("seconds", 10.0);
  args.trace = flags.u64("trace", 0) != 0;
  args.selfTest = flags.b("self-test", false);
  args.outDir = flags.str("out-dir", args.outDir);
  args.toolsDir = flags.str("tools-dir", args.toolsDir);
  args.source = flags.str("source", args.source);
  std::filesystem::create_directories(args.outDir + "/serial");
  if (args.selfTest) return runSelfTest(args);

  std::printf("%s\n", stampJson(args.source, referenceLoopSeconds()).c_str());
  const Workload w = makeWorkload(args.workload, args.seed, args.outDir);
  return args.trace ? runTraced(args, w) : runEndToEnd(args, w);
}
