#include "layers.h"

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "fault/degraded_topology.h"
#include "fault/fault_model.h"
#include "harness/registry.h"
#include "sim/event_queue.h"
#include "tracing.h"

namespace hxwar::perfbench {
namespace {

template <typename Fn>
double medianSeconds(int repeats, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(secondsSince(t0));
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

// Keeps a computed value alive so the timed loops cannot be folded away.
volatile std::uint64_t g_sink = 0;

}  // namespace

double topologyBuildSeconds(const harness::ExperimentSpec& spec, int repeats) {
  const Flags params = spec.paramFlags();
  const auto& family = harness::ExperimentRegistry::instance().topology(spec.topology);
  return medianSeconds(repeats, [&] { g_sink = g_sink + family.build(params)->numRouters(); });
}

double routingBuildSeconds(const harness::ExperimentSpec& spec, const topo::Topology& topo,
                           int repeats) {
  const Flags params = spec.paramFlags();
  const auto& entry = harness::ExperimentRegistry::instance().routing(spec.topology, spec.routing);
  return medianSeconds(repeats,
                       [&] { g_sink = g_sink + entry.build(topo, params)->numClasses(); });
}

double faultBuildSeconds(const harness::ExperimentSpec& spec, const topo::Topology& topo,
                         int repeats) {
  return medianSeconds(repeats, [&] {
    const fault::FaultSet set = fault::buildFaultSet(topo, spec.fault);
    std::uint32_t maxPorts = 0;
    for (RouterId r = 0; r < topo.numRouters(); ++r) maxPorts = std::max(maxPorts, topo.numPorts(r));
    fault::DeadPortMask mask(topo.numRouters(), maxPorts);
    mask.apply(set.ports);
    const fault::DegradedTopology degraded(topo, mask, spec.fault.toleratesPartition());
    g_sink = g_sink + degraded.diameter();
  });
}

double lookupNs(const topo::Topology& topo, std::uint64_t seed) {
  constexpr std::size_t kPairs = 4096;
  constexpr std::size_t kLookups = 4u << 20;
  Rng rng(seed);
  std::vector<RouterId> from(kPairs), to(kPairs);
  std::vector<PortId> port(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    from[i] = static_cast<RouterId>(rng.below(topo.numRouters()));
    to[i] = static_cast<RouterId>(rng.below(topo.numRouters()));
    port[i] = static_cast<PortId>(rng.below(topo.numPorts(from[i])));
  }
  std::uint64_t acc = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < kLookups; ++i) {
    const std::size_t k = i & (kPairs - 1);
    const topo::Topology::PortTarget t = topo.portTarget(from[k], port[k]);
    acc += t.router + t.port + topo.minHops(from[k], to[k]);
  }
  const double s = secondsSince(t0);
  g_sink = g_sink + acc;
  return s * 1e9 / static_cast<double>(kLookups);
}

double queueNsPerOp(const std::vector<Tick>& delays, std::size_t pending) {
  constexpr std::size_t kOps = 4u << 20;
  sim::EventQueue q;
  q.reserve(pending);
  std::size_t k = 0;
  const auto next = [&] { return delays[k++ % delays.size()]; };
  for (std::size_t i = 0; i < pending; ++i) {
    q.push(next(), static_cast<std::uint8_t>(i % 2), nullptr, i);
  }
  std::uint64_t acc = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    const sim::Event e = q.pop();
    acc += e.tag;
    q.push(e.time + next(), e.epsilon(), nullptr, e.tag);
  }
  const double s = secondsSince(t0);
  g_sink = g_sink + acc;
  return s * 1e9 / static_cast<double>(kOps);
}

double packetAllocNs(net::Network& network) {
  constexpr std::size_t kOps = 1u << 20;
  constexpr std::size_t kLive = 256;  // packets held at once, like a busy lane
  std::vector<net::Packet*> live(kLive, nullptr);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < kOps; ++i) {
    net::Packet*& slot = live[i % kLive];
    if (slot != nullptr) network.recyclePacket(slot);
    slot = network.allocPacket();
  }
  const double s = secondsSince(t0);
  for (net::Packet* p : live) network.recyclePacket(p);
  return s * 1e9 / static_cast<double>(kOps);
}

}  // namespace hxwar::perfbench
