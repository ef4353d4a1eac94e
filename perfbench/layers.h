// Per-layer probes for the traced run: each times direct calls into one
// module's public functions on the workload's own configuration.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "harness/spec.h"
#include "net/network.h"
#include "topo/topology.h"

namespace hxwar::perfbench {

// Median host seconds of `repeats` registry builds.
double topologyBuildSeconds(const harness::ExperimentSpec& spec, int repeats);
double routingBuildSeconds(const harness::ExperimentSpec& spec, const topo::Topology& topo,
                           int repeats);
// buildFaultSet + DeadPortMask + DegradedTopology, as the Experiment does it.
double faultBuildSeconds(const harness::ExperimentSpec& spec, const topo::Topology& topo,
                         int repeats);

// Host ns per portTarget + minHops pair on random routers, ports and
// destinations drawn from `seed`.
double lookupNs(const topo::Topology& topo, std::uint64_t seed);

// Host ns per EventQueue push + pop in a steady state of `pending` events
// whose scheduling delays cycle through `delays`.
double queueNsPerOp(const std::vector<Tick>& delays, std::size_t pending);

// Host ns per Network::allocPacket + recyclePacket pair.
double packetAllocNs(net::Network& network);

}  // namespace hxwar::perfbench
