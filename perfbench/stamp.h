// Machine and build stamp recorded with every run.
#pragma once

#include <cstdint>
#include <string>

namespace hxwar::perfbench {

// CPUs this process may run on (its affinity mask).
std::uint32_t usableCpus();

// Seconds of a fixed 16 MiB pointer chase: a memory-bound reference printed
// next to every run, so drift of the machine shows beside the numbers.
double referenceLoopSeconds();

// One-line JSON object: CPU model, usable CPUs, L2 size, compiler, build
// type, HXWAR_OBS, the source id given by the caller (git commit or a digest
// of the source tree) and the reference loop time.
std::string stampJson(const std::string& sourceId, double refLoopSeconds);

}  // namespace hxwar::perfbench
