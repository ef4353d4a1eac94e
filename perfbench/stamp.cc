#include "stamp.h"

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/rng.h"
#include "tracing.h"

namespace hxwar::perfbench {
namespace {

// Where the pointer chase ended, kept so the loop cannot be folded away.
volatile std::uint64_t g_chaseEnd = 0;

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) == 0 ||
      regs[0] < 0x80000004u) {
    return "unknown";
  }
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                &regs[4 * leaf + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const std::size_t first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::uint32_t usableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::uint32_t>(CPU_COUNT(&set));
}

double referenceLoopSeconds() {
  // A single random cycle through 2 Mi slots (Sattolo's shuffle), so every
  // step is a dependent load that misses a 2 MiB L2.
  constexpr std::size_t kSlots = std::size_t{2} << 20;
  constexpr std::size_t kSteps = std::size_t{4} << 20;
  std::vector<std::uint64_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0);
  Rng rng(12345);
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    std::swap(next[i], next[rng.below(i)]);
  }
  std::uint64_t at = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < kSteps; ++i) at = next[at];
  const double s = secondsSince(t0);
  g_chaseEnd = at;
  return s;
}

std::string stampJson(const std::string& sourceId, double refLoopSeconds) {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  std::string out = "{\"stamp\": {";
  out += "\"cpu_model\": \"" + jsonEscape(cpuModel()) + "\"";
  out += ", \"usable_cpus\": " + std::to_string(usableCpus());
  out += ", \"l2_bytes\": " + std::to_string(l2 > 0 ? l2 : 0);
  out += ", \"compiler\": \"" + jsonEscape(HXBENCH_COMPILER) + "\"";
  out += ", \"build_type\": \"" + jsonEscape(HXBENCH_BUILD_TYPE) + "\"";
  out += ", \"hxwar_obs\": " + std::string(HXBENCH_OBS ? "true" : "false");
  out += ", \"source\": \"" + jsonEscape(sourceId) + "\"";
  char ref[64];
  std::snprintf(ref, sizeof(ref), "%.6f", refLoopSeconds);
  out += ", \"reference_loop_s\": " + std::string(ref);
  out += "}}";
  return out;
}

}  // namespace hxwar::perfbench
