// Tracing kept entirely on the benchmark's side of the program's public API:
//   * spans (name, start, end, parent) around every call the benchmark makes
//     into a layer, kept in memory and written out when the run ends;
//   * per-call counters and summed time for RoutingAlgorithm::route and
//     TrafficPattern::dest, gathered by decorators registered through the
//     program's own HXWAR_REGISTER_* registry ("timed" routing and
//     "timed-<pattern>" patterns). A decorator delegates every call to the
//     real registered algorithm or pattern, so a traced run simulates
//     bit-identically to an untraced one.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace hxwar::perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the log was created
  double end = 0.0;
  int parent = -1;  // index of the enclosing span, -1 at the top
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int open(const std::string& name);
  void close(int id);
  double duration(int id) const { return spans_[id].end - spans_[id].start; }

  // One JSON object per span, in open order.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name) : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Closes the span early; returns its duration in seconds.
  double close() {
    if (open_) log_.close(id_);
    open_ = false;
    return log_.duration(id_);
  }

 private:
  SpanLog& log_;
  int id_;
  bool open_ = true;
};

struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

// One CallStats slot per decorator instance. Sharded experiments build one
// routing and one pattern instance per lane, each driven by a single worker,
// so a slot is only ever written by one thread; slots are summed after the
// run, when the workers are parked.
class CallStatsPool {
 public:
  CallStats* make();
  CallStats total() const;
  void reset();

 private:
  mutable std::mutex mu_;  // guards slots_ (growth happens at construction)
  std::deque<CallStats> slots_;
};

CallStatsPool& routeStats();
CallStatsPool& destStats();

}  // namespace hxwar::perfbench
