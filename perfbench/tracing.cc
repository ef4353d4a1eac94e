#include "tracing.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/assert.h"
#include "harness/registry.h"
#include "routing/routing.h"
#include "traffic/pattern.h"

namespace hxwar::perfbench {

int SpanLog::open(const std::string& name) {
  Span s;
  s.name = name;
  s.start = secondsSince(origin_);
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int id) {
  HXWAR_CHECK_MSG(!stack_.empty() && stack_.back() == id, "spans must close innermost first");
  spans_[id].end = secondsSince(origin_);
  stack_.pop_back();
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                    "\"parent\": %d}%s\n",
                 i, s.name.c_str(), s.start, s.end, s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

CallStats* CallStatsPool::make() {
  std::lock_guard<std::mutex> lock(mu_);
  return &slots_.emplace_back();
}

CallStats CallStatsPool::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  CallStats t;
  for (const CallStats& s : slots_) {
    t.calls += s.calls;
    t.ns += s.ns;
  }
  return t;
}

void CallStatsPool::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
}

CallStatsPool& routeStats() {
  static CallStatsPool pool;
  return pool;
}

CallStatsPool& destStats() {
  static CallStatsPool pool;
  return pool;
}

namespace {

std::uint64_t elapsedNs(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

class TimedRouting final : public routing::RoutingAlgorithm {
 public:
  explicit TimedRouting(std::unique_ptr<routing::RoutingAlgorithm> inner)
      : inner_(std::move(inner)), stats_(routeStats().make()) {}

  void route(const routing::RouteContext& ctx, net::Packet& pkt,
             std::vector<routing::Candidate>& out) override {
    const Clock::time_point t0 = Clock::now();
    inner_->route(ctx, pkt, out);
    stats_->ns += elapsedNs(t0);
    stats_->calls += 1;
  }
  std::uint32_t numClasses() const override { return inner_->numClasses(); }
  routing::AlgorithmInfo info() const override { return inner_->info(); }

 private:
  std::unique_ptr<routing::RoutingAlgorithm> inner_;
  CallStats* stats_;
};

class TimedPattern final : public traffic::TrafficPattern {
 public:
  explicit TimedPattern(std::unique_ptr<traffic::TrafficPattern> inner)
      : inner_(std::move(inner)), stats_(destStats().make()) {}

  std::string name() const override { return inner_->name(); }
  NodeId dest(NodeId src, Rng& rng) override {
    const Clock::time_point t0 = Clock::now();
    const NodeId d = inner_->dest(src, rng);
    stats_->ns += elapsedNs(t0);
    stats_->calls += 1;
    return d;
  }

 private:
  std::unique_ptr<traffic::TrafficPattern> inner_;
  CallStats* stats_;
};

std::unique_ptr<traffic::TrafficPattern> timedPattern(const std::string& inner,
                                                      const topo::Topology& topo,
                                                      std::uint64_t seed) {
  return std::make_unique<TimedPattern>(
      harness::ExperimentRegistry::instance().pattern(inner).build(topo, seed));
}

}  // namespace

HXWAR_REGISTER_ROUTING(("hyperx", "timed", "timed-inner=<hyperx algorithm>", false,
                        [](const topo::Topology& topo, const Flags& params) {
                          const std::string inner = params.str("timed-inner", "");
                          return std::unique_ptr<routing::RoutingAlgorithm>(
                              std::make_unique<TimedRouting>(
                                  harness::ExperimentRegistry::instance()
                                      .routing("hyperx", inner)
                                      .build(topo, params)));
                        }));
HXWAR_REGISTER_PATTERN(({"timed-ur", "uniform random, timed",
                         [](const topo::Topology& topo, std::uint64_t seed) {
                           return timedPattern("ur", topo, seed);
                         }}));
HXWAR_REGISTER_PATTERN(({"timed-urby", "bisection in dim 1, timed",
                         [](const topo::Topology& topo, std::uint64_t seed) {
                           return timedPattern("urby", topo, seed);
                         }}));

}  // namespace hxwar::perfbench
