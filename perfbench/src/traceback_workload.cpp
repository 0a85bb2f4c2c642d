// traceback: one §IV.B streaming traceback per operation, at the
// default TracebackConfig (degree-9 code, 8 decoys) with one detection
// thread, over a fixed list of simulation seeds drawn from the run seed.

#include <bit>
#include <map>
#include <optional>

#include "tornet/traceback.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace lexfor;

constexpr std::size_t kSeeds = 16;

tornet::TracebackConfig config_for(std::uint64_t seed) {
  tornet::TracebackConfig config;
  config.seed = seed;
  config.detect_threads = 1;
  return config;
}

// The batch traceback's result by simulation seed, kept across the
// run's set-ups so each seed's reference is computed once.
const Result<tornet::TracebackResult>& reference(std::uint64_t seed) {
  static std::map<std::uint64_t, Result<tornet::TracebackResult>> cache;
  auto it = cache.find(seed);
  if (it == cache.end()) {
    it = cache.emplace(seed, tornet::run_traceback(config_for(seed))).first;
  }
  return it->second;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class Traceback final : public Workload {
 public:
  explicit Traceback(std::uint64_t seed) {
    Rng rng(seed);
    for (auto& s : seeds_) s = rng();
    // Warm-up: one traceback brings the allocator and the shared verdict
    // cache (the tap admission posture) to steady state.
    last_ = tornet::run_streaming_traceback(config_for(seeds_[0]));
  }

  void run(std::size_t i) override {
    last_ = tornet::run_streaming_traceback(config_for(seeds_[i % kSeeds]));
  }

  [[nodiscard]] std::size_t period() const override { return kSeeds; }

  // Every per-flow verdict must be bit-identical to the batch
  // traceback's on the same seed, from one simulation pass.
  [[nodiscard]] bool check(std::size_t i) override {
    if (!last_ || !last_->ok()) return false;
    const tornet::TracebackResult& got = last_->value();
    sim_passes_ += got.sim_passes;
    const auto& want = reference(seeds_[i % kSeeds]);
    if (!want.ok() || got.sim_passes != 1) return false;
    const auto& flows = want.value().flows;
    if (got.flows.size() != flows.size()) return false;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      const auto& a = got.flows[f];
      const auto& b = flows[f];
      if (a.is_suspect != b.is_suspect ||
          a.detection.detected != b.detection.detected ||
          !same_bits(a.detection.correlation, b.detection.correlation) ||
          !same_bits(a.detection.threshold, b.detection.threshold)) {
        return false;
      }
    }
    return true;
  }

  void reset_counts() override { sim_passes_ = 0; }

  void layer_counts(std::size_t ops, std::vector<Metric>& out) const override {
    out.push_back({"tornet.sim_passes",
                   ops > 0 ? static_cast<double>(sim_passes_) / ops : 0.0,
                   "count"});
  }

 private:
  std::uint64_t seeds_[kSeeds] = {};
  std::optional<Result<tornet::TracebackResult>> last_;
  std::uint64_t sim_passes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_traceback(std::uint64_t seed) {
  return std::make_unique<Traceback>(seed);
}

}  // namespace perfbench
