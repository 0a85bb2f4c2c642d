// fleet and unique: batches of 1024 request frames through one
// Connection of a VerdictServer, closed loop with one client.
//
//   fleet   SyntheticFleet frames (the 66-scenario mix over a million
//           subscribers), workers = 1.  Every request hits the compact
//           verdict table once the warm-up has served the whole input
//           set.
//   unique  one distinct ScenarioGen scenario per frame, workers = 2.
//           The input set cycles through more distinct scenarios than
//           either 65,536-entry cache holds, and the warm-up fills both,
//           so every timed request misses and evicts.

#include <optional>
#include <string>
#include <unordered_map>

#include "check/scenario_gen.h"
#include "legal/batch.h"
#include "legal/engine.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {

namespace {

using namespace lexfor;

constexpr std::size_t kBatchFrames = 1024;

struct Verdict {
  bool needs_process = false;
  legal::ProcessKind process = legal::ProcessKind::kNone;
  legal::StandardOfProof proof = legal::StandardOfProof::kNone;

  bool operator==(const Verdict&) const = default;
};

Verdict oracle(const legal::Scenario& s) {
  const legal::Determination d = legal::ComplianceEngine{}.evaluate(s);
  return Verdict{d.needs_process, d.required_process, d.required_proof};
}

serve::ServerOptions server_options(unsigned workers) {
  serve::ServerOptions options;
  options.workers = workers;
  options.batch.threads = 1;  // BatchEvaluator's own pool: never used here
  return options;
}

// Shared by both workloads: serving, admission checks and the counts.
class ServeWorkload : public Workload {
 public:
  ServeWorkload(unsigned workers, std::size_t batches)
      : server_(server_options(workers)),
        conn_(server_.connect()),
        frames_(batches) {}

  [[nodiscard]] double items_per_op() const override { return kBatchFrames; }

  void reset_counts() override { counts_ = serve::ServeStats{}; }

  void layer_counts(std::size_t ops, std::vector<Metric>& out) const override {
    const double answered =
        static_cast<double>(counts_.cache_hits + counts_.cache_misses);
    const double offered = static_cast<double>(counts_.offered);
    const double failed = static_cast<double>(
        counts_.shed_queue_full + counts_.rejected_malformed +
        counts_.rejected_version);
    out.push_back({"serve.cache_hit_ratio",
                   answered > 0 ? counts_.cache_hits / answered : 0.0,
                   "ratio"});
    out.push_back({"serve.pool_saturated",
                   ops > 0 ? counts_.pool_saturated / static_cast<double>(ops)
                           : 0.0,
                   "count"});
    out.push_back({"serve.admission_failed_share",
                   offered > 0 ? failed / offered : 0.0, "ratio"});
  }

 protected:
  void serve_batch(std::size_t batch) {
    last_ = server_.serve(conn_, frames_[batch]);
    counts_.offered += last_.offered;
    counts_.shed_queue_full += last_.shed_queue_full;
    counts_.rejected_malformed += last_.rejected_malformed;
    counts_.rejected_version += last_.rejected_version;
    counts_.cache_hits += last_.cache_hits;
    counts_.cache_misses += last_.cache_misses;
    counts_.pool_saturated += last_.pool_saturated;
  }

  // Admission must be balanced with nothing shed or rejected, and frame
  // k of the answer must carry `id(k)` and `expected(k)`.
  template <typename Id, typename Expected>
  [[nodiscard]] bool check_answers(Id id, Expected expected) const {
    if (!last_.balanced() || last_.offered != kBatchFrames ||
        last_.accepted != kBatchFrames || last_.responses != kBatchFrames) {
      return false;
    }
    const auto& bytes = conn_.responses();
    if (bytes.size() != kBatchFrames * serve::wire::kResponseFrameBytes) {
      return false;
    }
    serve::wire::Response r;
    for (std::size_t k = 0; k < kBatchFrames; ++k) {
      const std::span<const std::uint8_t> frame(
          bytes.data() + k * serve::wire::kResponseFrameBytes,
          serve::wire::kResponseFrameBytes);
      if (!serve::wire::decode_response(frame, r).ok()) return false;
      if (r.status != StatusCode::kOk || r.request_id != id(k)) return false;
      const Verdict got{r.needs_process, r.required_process, r.required_proof};
      if (!(got == expected(k))) return false;
    }
    return true;
  }

  serve::VerdictServer server_;
  serve::Connection conn_;
  std::vector<std::vector<std::uint8_t>> frames_;  // one buffer per batch
  serve::ServeStats last_;
  serve::ServeStats counts_;
};

// 64 batches (65,536 requests) cover every template of the mix.
constexpr std::size_t kFleetBatches = 64;

class Fleet final : public ServeWorkload {
 public:
  explicit Fleet(std::uint64_t seed)
      : ServeWorkload(1, kFleetBatches),
        fleet_(serve::FleetOptions{seed, 1'000'000, 1}) {
    for (std::size_t b = 0; b < kFleetBatches; ++b) {
      frames_[b].reserve(kBatchFrames * fleet_.max_bytes_per_client());
      fleet_.generate(0, b * kBatchFrames, kBatchFrames, frames_[b]);
    }
    // One pass over the input set puts every scenario it asks about in
    // the verdict table.
    for (std::size_t b = 0; b < kFleetBatches; ++b) serve_batch(b);
  }

  void run(std::size_t i) override { serve_batch(i % kFleetBatches); }
  [[nodiscard]] std::size_t period() const override { return kFleetBatches; }

  [[nodiscard]] bool check(std::size_t i) override {
    const std::uint64_t first = (i % kFleetBatches) * kBatchFrames;
    return check_answers(
        [&](std::size_t k) {
          return serve::SyntheticFleet::request_id(0, first + k);
        },
        [&](std::size_t k) {
          const legal::Scenario& s = fleet_.scenario_for(0, first + k, 0);
          auto it = expected_.find(&s);
          if (it == expected_.end()) it = expected_.emplace(&s, oracle(s)).first;
          return it->second;
        });
  }

 private:
  serve::SyntheticFleet fleet_;
  // Keyed by the fleet's own scenario object: the mix has 66 of them.
  std::unordered_map<const legal::Scenario*, Verdict> expected_;
};

// 96 batches of distinct scenarios (98,304) exceed the 65,536 entries of
// both caches, so cycling through them never hits; the 80-batch warm-up
// (81,920 inserts) leaves every cache shard full.
constexpr std::size_t kUniqueBatches = 96;
constexpr std::size_t kUniqueWarmBatches = 80;

class Unique final : public ServeWorkload {
 public:
  explicit Unique(std::uint64_t seed) : ServeWorkload(2, kUniqueBatches) {
    Rng rng(seed);
    check::ScenarioGen gen(rng);
    scenarios_.reserve(kUniqueBatches * kBatchFrames);
    for (std::size_t b = 0; b < kUniqueBatches; ++b) {
      for (std::size_t k = 0; k < kBatchFrames; ++k) {
        const std::uint64_t id = b * kBatchFrames + k;
        scenarios_.push_back(gen.generate("unique-" + std::to_string(id)));
        serve::wire::encode_request(scenarios_.back(), id, frames_[b]);
      }
    }
    for (std::size_t b = 0; b < kUniqueWarmBatches; ++b) serve_batch(b);
  }

  void run(std::size_t i) override { serve_batch(batch(i)); }
  [[nodiscard]] std::size_t period() const override { return kUniqueBatches; }

  [[nodiscard]] bool check(std::size_t i) override {
    const std::uint64_t first = batch(i) * kBatchFrames;
    return check_answers([&](std::size_t k) { return first + k; },
                         [&](std::size_t k) {
                           std::optional<Verdict>& want = expected_[first + k];
                           if (!want) want = oracle(scenarios_[first + k]);
                           return *want;
                         });
  }

 private:
  // Every set-up is followed by operations that start on a period
  // boundary, so operation i serves the batch that continues the cycle
  // where the warm-up stopped: never one of the 64 most recently served.
  [[nodiscard]] static std::size_t batch(std::size_t i) {
    return (kUniqueWarmBatches + i) % kUniqueBatches;
  }

  std::vector<legal::Scenario> scenarios_;
  std::vector<std::optional<Verdict>> expected_ =
      std::vector<std::optional<Verdict>>(kUniqueBatches * kBatchFrames);
};

}  // namespace

std::unique_ptr<Workload> make_fleet(std::uint64_t seed) {
  // Every set-up starts from the same process-wide cache state.
  legal::shared_verdict_cache().clear();
  return std::make_unique<Fleet>(seed);
}

std::unique_ptr<Workload> make_unique_requests(std::uint64_t seed) {
  legal::shared_verdict_cache().clear();
  return std::make_unique<Unique>(seed);
}

}  // namespace perfbench
