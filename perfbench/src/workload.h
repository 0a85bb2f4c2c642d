// The benchmark's workloads, behind one interface the runner drives.
//
// A workload's factory is its whole set-up: it derives the inputs from
// the seed, builds the objects under test and warms them to steady
// state.  The runner then calls run(i) for i = 0, 1, ... (timing only
// that call) and check(i) right after each one, untimed.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Operation i of the run; inputs repeat with a fixed period.
  virtual void run(std::size_t i) = 0;
  // Checks the output of the operation run last, which was operation i.
  // Returns false if it is wrong.
  [[nodiscard]] virtual bool check(std::size_t i) = 0;
  // Results one operation delivers (verdicts for a served batch).
  [[nodiscard]] virtual double items_per_op() const { return 1.0; }
  // Operations after which the inputs repeat.
  [[nodiscard]] virtual std::size_t period() const = 0;

  // Layer counts the workload observes from outside (not from spans),
  // accumulated since the last reset_counts(), over `ops` operations.
  virtual void reset_counts() {}
  virtual void layer_counts(std::size_t /*ops*/,
                            std::vector<Metric>& /*out*/) const {}
};

struct WorkloadSpec {
  const char* name;
  // Sizing: the operation count of a run is seconds / nominal_op_s, so
  // a run has a fixed length in operations, not in time.
  double nominal_op_s;
  // Set-ups in an end-to-end run; setup_s is the fastest of them.
  std::size_t setups;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
};

std::unique_ptr<Workload> make_fleet(std::uint64_t seed);
std::unique_ptr<Workload> make_unique_requests(std::uint64_t seed);
std::unique_ptr<Workload> make_traceback(std::uint64_t seed);
std::unique_ptr<Workload> make_live_case(std::uint64_t seed);

}  // namespace perfbench
