// Onion-routing anonymity network (Tor/Anonymizer-style), the substrate
// for the §IV.B traceback experiment.
//
// Content and addressing inside the network are encrypted hop-to-hop, so
// an investigator cannot read who talks to whom — but packet *timing*
// survives: each relay adds batching and jitter, yet the coarse rate
// envelope of a flow persists end-to-end.  That is precisely the channel
// the DSSS watermark uses.

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/ids.h"
#include "util/rng.h"
#include "util/status.h"

namespace lexfor::tornet {

struct TorConfig {
  std::size_t num_relays = 9;
  int circuit_length = 3;       // entry, middle(s), exit
  // Per-relay forwarding jitter (exponential mean, ms).
  double relay_jitter_ms = 30.0;
  // Per-relay batching quantum (uniform [0, batch) ms): relays flush
  // queued cells periodically.
  double relay_batch_ms = 10.0;
  // Base propagation per hop (ms).
  double hop_latency_ms = 25.0;
};

struct Circuit {
  CircuitId id;
  std::vector<std::size_t> relays;  // indices into the relay set
};

class AnonymityNetwork {
 public:
  explicit AnonymityNetwork(TorConfig config) : config_(config) {}

  [[nodiscard]] const TorConfig& config() const noexcept { return config_; }

  // Builds a circuit of `circuit_length` distinct relays.
  [[nodiscard]] Result<Circuit> build_circuit(Rng& rng) const;

  // Carries a flow through the circuit: given packet send times (sec,
  // ascending), returns arrival times at the far end (sec, sorted).
  // Each packet independently accrues per-relay latency + jitter +
  // batching delay; reordering is resolved by sorting.  Detection only
  // needs arrival counts (see transit_binned), so the sort serves the
  // callers that need the arrival times themselves.
  [[nodiscard]] std::vector<double> transit(const Circuit& circuit,
                                            const std::vector<double>& send_sec,
                                            Rng& rng) const;

  // Carries a flow through the circuit and counts each arrival straight
  // into its window: `bins` is overwritten with the bins.size() counts
  // bin_arrivals(transit(circuit, send_sec, rng), start_sec, window_sec,
  // bins.size()) would return, bit for bit, from the same Rng draws in
  // the same order.  Counts do not depend on arrival order, so no
  // arrivals vector is kept and nothing is sorted.
  void transit_binned(const Circuit& circuit,
                      const std::vector<double>& send_sec, double start_sec,
                      double window_sec, std::span<std::uint32_t> bins,
                      Rng& rng) const;

 private:
  TorConfig config_;
};

// Generates send times (sec) of a Poisson process on [0, t_end) whose
// instantaneous rate is base_rate * multiplier(t) — via Lewis-Shedler
// thinning.  `multiplier` may be nullptr for a homogeneous process, and
// must return values in (0, max_multiplier].
std::vector<double> generate_modulated_poisson(
    double base_rate, double t_end_sec, double max_multiplier,
    const std::function<double(double)>& multiplier, Rng& rng);

// Bins arrival times (sec) into windows of `window_sec` aligned at
// `start_sec`, producing `num_windows` counts — the rate series an ISP
// tap observes without touching content.
std::vector<std::uint32_t> bin_arrivals(const std::vector<double>& arrivals_sec,
                                        double start_sec, double window_sec,
                                        std::size_t num_windows);

}  // namespace lexfor::tornet
