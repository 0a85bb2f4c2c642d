#include "tornet/anonymity_network.h"

#include <algorithm>
#include <functional>

namespace lexfor::tornet {

namespace {

// One packet's arrival time (sec) after a send at `send_sec`: the base
// latency of every hop, then each relay's jitter and batching delay,
// drawn in that order.  transit and transit_binned both carry packets
// through here, so their draws and arithmetic cannot drift apart.
double arrival_sec(const TorConfig& config, const Circuit& circuit,
                   double send_sec, Rng& rng) {
  double delay_ms =
      static_cast<double>(circuit.relays.size()) * config.hop_latency_ms;
  for (std::size_t r = 0; r < circuit.relays.size(); ++r) {
    delay_ms += rng.exponential(config.relay_jitter_ms);
    delay_ms += rng.uniform01() * config.relay_batch_ms;
  }
  return send_sec + delay_ms * 1e-3;
}

// The window an arrival at `at_sec` counts into, or `num_windows` when
// it falls before `start_sec` or past the last window: the one bin rule
// of bin_arrivals and transit_binned.  Requires window_sec > 0.
std::size_t window_index(double at_sec, double start_sec, double window_sec,
                         std::size_t num_windows) {
  const double rel = at_sec - start_sec;
  if (rel < 0.0) return num_windows;
  const auto idx = static_cast<std::size_t>(rel / window_sec);
  return idx < num_windows ? idx : num_windows;
}

}  // namespace

Result<Circuit> AnonymityNetwork::build_circuit(Rng& rng) const {
  if (static_cast<std::size_t>(config_.circuit_length) > config_.num_relays) {
    return InvalidArgument(
        "build_circuit: circuit longer than the relay population");
  }
  Circuit c;
  static IdGenerator<CircuitId> ids;  // process-wide unique circuit ids
  c.id = ids.next();
  // Sample distinct relays.
  std::vector<std::size_t> pool(config_.num_relays);
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i] = i;
  rng.shuffle(pool);
  c.relays.assign(pool.begin(), pool.begin() + config_.circuit_length);
  return c;
}

std::vector<double> AnonymityNetwork::transit(
    const Circuit& circuit, const std::vector<double>& send_sec,
    Rng& rng) const {
  std::vector<double> arrivals;
  arrivals.reserve(send_sec.size());
  for (const double t : send_sec) {
    arrivals.push_back(arrival_sec(config_, circuit, t, rng));
  }
  std::sort(arrivals.begin(), arrivals.end());
  return arrivals;
}

void AnonymityNetwork::transit_binned(const Circuit& circuit,
                                      const std::vector<double>& send_sec,
                                      double start_sec, double window_sec,
                                      std::span<std::uint32_t> bins,
                                      Rng& rng) const {
  std::fill(bins.begin(), bins.end(), 0u);
  for (const double t : send_sec) {
    const double at = arrival_sec(config_, circuit, t, rng);
    // Every packet is carried even when no window can hold it, so the
    // draws stay those of transit.
    if (window_sec <= 0.0) continue;
    const std::size_t idx = window_index(at, start_sec, window_sec, bins.size());
    if (idx < bins.size()) ++bins[idx];
  }
}

std::vector<double> generate_modulated_poisson(
    double base_rate, double t_end_sec, double max_multiplier,
    const std::function<double(double)>& multiplier, Rng& rng) {
  std::vector<double> out;
  if (base_rate <= 0.0 || t_end_sec <= 0.0) return out;
  const double lambda_max = base_rate * std::max(max_multiplier, 1.0);
  double t = 0.0;
  while (true) {
    t += rng.exponential(1.0 / lambda_max);
    if (t >= t_end_sec) break;
    const double lam = multiplier ? base_rate * multiplier(t) : base_rate;
    if (rng.uniform01() < lam / lambda_max) out.push_back(t);
  }
  return out;
}

std::vector<std::uint32_t> bin_arrivals(const std::vector<double>& arrivals_sec,
                                        double start_sec, double window_sec,
                                        std::size_t num_windows) {
  std::vector<std::uint32_t> bins(num_windows, 0);
  if (window_sec <= 0.0) return bins;
  for (const double a : arrivals_sec) {
    const std::size_t idx = window_index(a, start_sec, window_sec, num_windows);
    if (idx < num_windows) ++bins[idx];
  }
  return bins;
}

}  // namespace lexfor::tornet
