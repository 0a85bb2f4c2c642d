// Oracle: the per-suspect resimulation traceback.
//
// What a per-suspect investigation would run: one simulation pass per
// candidate flow, each flow's bins despread by its own
// stream::OnlineDespreader.  tornet::run_streaming_traceback taps every
// candidate during ONE pass instead; because flow i draws only from
// Rng::sub_stream(seed, i), the two must agree bit for bit, and the
// tests and the A-STREAM bench gate hold them to it.  The flow
// simulation is written out here rather than shared with
// tornet/traceback.cpp, so the check compares two implementations.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "legal/engine.h"
#include "stream/online_despread.h"
#include "tornet/anonymity_network.h"
#include "tornet/traceback.h"
#include "util/rng.h"
#include "watermark/correlate.h"
#include "watermark/dsss.h"
#include "watermark/pn_code.h"

namespace lexfor::oracles {

// Same verdicts as run_streaming_traceback(config); sim_passes is the
// flow count.
[[nodiscard]] inline Result<tornet::TracebackResult> resimulated_traceback(
    const tornet::TracebackConfig& config) {
  auto code_r = watermark::PnCode::m_sequence(config.pn_degree);
  if (!code_r.ok()) return code_r.status();
  const watermark::PnCode code = std::move(code_r).value();
  const std::size_t n_chips = code.length();
  const watermark::CorrelationKernel kernel(code, config.threshold_sigmas);

  watermark::EmbedParams embed_params;
  embed_params.start = SimTime::zero();
  embed_params.chip_duration = SimDuration::from_ms(config.chip_ms);
  embed_params.depth = config.depth;
  const watermark::Embedder embedder(code, embed_params);

  const double chip_sec = config.chip_ms * 1e-3;
  const double t_end = chip_sec * static_cast<double>(n_chips) + 2.0;
  const double hops = static_cast<double>(config.network.circuit_length);
  const double expected_shift_sec =
      hops *
      (config.network.hop_latency_ms + config.network.relay_jitter_ms +
       config.network.relay_batch_ms / 2.0) *
      1e-3;

  tornet::TracebackResult result;
  result.collection_legality =
      legal::ComplianceEngine{}.evaluate(tornet::collection_scenario());
  const std::size_t num_flows = 1 + config.num_decoys;
  for (std::size_t flow = 0; flow < num_flows; ++flow) {
    // One whole simulation pass for this flow alone.
    const tornet::AnonymityNetwork net(config.network);
    Rng rng = Rng::sub_stream(config.seed, flow);
    auto circuit_r = net.build_circuit(rng);
    if (!circuit_r.ok()) return circuit_r.status();
    std::function<double(double)> mult;
    if (flow == 0) {  // the suspect's flow carries the mark
      mult = [&embedder](double t_sec) {
        return embedder.multiplier(SimTime::from_sec(t_sec));
      };
    }
    const auto sends = tornet::generate_modulated_poisson(
        config.base_rate_pps, t_end, 1.0 + config.depth, mult, rng);
    const auto arrivals = net.transit(circuit_r.value(), sends, rng);
    const auto bins =
        tornet::bin_arrivals(arrivals, expected_shift_sec, chip_sec, n_chips);
    ++result.sim_passes;

    auto despreader =
        stream::OnlineDespreader::create(kernel, /*max_offset=*/0).value();
    for (const std::uint32_t count : bins) {
      (void)despreader.push(static_cast<double>(count));
    }

    tornet::FlowVerdict v;
    v.is_suspect = flow == 0;
    v.detection = despreader.verdict().scan.best;
    result.flows.push_back(v);
    if (v.is_suspect) {
      result.suspect_detected = v.detection.detected;
      result.suspect_correlation = v.detection.correlation;
    } else {
      if (v.detection.detected) ++result.decoys_flagged;
      result.max_decoy_correlation =
          std::max(result.max_decoy_correlation, v.detection.correlation);
    }
  }
  return result;
}

}  // namespace lexfor::oracles
