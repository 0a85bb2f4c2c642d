#include "tornet/traceback.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "stream/tap_registry.h"
#include "watermark/correlate.h"
#include "watermark/dsss.h"
#include "watermark/gold_code.h"
#include "watermark/scan_batch.h"

namespace lexfor::tornet {

legal::Scenario collection_scenario() {
  // Collecting per-flow packet counts at the ISP touches only
  // addressing/size information in real time: Pen/Trap territory, a
  // court order suffices (paper §IV.B: "they do not need to collect the
  // entire packet, so they do not need a wiretap warrant").
  return legal::Scenario{}
      .named("non-content rate collection at the suspect's ISP")
      .by(legal::ActorKind::kLawEnforcement)
      .acquiring(legal::DataKind::kAddressing)
      .located(legal::DataState::kInTransit)
      .when(legal::Timing::kRealTime);
}

namespace {

// What every traceback variant observes of one flow: the chip width,
// the mark depth, the server's send rate, and how many chips are binned.
struct FlowShape {
  double chip_ms = 0.0;
  double depth = 0.0;
  double base_rate_pps = 0.0;
  std::size_t n_chips = 0;
};

// The investigator's mark: `code` modulating the server's send rate
// from t = 0, one chip per chip window.
watermark::Embedder make_mark(const watermark::PnCode& code,
                              const FlowShape& shape) {
  watermark::EmbedParams params;
  params.start = SimTime::zero();
  params.chip_duration = SimDuration::from_ms(shape.chip_ms);
  params.depth = shape.depth;
  return watermark::Embedder(code, params);
}

// The one flow simulation behind run_traceback, run_streaming_traceback
// and run_multiflow_traceback: build a circuit, draw the server's
// Poisson sends (rate-modulated by `mark` when it is non-null), carry
// them through the circuit counting each client-side arrival into its
// chip window, and write the shape.n_chips counts to `out`.  `counts`
// is scratch the caller reuses across flows.  Every random draw comes
// from `rng`, in that order.  Each step is a call into
// anonymity_network.cpp, so the loop stays in this file.
Status simulate_flow(const AnonymityNetwork& net, const FlowShape& shape,
                     const watermark::Embedder* mark, Rng& rng,
                     std::vector<std::uint32_t>& counts, double* out) {
  const double chip_sec = shape.chip_ms * 1e-3;
  // Generate past the code window so late (jittered) packets still land
  // in their chip bins.
  const double t_end = chip_sec * static_cast<double>(shape.n_chips) + 2.0;
  // The mean circuit delay shifts every packet; align the observation
  // window at the expected shift (the investigator calibrates this by
  // measuring circuit RTT, which is observable without content).
  const TorConfig& tor = net.config();
  const double expected_shift_sec =
      static_cast<double>(tor.circuit_length) *
      (tor.hop_latency_ms + tor.relay_jitter_ms + tor.relay_batch_ms / 2.0) *
      1e-3;

  auto circuit_r = net.build_circuit(rng);
  if (!circuit_r.ok()) return circuit_r.status();
  std::function<double(double)> multiplier;
  if (mark != nullptr) {
    multiplier = [mark](double t_sec) {
      return mark->multiplier(SimTime::from_sec(t_sec));
    };
  }
  const auto sends = generate_modulated_poisson(
      shape.base_rate_pps, t_end, 1.0 + shape.depth, multiplier, rng);
  counts.resize(shape.n_chips);
  net.transit_binned(circuit_r.value(), sends, expected_shift_sec, chip_sec,
                     counts, rng);
  std::copy(counts.begin(), counts.end(), out);
  return Status::Ok();
}

// Phase 1 of both tracebacks: simulate suspect + decoy flows in ONE
// pass and bin the ISP-side arrivals into one flat rate buffer (one
// n_chips slice per flow, suspect first), so the batch and streaming
// paths detect over IDENTICAL bins.  Flow i draws exclusively from
// Rng::sub_stream(config.seed, i): a counter-derived stream, so each
// flow's bins are the same whether a pass simulates it alone or with
// every other flow — the equality the per-suspect resimulation oracle
// checks bit for bit.
Status simulate_flow_rates(const TracebackConfig& config,
                           const watermark::PnCode& code,
                           std::vector<double>& rates) {
  const FlowShape shape{config.chip_ms, config.depth, config.base_rate_pps,
                        code.length()};
  const watermark::Embedder mark = make_mark(code, shape);
  const AnonymityNetwork net(config.network);
  const std::size_t num_flows = 1 + config.num_decoys;
  rates.resize(num_flows * shape.n_chips);
  std::vector<std::uint32_t> counts;
  for (std::size_t flow = 0; flow < num_flows; ++flow) {
    Rng flow_rng = Rng::sub_stream(config.seed, flow);
    // The suspect's flow (flow 0) carries the mark.
    const Status sim =
        simulate_flow(net, shape, flow == 0 ? &mark : nullptr, flow_rng,
                      counts, rates.data() + flow * shape.n_chips);
    if (!sim.ok()) return sim;
  }
  return Status::Ok();
}

// The court order the streaming taps are admitted under: pen/trap-style
// authority over addressing data, issued when collection starts, valid
// well past the observation window.  Matches the §IV.B posture the
// collection_scenario() evaluation determines is required.
legal::GrantedAuthority streaming_tap_authority() {
  legal::LegalProcess order;
  order.kind = legal::ProcessKind::kCourtOrder;
  order.scope.data_kinds = {legal::DataKind::kAddressing};
  order.issued_at = SimTime::zero();
  order.validity = SimDuration::from_sec(30.0 * 24.0 * 3600.0);
  return legal::GrantedAuthority{order};
}

// Folds one flow's detection into the shared result summary.
void accumulate_flow_verdict(TracebackResult& result, std::size_t flow,
                             const watermark::DetectionResult& detection) {
  FlowVerdict v;
  v.is_suspect = flow == 0;
  v.detection = detection;
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

}  // namespace

Result<TracebackResult> run_traceback(const TracebackConfig& config) {
  auto code_r = watermark::PnCode::m_sequence(config.pn_degree);
  if (!code_r.ok()) return code_r.status();
  const watermark::PnCode code = std::move(code_r).value();
  const std::size_t n_chips = code.length();

  TracebackResult result;
  result.collection_legality =
      legal::ComplianceEngine{}.evaluate(collection_scenario());

  const std::size_t num_flows = 1 + config.num_decoys;
  std::vector<double> rates;
  const Status sim = simulate_flow_rates(config, code, rates);
  if (!sim.ok()) return sim;
  result.sim_passes = 1;

  // Phase 2 — detection, fanned out: one kernel (one code), one scan
  // job per flow, merged back in input order.  max_offset 0 keeps the
  // aligned-detection semantics (the investigator controls the embed
  // start) and a Bonferroni factor of k=1, i.e. the plain threshold.
  const watermark::CorrelationKernel kernel(code, config.threshold_sigmas);
  std::vector<watermark::ScanJob> jobs(num_flows);
  for (std::size_t flow = 0; flow < num_flows; ++flow) {
    jobs[flow].kernel = &kernel;
    jobs[flow].rates =
        std::span<const double>(rates.data() + flow * n_chips, n_chips);
  }
  const watermark::ScanBatch batch(
      watermark::ScanBatchOptions{config.detect_threads});
  const auto detections = batch.run(jobs);

  for (std::size_t flow = 0; flow < num_flows; ++flow) {
    const auto& det_r = detections[flow];
    if (!det_r.ok()) return det_r.status();
    accumulate_flow_verdict(result, flow, det_r.value().best);
  }
  return result;
}

Result<TracebackResult> run_streaming_traceback(const TracebackConfig& config) {
  auto code_r = watermark::PnCode::m_sequence(config.pn_degree);
  if (!code_r.ok()) return code_r.status();
  const watermark::PnCode code = std::move(code_r).value();
  const std::size_t n_chips = code.length();

  TracebackResult result;
  result.collection_legality =
      legal::ComplianceEngine{}.evaluate(collection_scenario());

  const std::size_t num_flows = 1 + config.num_decoys;
  const watermark::CorrelationKernel kernel(code, config.threshold_sigmas);

  // Simulate every flow once...
  std::vector<double> rates;
  const Status sim = simulate_flow_rates(config, code, rates);
  if (!sim.ok()) return sim;
  result.sim_passes = 1;

  // ...then tap every candidate through one TapRegistry.  Each tap is
  // admitted per suspect — the §IV.B collection posture, evaluated
  // through the shared verdict cache under a court order — before any
  // ring or window exists; one arena backs all of them.  max_offset 0
  // mirrors run_traceback's aligned scan, so every verdict is
  // bit-identical to the batch path (tested + gated by A-STREAM).
  stream::TapRegistry registry;
  for (std::size_t flow = 0; flow < num_flows; ++flow) {
    stream::TapSessionConfig tap_cfg;
    tap_cfg.scenario = collection_scenario();
    tap_cfg.authority = streaming_tap_authority();
    tap_cfg.target = NodeId{static_cast<std::uint32_t>(flow + 1)};
    tap_cfg.ring.start = SimTime::zero();
    tap_cfg.ring.bin_width = SimDuration::from_ms(config.chip_ms);
    tap_cfg.ring.capacity = n_chips;
    tap_cfg.max_offset = 0;
    const auto tap = registry.add_tap(kernel, tap_cfg);
    if (!tap.ok()) return tap.status();
  }

  // Fan the pass's bins out: bin-major feed order (every tap sees bin i
  // before any tap sees bin i+1), the order one shared collection clock
  // would deliver them.  Per-flow verdicts cannot depend on the
  // interleaving — each despreader only reads its own window.
  for (std::size_t i = 0; i < n_chips; ++i) {
    for (std::size_t flow = 0; flow < num_flows; ++flow) {
      registry.feed_bin(flow, rates[flow * n_chips + i]);
    }
  }

  for (std::size_t flow = 0; flow < num_flows; ++flow) {
    accumulate_flow_verdict(result, flow,
                            registry.tap(flow).verdict().scan.best);
  }
  return result;
}

Result<MultiflowResult> run_multiflow_traceback(const MultiflowConfig& config) {
  if (config.true_account >= config.num_accounts) {
    return InvalidArgument(
        "run_multiflow_traceback: true_account out of range");
  }
  auto family_r = watermark::GoldCodeFamily::create(config.gold_degree);
  if (!family_r.ok()) return family_r.status();
  const watermark::GoldCodeFamily family = std::move(family_r).value();
  if (config.num_accounts > family.size()) {
    return InvalidArgument(
        "run_multiflow_traceback: more accounts than Gold codes in the "
        "family");
  }

  // The observed client carries the flow marked with the TRUE account's
  // code.  (The other accounts' flows go to other clients; since flows
  // are independent Poisson processes, simulating them would not change
  // what this client's tap sees.)
  const FlowShape shape{config.chip_ms, config.depth, config.base_rate_pps,
                        family.code_length()};
  const watermark::Embedder mark =
      make_mark(family.code(config.true_account), shape);
  const AnonymityNetwork net(config.network);
  Rng rng(config.seed);
  std::vector<double> rates(shape.n_chips);
  std::vector<std::uint32_t> counts;
  const Status sim =
      simulate_flow(net, shape, &mark, rng, counts, rates.data());
  if (!sim.ok()) return sim;

  // One tap, every account's code: a kernel per Gold code, all scanning
  // the SAME rate series in one batch.  Account order is preserved by
  // the batch's in-order merge, so the argmax below is deterministic.
  std::vector<watermark::CorrelationKernel> kernels;
  kernels.reserve(config.num_accounts);
  for (std::size_t a = 0; a < config.num_accounts; ++a) {
    kernels.emplace_back(family.code(a), config.threshold_sigmas);
  }
  std::vector<watermark::ScanJob> jobs(config.num_accounts);
  for (std::size_t a = 0; a < config.num_accounts; ++a) {
    jobs[a].kernel = &kernels[a];
    jobs[a].rates = std::span<const double>(rates);
  }
  const watermark::ScanBatch batch(
      watermark::ScanBatchOptions{config.detect_threads});
  const auto detections = batch.run(jobs);

  MultiflowResult result;
  result.correlations.reserve(config.num_accounts);
  double best = -2.0, runner_up = -2.0;
  bool winner_fired = false;
  for (std::size_t a = 0; a < config.num_accounts; ++a) {
    const auto& det_r = detections[a];
    if (!det_r.ok()) return det_r.status();
    const double corr = det_r.value().best.correlation;
    result.correlations.push_back(corr);
    if (corr > best) {
      runner_up = best;
      best = corr;
      result.identified_account = a;
      winner_fired = det_r.value().best.detected;
    } else if (corr > runner_up) {
      runner_up = corr;
    }
  }
  result.correct = result.identified_account == config.true_account;
  result.above_threshold = winner_fired;
  result.margin = runner_up > -2.0 ? best - runner_up : best;
  return result;
}

}  // namespace lexfor::tornet
