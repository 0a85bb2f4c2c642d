// The §IV.B traceback experiment, end to end.
//
// Situation one from the paper: a seized web server hosts contraband;
// many clients reach it through an anonymity network.  With a court
// order (NOT a wiretap — only non-content rates are collected at the
// suspect's ISP), investigators modulate the server's transmission rate
// with a long PN code and look for the code in the per-client arrival
// rates.  The client whose rate despreads above threshold is the
// suspect.  Decoy flows (other clients, unmarked) measure the
// false-positive behaviour.

#pragma once

#include <vector>

#include "legal/engine.h"
#include "tornet/anonymity_network.h"
#include "watermark/correlate.h"

namespace lexfor::tornet {

struct TracebackConfig {
  TorConfig network;
  int pn_degree = 9;               // code length 2^degree - 1
  double chip_ms = 400.0;          // chip duration
  double depth = 0.35;             // rate modulation depth
  double base_rate_pps = 120.0;    // server flow rate toward each client
  std::size_t num_decoys = 8;      // concurrent unmarked client flows
  double threshold_sigmas = 5.0;
  std::uint64_t seed = 7;
  // Worker threads for the despread fan-out (suspect + decoys go
  // through one watermark::ScanBatch); 0 = hardware concurrency.  The
  // result is bit-identical for every thread count.  The simulation
  // phase gives flow i the counter-derived stream
  // Rng::sub_stream(seed, i), so a flow's packets do not depend on how
  // many other flows exist — Phase 1 is parallelizable without output
  // changes (see EXPERIMENTS.md for the one-time output shift this
  // re-seeding caused).
  unsigned detect_threads = 0;
};

struct FlowVerdict {
  bool is_suspect = false;           // ground truth
  watermark::DetectionResult detection;
};

struct TracebackResult {
  std::vector<FlowVerdict> flows;    // suspect first, then decoys
  bool suspect_detected = false;
  std::size_t decoys_flagged = 0;
  double suspect_correlation = 0.0;
  double max_decoy_correlation = 0.0;
  // Legal posture of the collection step (non-content at the ISP): the
  // engine must report a court order suffices, matching §IV.B.
  legal::Determination collection_legality;
  // Simulation passes the run made: 1 for ANY number of candidate
  // flows, in both run_traceback and run_streaming_traceback — the
  // single-pass claim the tests and benchmarks gate.  The per-suspect
  // resimulation oracle (tests/oracles/) reports one pass per flow.
  std::size_t sim_passes = 0;
};

// The legal scenario for the collection side: real-time non-content rate
// observation at the suspect's ISP.
[[nodiscard]] legal::Scenario collection_scenario();

// Runs the full experiment: builds circuits, generates the marked flow
// and decoys, carries them through the network, bins arrivals at the
// "ISP", and despreads each candidate.
[[nodiscard]] Result<TracebackResult> run_traceback(const TracebackConfig& config);

// The streaming variant: the same simulation (identical flows, bins and
// legal posture), but detection runs through a stream::TapRegistry —
// one legally-admitted TapSession per candidate flow, every tap fed
// from ONE simulation pass, each flow's bins pushed one at a time
// exactly as a live ISP tap would see them, with the verdict available
// the moment the code period completes.  Each tap's admission runs the
// §IV.B collection posture through the legal engine under an
// internally-constructed court order BEFORE any tap state exists.
// Bit-identical to run_traceback on every flow verdict (the online
// despreader is bit-identical to the batch kernel; the batch path stays
// the oracle), and bit-identical to resimulating each suspect in its
// own pass (the oracle in tests/oracles/) — the single-pass fan-out
// changes the number of simulation passes, never a bin.
[[nodiscard]] Result<TracebackResult> run_streaming_traceback(
    const TracebackConfig& config);

// --- multi-flow variant (Gold codes) ------------------------------------
//
// Situation: the seized server talks to MANY accounts at once.  Each
// account's server-side flow is marked with its own Gold code; the ISP
// observes ONE client's arrivals and despreads under every code.  The
// code that fires identifies which account the observed client is.

struct MultiflowConfig {
  TorConfig network;
  int gold_degree = 9;            // family of 2^degree + 1 codes
  std::size_t num_accounts = 8;   // concurrently marked flows
  std::size_t true_account = 3;   // which account the observed client is
  double chip_ms = 400.0;
  double depth = 0.35;
  double base_rate_pps = 120.0;
  double threshold_sigmas = 5.0;
  std::uint64_t seed = 7;
  // Worker threads for the per-account despread fan-out (the whole
  // CodeFamily scans in one watermark::ScanBatch); 0 = hardware
  // concurrency.  Bit-identical for every thread count.
  unsigned detect_threads = 0;
};

struct MultiflowResult {
  // Despread correlation per account code, for the observed client.
  std::vector<double> correlations;
  std::size_t identified_account = 0;  // argmax correlation
  bool correct = false;                // identified == true_account
  bool above_threshold = false;        // the winning despread fired
  double margin = 0.0;                 // winner corr minus runner-up corr
};

[[nodiscard]] Result<MultiflowResult> run_multiflow_traceback(
    const MultiflowConfig& config);

}  // namespace lexfor::tornet
