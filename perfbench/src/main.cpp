// perfbench: runs one workload and prints its metrics.
//
//   perfbench        --workload NAME --seed N --seconds S
//   perfbench_traced --workload NAME --seed N --seconds S [--spans PATH]
//
// perfbench prints the end-to-end metrics.  perfbench_traced (built with
// PERFBENCH_TRACED) prints the per-layer metrics: it records spans on
// every other block of operations (one input period each), compares the
// throughput of the two halves, and writes the retained spans to PATH.
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}.  The exit code is 1 if any
// operation's output was wrong, 2 on bad arguments.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

// Nominal operation times: the slow end of what sizing saw (shared
// 4-vCPU Xeon KVM guest, RelWithDebInfo).  They fix each run's operation
// count, so a run's timed part takes about --seconds.
constexpr WorkloadSpec kWorkloads[] = {
    {"fleet", 1.5e-3, 40, make_fleet},
    {"unique", 7.5e-3, 16, make_unique_requests},
    {"traceback", 32e-3, 50, make_traceback},
    {"live-case", 0.27e-3, 60, make_live_case},
};

// Counts the workloads report from outside (Workload::layer_counts).
// Every traced run prints all of them, 0 where a workload has none.
constexpr const char* kCountMetrics[][2] = {
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.pool_saturated", "count"},
    {"serve.admission_failed_share", "ratio"},
    {"tornet.sim_passes", "count"},
    {"admission.capture.granted", "count"},
    {"admission.capture.refused", "count"},
    {"admission.stream_tap.granted", "count"},
    {"admission.stream_tap.refused", "count"},
    {"admission.hash_search.granted", "count"},
    {"admission.hash_search.refused", "count"},
    {"admission.keyword_search.granted", "count"},
    {"admission.keyword_search.refused", "count"},
    {"admission.disclosure.granted", "count"},
    {"admission.disclosure.refused", "count"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  std::string spans;
};

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear interpolation between closest ranks.
[[nodiscard]] double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Pass {
  std::vector<double> latency_s;  // in operation order
  std::size_t failed = 0;
};

// Uncontended operation time: each input's fastest repetition, averaged
// over the input set.  latency_s[k] must be a run of input k % period.
// On a shared host the same operation runs up to about 1.6x slower while
// a neighbour contends for the core (see NOTES.md); the fastest
// repetition of each input is the one such phases did not slow.
[[nodiscard]] double best_op_s(const Pass& pass, std::size_t period) {
  std::vector<double> best(period, std::numeric_limits<double>::infinity());
  for (std::size_t k = 0; k < pass.latency_s.size(); ++k) {
    best[k % period] = std::min(best[k % period], pass.latency_s[k]);
  }
  // A short traced run may not reach every input in one of its halves.
  const std::size_t seen = std::min(period, pass.latency_s.size());
  double sum = 0.0;
  for (std::size_t k = 0; k < seen; ++k) sum += best[k];
  return sum / static_cast<double>(seen);
}

// Runs operations [first, first + count) of the run on `w` and times
// each run() alone.  With a nonzero `block`, operations alternate between
// `plain` and `traced` (recorded) in blocks of that many, so both see the
// same input mix.
void run_ops(Workload& w, std::size_t first, std::size_t count,
             std::size_t block, Pass& plain, Pass& traced) {
  for (std::size_t i = first; i < first + count; ++i) {
    const bool record = block != 0 && (i / block) % 2 == 1;
    Pass& pass = record ? traced : plain;
    trace::begin_op(i);
    trace::set_recording(record);
    const Clock::time_point t0 = Clock::now();
    {
      const trace::Scope op(trace::Layer::kOp);
      w.run(i);
    }
    const double dt = seconds_since(t0);
    trace::set_recording(false);
    pass.latency_s.push_back(dt);
    if (!w.check(i)) ++pass.failed;
  }
}

// Peak resident set of this process image.  VmHWM, unlike getrusage's
// ru_maxrss, starts afresh at exec, so the launcher's memory is not
// counted.
[[nodiscard]] double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run_end_to_end(const WorkloadSpec& spec, const Args& args,
                   std::size_t ops) {
  // The run is split into spec.setups parts, each on a freshly set-up and
  // warmed workload, so the set-ups are spread over the whole run.  Parts
  // start on input-period boundaries, so operation i always runs input
  // i % period, and `ops` is rounded to whole periods.
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  std::size_t period = 0, periods = 0;
  Pass pass, unused;
  for (std::size_t r = 0; r < spec.setups; ++r) {
    w.reset();  // the previous set-up's state is gone before the next
    const Clock::time_point t0 = Clock::now();
    w = spec.make(args.seed);
    setups.push_back(seconds_since(t0));
    if (r == 0) {
      period = w->period();
      periods = std::max<std::size_t>(1, (ops + period / 2) / period);
      ops = periods * period;
      pass.latency_s.reserve(ops);
    }
    const std::size_t first = periods * r / spec.setups * period;
    const std::size_t end = periods * (r + 1) / spec.setups * period;
    run_ops(*w, first, end - first, 0, pass, unused);
  }
  const std::vector<Metric> metrics = {
      {"throughput_per_s", w->items_per_op() / best_op_s(pass, period),
       "1/s"},
      {"latency_p95_us", quantile(pass.latency_s, 0.95) * 1e6, "us"},
      {"setup_s", *std::min_element(setups.begin(), setups.end()), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
  print_result(pass.failed == 0, ops, pass.failed, metrics);
  return pass.failed == 0 ? 0 : 1;
}

int run_traced(const WorkloadSpec& spec, const Args& args, std::size_t ops) {
  std::unique_ptr<Workload> w = spec.make(args.seed);
  trace::reset();
  w->reset_counts();
  const std::size_t period = w->period();
  Pass plain, traced;
  run_ops(*w, 0, ops, period, plain, traced);
  if (traced.latency_s.empty()) {
    std::fprintf(stderr, "run too short to trace: %zu operations\n", ops);
    return 2;
  }

  const double n = static_cast<double>(traced.latency_s.size());
  std::vector<Metric> counts;
  w->layer_counts(ops, counts);
  w.reset();  // joins the server's workers before their totals are read
  const trace::Totals t = trace::collect();

  // Per layer: inclusive time per call, and calls per operation.
  using trace::Layer;
  std::vector<Metric> metrics;
  for (std::size_t l = 0; l < trace::kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    const std::string name = trace::name(layer);
    const double calls = static_cast<double>(t.layers[l].calls);
    double ns = static_cast<double>(t.layers[l].inclusive_ns);
    switch (layer) {
      case Layer::kOp:        // the root of trace.coverage
      case Layer::kWirePeek:  // reported within serve.wire.decode
        continue;
      case Layer::kWireDecode:  // peek_frame + decode_request, per frame
        ns += static_cast<double>(t[Layer::kWirePeek].inclusive_ns);
        break;
      case Layer::kFeed:  // per operation (per traceback), not per bin
        metrics.push_back({name + "_ns", ns / n, "ns"});
        metrics.push_back({name + "_calls", calls / n, "count"});
        continue;
      default:
        break;
    }
    metrics.push_back({name + "_ns", calls > 0 ? ns / calls : 0.0, "ns"});
    metrics.push_back({name + "_calls", calls / n, "count"});
  }
  metrics.push_back(
      {"tornet.packets", static_cast<double>(t.packets) / n, "count"});
  // Every count, 0 where the workload has none.
  for (const auto& [name, unit] : kCountMetrics) {
    metrics.push_back({name, 0.0, unit});
  }
  for (const Metric& c : counts) {
    const auto it =
        std::find_if(metrics.begin(), metrics.end(),
                     [&](const Metric& m) { return m.name == c.name; });
    if (it != metrics.end()) {
      it->value = c.value;
    } else {
      metrics.push_back(c);
    }
  }

  // Coverage: the share of operation wall time, on the thread running
  // the operation, spent inside a timed layer call.
  const auto& op = t[Layer::kOp];
  metrics.push_back(
      {"trace.coverage",
       op.inclusive_ns > 0
           ? 1.0 - static_cast<double>(op.self_ns) / op.inclusive_ns
           : 0.0,
       "ratio"});
  // Traced against untraced throughput, over the two halves of the run.
  metrics.push_back({"trace.overhead",
                     best_op_s(plain, period) / best_op_s(traced, period),
                     "ratio"});

  // Where the time went: self time per layer, per operation.
  std::fprintf(stderr, "self time per traced operation, %zu of %zu:\n",
               traced.latency_s.size(), ops);
  for (std::size_t l = 0; l < trace::kLayerCount; ++l) {
    const auto& lt = t.layers[l];
    if (lt.calls == 0) continue;
    std::fprintf(stderr, "  %-28s %14.1f ns  %10.1f calls\n",
                 trace::name(static_cast<Layer>(l)),
                 static_cast<double>(lt.self_ns) / n,
                 static_cast<double>(lt.calls) / n);
  }
  if (!args.spans.empty() && !trace::write_spans(args.spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
  }

  const std::size_t failed = plain.failed + traced.failed;
  print_result(failed == 0, ops, failed, metrics);
  return failed == 0 ? 0 : 1;
}

[[nodiscard]] bool parse(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args.seconds > 0;
    } else if (key == "--spans") {
      args.spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "[--spans PATH]\n",
                 argv[0]);
    return 2;
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload != spec.name) continue;
    const auto ops = static_cast<std::size_t>(
        std::max(1.0, args.seconds / spec.nominal_op_s));
    return kTraced ? run_traced(spec, args, ops)
                   : run_end_to_end(spec, args, ops);
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}
