// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around calls into
// the library's public functions (see wrap.cpp and the harness scopes);
// nothing inside the library is instrumented.  Each thread keeps a stack
// of open spans.  When a span closes, its duration is added to its
// layer's inclusive time, its duration minus the time its children
// cover is added to the layer's self time, and its duration is charged
// to its parent as child time.  The first kMaxRetained spans are also
// kept whole (name, start, end, parent) and written out at the end.
//
// Recording is off unless set_recording(true): the untraced binary and
// the untimed parts of a run (set-up, output checks) record nothing.

#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace perfbench::trace {

enum class Layer : std::uint8_t {
  kOp,  // one benchmark operation; the root every coverage share uses
  kServe,
  kWirePeek,
  kWireDecode,
  kWireEncode,
  kFingerprint,
  kBatchEvaluate,
  kEngineEvaluate,
  kCircuit,
  kSends,
  kTransit,
  kBin,
  kTapAdmit,
  kFeed,
  kScan,
  kLintPlan,
  kApplyFor,
  kCaptureCreate,
  kTapCreate,
  kHashSearch,
  kKeywordSearch,
  kDisclosure,
  kNetsimRun,
  kDeposit,
  kAcquire,
  kAudit,
  kCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

// Span name of a layer, e.g. "legal.fingerprint".
[[nodiscard]] const char* name(Layer layer);

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t inclusive_ns = 0;
  std::uint64_t self_ns = 0;
};

struct Totals {
  std::array<LayerTotals, kLayerCount> layers{};
  // Packets the traceback simulates (sends generated), counted at the
  // tornet.sends boundary.
  std::uint64_t packets = 0;

  [[nodiscard]] const LayerTotals& operator[](Layer l) const {
    return layers[static_cast<std::size_t>(l)];
  }
};

// Turns recording on or off for every thread.  Flip it only while no
// other thread is inside a traced call.
void set_recording(bool on);
[[nodiscard]] bool recording();

// Tags the spans that follow with operation number `op`, so the spans
// of one operation share an identifier in the written trace.
void begin_op(std::uint64_t op);

void add_packets(std::uint64_t n);

// Sums every thread's totals.  Call only while no other thread records.
[[nodiscard]] Totals collect();

// Drops all totals and retained spans.  Same precondition as collect().
void reset();

// Writes the retained spans as a Chrome trace_event JSON array; returns
// false if the file cannot be written.
bool write_spans(const std::string& path);

// RAII span around one call into a layer.
class Scope {
 public:
  explicit Scope(Layer layer) {
    if (recording()) open(layer);
  }
  ~Scope() {
    if (open_) close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void open(Layer layer);
  void close();

  bool open_ = false;
};

}  // namespace perfbench::trace
