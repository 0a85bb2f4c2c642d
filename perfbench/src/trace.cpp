#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench::trace {

namespace {

constexpr std::size_t kMaxRetained = 1 << 16;

constexpr const char* kNames[kLayerCount] = {
    "op",
    "serve.serve",
    "serve.wire.peek",
    "serve.wire.decode",
    "serve.wire.encode",
    "legal.fingerprint",
    "legal.batch.evaluate",
    "legal.engine.evaluate",
    "tornet.circuit",
    "tornet.sends",
    "tornet.transit",
    "tornet.bin",
    "stream.tap_admit",
    "stream.feed",
    "watermark.scan",
    "lint.lint_plan",
    "investigation.apply_for",
    "capture.create",
    "stream.tap_create",
    "diskimage.hash_search",
    "diskimage.keyword_search",
    "storedcomm.disclosure",
    "netsim.run",
    "evidence.deposit",
    "investigation.acquire",
    "legal.suppression.audit",
};

[[nodiscard]] std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Frame {
  Layer layer;
  std::uint64_t start;
  std::uint64_t child_ns;
  std::int64_t retained;  // index into ThreadLog::spans, or -1
};

struct Span {
  Layer layer;
  std::uint64_t op;     // operation the span belongs to
  std::int64_t parent;  // index into the same thread's spans, or -1
  std::uint64_t start;
  std::uint64_t end;
};

struct ThreadLog {
  std::uint32_t index = 0;
  std::vector<Frame> stack;
  std::vector<Span> spans;
  Totals totals;
};

std::atomic<bool> g_recording{false};
std::atomic<std::size_t> g_retained{0};
std::atomic<std::uint64_t> g_op{0};
std::mutex g_mu;
// Owned here, not by the thread: a pool worker's totals must outlive it.
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_mu

ThreadLog& thread_log() {
  thread_local ThreadLog* log = [] {
    const std::scoped_lock lock(g_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->index = static_cast<std::uint32_t>(g_logs.size() - 1);
    g_logs.back()->stack.reserve(16);
    return g_logs.back().get();
  }();
  return *log;
}

}  // namespace

const char* name(Layer layer) {
  return kNames[static_cast<std::size_t>(layer)];
}

void set_recording(bool on) {
  g_recording.store(on, std::memory_order_relaxed);
}

bool recording() { return g_recording.load(std::memory_order_relaxed); }

void begin_op(std::uint64_t op) { g_op.store(op, std::memory_order_relaxed); }

void add_packets(std::uint64_t n) {
  if (recording()) thread_log().totals.packets += n;
}

void Scope::open(Layer layer) {
  ThreadLog& log = thread_log();
  std::int64_t retained = -1;
  if (g_retained.load(std::memory_order_relaxed) < kMaxRetained &&
      g_retained.fetch_add(1, std::memory_order_relaxed) < kMaxRetained) {
    const std::int64_t parent =
        log.stack.empty() ? -1 : log.stack.back().retained;
    retained = static_cast<std::int64_t>(log.spans.size());
    log.spans.push_back(
        Span{layer, g_op.load(std::memory_order_relaxed), parent, 0, 0});
  }
  open_ = true;
  log.stack.push_back(Frame{layer, 0, 0, retained});
  const std::uint64_t start = now_ns();
  log.stack.back().start = start;
  if (retained >= 0) log.spans[static_cast<std::size_t>(retained)].start = start;
}

void Scope::close() {
  const std::uint64_t end = now_ns();
  ThreadLog& log = thread_log();
  const Frame frame = log.stack.back();
  log.stack.pop_back();
  const std::uint64_t dur = end - frame.start;
  LayerTotals& t = log.totals.layers[static_cast<std::size_t>(frame.layer)];
  ++t.calls;
  t.inclusive_ns += dur;
  t.self_ns += dur > frame.child_ns ? dur - frame.child_ns : 0;
  if (!log.stack.empty()) log.stack.back().child_ns += dur;
  if (frame.retained >= 0) {
    log.spans[static_cast<std::size_t>(frame.retained)].end = end;
  }
}

Totals collect() {
  const std::scoped_lock lock(g_mu);
  Totals sum;
  for (const auto& log : g_logs) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      sum.layers[i].calls += log->totals.layers[i].calls;
      sum.layers[i].inclusive_ns += log->totals.layers[i].inclusive_ns;
      sum.layers[i].self_ns += log->totals.layers[i].self_ns;
    }
    sum.packets += log->totals.packets;
  }
  return sum;
}

void reset() {
  const std::scoped_lock lock(g_mu);
  for (const auto& log : g_logs) {
    log->totals = Totals{};
    log->spans.clear();
  }
  g_retained.store(0, std::memory_order_relaxed);
}

bool write_spans(const std::string& path) {
  const std::scoped_lock lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto& log : g_logs) {
    for (const Span& s : log->spans) origin = std::min(origin, s.start);
  }
  std::fputs("[\n", f);
  bool first = true;
  for (const auto& log : g_logs) {
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Span& s = log->spans[i];
      if (s.end == 0) continue;  // still open when the run ended
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%llu,\"span\":%zu,\"parent\":%lld}}",
                   first ? "" : ",\n", name(s.layer), log->index,
                   static_cast<double>(s.start - origin) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3,
                   static_cast<unsigned long long>(s.op), i,
                   static_cast<long long>(s.parent));
      first = false;
    }
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
