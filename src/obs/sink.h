// Pluggable trace sinks: text, JSONL, Chrome trace_event.
//
// A sink receives every event the tracer accepts.  TextSink writes an
// aligned human-readable log; JsonlSink writes one JSON object per line
// (grep/jq-friendly); ChromeTraceSink writes the trace_event JSON array
// format that chrome://tracing and Perfetto load directly, turning an
// investigation run into a browsable timeline where custody, authority
// and acquisition events interleave — the court-facing audit view.

#pragma once

#include <ostream>
#include <string>
#include <string_view>

#include "obs/event.h"

namespace lexfor::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const TraceEvent& ev) = 0;
  virtual void flush() {}
};

// Human-readable one-line-per-event log.
class TextSink final : public TraceSink {
 public:
  explicit TextSink(std::ostream& os) : os_(os) {}
  void write(const TraceEvent& ev) override;
  void flush() override { os_.flush(); }

 private:
  std::ostream& os_;
};

// One JSON object per line; stable field order.
class JsonlSink final : public TraceSink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(os) {}
  void write(const TraceEvent& ev) override;
  void flush() override { os_.flush(); }

 private:
  std::ostream& os_;
};

// Chrome trace_event "JSON array format".  The array is opened lazily on
// the first event and closed by finish() (or the destructor), so the
// output is a complete, valid JSON document.
class ChromeTraceSink final : public TraceSink {
 public:
  // Which clock drives the "ts" field.  kWall is always monotonic.
  // kSim puts DES runs on the simulation timeline: events that carry
  // sim time use it, events that do not inherit the latest sim
  // timestamp seen (so engine work nests under the sim moment that
  // triggered it).
  enum class TimeBase { kWall, kSim };

  explicit ChromeTraceSink(std::ostream& os, TimeBase base = TimeBase::kWall)
      : os_(os), base_(base) {}
  ~ChromeTraceSink() override { finish(); }

  void write(const TraceEvent& ev) override;
  void flush() override { os_.flush(); }

  // Closes the JSON array; idempotent.  Events after finish() are dropped.
  void finish();

 private:
  [[nodiscard]] double timestamp_us(const TraceEvent& ev);

  std::ostream& os_;
  TimeBase base_;
  bool open_ = false;
  bool finished_ = false;
  std::int64_t last_sim_us_ = 0;
};

// Appends one event as a complete JSON object (no trailing newline) in
// the JsonlSink line format: raw dual clocks + level + nested Chrome
// style event body.  Shared by JsonlSink and the flight recorder so a
// flight record line greps/jq's exactly like a live JSONL trace.
void append_event_jsonl(std::string& out, const TraceEvent& ev);

// Expands an obs args payload ("k=v,k=v") into a JSON object body
// (without the surrounding braces).  Malformed pairs become "note" keys.
[[nodiscard]] std::string args_to_json(std::string_view args);

}  // namespace lexfor::obs
