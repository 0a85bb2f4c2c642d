#include "obs/sink.h"

#include <cstdio>

#include "util/string_util.h"

namespace lexfor::obs {

std::string args_to_json(std::string_view args) {
  std::string out;
  std::size_t pos = 0;
  bool first = true;
  while (pos < args.size()) {
    std::size_t comma = args.find(',', pos);
    if (comma == std::string_view::npos) comma = args.size();
    const std::string_view pair = args.substr(pos, comma - pos);
    pos = comma + 1;
    if (pair.empty()) continue;
    if (!first) out += ',';
    first = false;
    const std::size_t eq = pair.find('=');
    out += '"';
    if (eq == std::string_view::npos) {
      out += "note\":\"";
      append_json_escaped(out, pair);
    } else {
      append_json_escaped(out, pair.substr(0, eq));
      out += "\":\"";
      append_json_escaped(out, pair.substr(eq + 1));
    }
    out += '"';
  }
  return out;
}

void TextSink::write(const TraceEvent& ev) {
  char head[96];
  if (ev.has_sim_time()) {
    std::snprintf(head, sizeof head, "[wall %10.3fus | sim %10.3fus]",
                  static_cast<double>(ev.wall_ns) / 1e3,
                  static_cast<double>(ev.sim_us));
  } else {
    std::snprintf(head, sizeof head, "[wall %10.3fus |       ------ ]",
                  static_cast<double>(ev.wall_ns) / 1e3);
  }
  os_ << head << ' ' << static_cast<char>(ev.phase) << ' '
      << to_string(ev.level) << ' ' << ev.category << '/' << ev.name;
  if (ev.phase == Phase::kCounter) os_ << " = " << ev.value;
  if (ev.phase == Phase::kEnd) {
    os_ << " (" << static_cast<double>(ev.value) / 1e3 << "us)";
  }
  if (!ev.args.empty()) os_ << " {" << ev.args << '}';
  os_ << '\n';
}

namespace {

// Shared JSON object body used by JsonlSink and ChromeTraceSink args.
void append_event_object(std::string& out, const TraceEvent& ev,
                         double ts_us) {
  char buf[64];
  out += "{\"name\":\"";
  append_json_escaped(out, ev.name);
  out += "\",\"cat\":\"";
  append_json_escaped(out, ev.category);
  out += "\",\"ph\":\"";
  out += static_cast<char>(ev.phase);
  out += "\",\"ts\":";
  std::snprintf(buf, sizeof buf, "%.3f", ts_us);
  out += buf;
  out += ",\"pid\":1,\"tid\":";
  out += std::to_string(ev.tid + 1);
  if (ev.span_id != 0) {
    out += ",\"id\":\"0x";
    std::snprintf(buf, sizeof buf, "%llx",
                  static_cast<unsigned long long>(ev.span_id));
    out += buf;
    out += '"';
  }
  out += ",\"args\":{";
  bool first = true;
  if (ev.phase == Phase::kCounter) {
    out += "\"value\":";
    out += std::to_string(ev.value);
    first = false;
  }
  if (ev.has_sim_time()) {
    if (!first) out += ',';
    out += "\"sim_us\":";
    out += std::to_string(ev.sim_us);
    first = false;
  }
  const std::string extra = args_to_json(ev.args);
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += "}}";
}

}  // namespace

void append_event_jsonl(std::string& out, const TraceEvent& ev) {
  // JSONL keeps the raw dual clocks rather than a rendered ts.
  out += "{\"wall_ns\":";
  out += std::to_string(ev.wall_ns);
  if (ev.has_sim_time()) {
    out += ",\"sim_us\":";
    out += std::to_string(ev.sim_us);
  }
  if (ev.seq != 0) {
    out += ",\"seq\":";
    out += std::to_string(ev.seq);
  }
  out += ",\"level\":\"";
  out += to_string(ev.level);
  out += "\",\"event\":";
  append_event_object(out, ev, static_cast<double>(ev.wall_ns) / 1e3);
  out += '}';
}

void JsonlSink::write(const TraceEvent& ev) {
  std::string line;
  line.reserve(160);
  append_event_jsonl(line, ev);
  line += '\n';
  os_ << line;
}

double ChromeTraceSink::timestamp_us(const TraceEvent& ev) {
  if (base_ == TimeBase::kWall) {
    return static_cast<double>(ev.wall_ns) / 1e3;
  }
  if (ev.has_sim_time() && ev.sim_us > last_sim_us_) last_sim_us_ = ev.sim_us;
  return static_cast<double>(ev.has_sim_time() ? ev.sim_us : last_sim_us_);
}

void ChromeTraceSink::write(const TraceEvent& ev) {
  if (finished_) return;
  std::string out;
  out.reserve(192);
  if (!open_) {
    open_ = true;
    // Array opener plus a metadata record naming the process.
    out += "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
           "\"args\":{\"name\":\"lexforensica\"}}";
  }
  out += ",\n";
  append_event_object(out, ev, timestamp_us(ev));
  os_ << out;
}

void ChromeTraceSink::finish() {
  if (finished_) return;
  finished_ = true;
  if (!open_) os_ << '[';  // empty trace is still a valid document
  os_ << "]\n";
  os_.flush();
}

}  // namespace lexfor::obs
