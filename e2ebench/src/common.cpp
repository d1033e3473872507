#include "common.h"

#include <fstream>

namespace e2e {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

bool Tracer::write(const std::string& path, Clock::time_point origin) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::lock_guard<std::mutex> lk(mu_);
  f << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts_us =
        std::chrono::duration<double, std::micro>(s.start - origin).count();
    const double dur_us =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    // Request-scoped spans get one track per request; the rest share the
    // main track.
    f << "{\"name\":" << json_str(s.name) << ",\"cat\":" << json_str(s.layer)
      << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << (s.req >= 0 ? s.req + 2 : 1)
      << ",\"ts\":" << num(ts_us) << ",\"dur\":" << num(dur_us)
      << ",\"args\":{\"req\":" << s.req << (s.note.empty() ? "" : ",") << s.note
      << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace e2e
