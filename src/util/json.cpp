#include "util/json.hpp"

#include <cstdio>

#include "check/diagnostic.hpp"

namespace mnsim::util::json {

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string diagnostic(const check::Diagnostic& d) {
  return "{\"code\": " + quote(d.code) +
         ", \"severity\": " + quote(check::severity_name(d.severity)) +
         ", \"message\": " + quote(d.message) +
         ", \"file\": " + quote(d.file) +
         ", \"line\": " + std::to_string(d.line) +
         ", \"location\": " + quote(d.location) +
         ", \"hint\": " + quote(d.hint) + "}";
}

}  // namespace mnsim::util::json
