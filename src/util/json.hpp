// The one JSON value writer behind every report MNSIM emits: the
// `--json` accelerator report, `mnsim check --json`, the sweep report,
// the metrics block and the Chrome trace. Each document keeps its own
// layout; these three pieces make sure a string, a number and a
// diagnostic are spelled the same way in all of them.
#pragma once

#include <string>
#include <string_view>

namespace mnsim::check {
struct Diagnostic;
}

namespace mnsim::util::json {

// `s` as a JSON string literal: `"` and `\` are backslash-escaped, `\n`
// and `\t` keep their short forms, every other byte below 0x20 becomes
// `\u00xx`, and all other bytes (UTF-8 included) pass through.
[[nodiscard]] std::string quote(std::string_view s);

// `%.17g`: the shortest form that round-trips every double exactly. The
// sweep journal relies on it for its resume/merge bit-identity contract.
[[nodiscard]] std::string number(double v);

// One diagnostic as a single-line object with the keys, in order,
// {code, severity, message, file, line, location, hint}.
[[nodiscard]] std::string diagnostic(const check::Diagnostic& d);

}  // namespace mnsim::util::json
