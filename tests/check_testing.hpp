// Test helper: whether a diagnostic list holds a given MN-* code.
#pragma once

#include <algorithm>
#include <string>

#include "check/diagnostic.hpp"

namespace mnsim::check {

inline bool has_code(const DiagnosticList& list, const std::string& code) {
  return std::any_of(list.begin(), list.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

}  // namespace mnsim::check
