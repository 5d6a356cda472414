// INI-style configuration file support.
//
// MNSIM's inputs (paper Table I) arrive as a configuration file of
// `key = value` lines with optional `[section]` headers, `#`/`;` comments,
// and list values `[a, b, c]`. This parser is deliberately small and
// dependency-free; arch/params.cpp maps the parsed keys onto the typed
// AcceleratorConfig structure.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace mnsim::util {

// Thrown on malformed files or ill-typed accesses so configuration errors
// surface at load time rather than as silent defaults. The optional hint
// is a fix-it suggestion (e.g. the nearest supported value).
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& message, std::string hint = {})
      : std::runtime_error(message), hint_(std::move(hint)) {}

  [[nodiscard]] const std::string& hint() const { return hint_; }

 private:
  std::string hint_;
};

class Config {
 public:
  Config() = default;

  // Parse from text / load from a file. Later duplicate keys override
  // earlier ones (ini convention). Keys are stored as "section.key";
  // keys before any section header are stored bare.
  static Config parse(const std::string& text);
  static Config load(const std::string& path);

  void set(const std::string& key, const std::string& value);

  [[nodiscard]] bool has(const std::string& key) const;

  // Typed getters; each throws ConfigError when the key is missing or
  // its value is not of the type (get_int: an integer a long holds).
  [[nodiscard]] std::string get_string(const std::string& key) const;
  [[nodiscard]] double get_double(const std::string& key) const;
  [[nodiscard]] long get_int(const std::string& key) const;
  [[nodiscard]] bool get_bool(const std::string& key) const;

  // List values: "[a, b, c]" or "a, b, c".
  [[nodiscard]] std::vector<double> get_list(const std::string& key) const;
  [[nodiscard]] std::vector<long> get_int_list(const std::string& key) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

  // --- provenance and consumption tracking (check/config_check.hpp) ---
  // The file this config was loaded from (empty for parse()/set()).
  [[nodiscard]] const std::string& source() const { return source_; }
  void set_source(std::string source) { source_ = std::move(source); }
  // 1-based line of `key` in the parsed text; 0 when unknown (set()).
  [[nodiscard]] int line_of(const std::string& key) const;

  // Every typed getter (and `has`) records the key as consumed. Keys that
  // were parsed but never probed by any consumer are exactly the
  // silent-typo class (`Theads = 8`): `mnsim check` reports them as
  // MN-CFG-006 diagnostics. Iterating entries() does not mark keys.
  [[nodiscard]] std::vector<std::string> unread_keys() const;

 private:
  [[nodiscard]] std::optional<std::string> find(const std::string& key) const;

  std::map<std::string, std::string> entries_;
  std::map<std::string, int> lines_;
  std::string source_;
  // Consumption is an observation about the config's *use*, not its
  // value; recording it from const getters is the point of the API.
  mutable std::set<std::string> read_;
};

// Trims ASCII whitespace from both ends.
std::string trim(const std::string& s);

}  // namespace mnsim::util
